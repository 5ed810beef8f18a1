"""Dynamic programming: finite-horizon averages, discounted values,
policies, rollouts, and the periodic process container."""

import numpy as np
import pytest

import lrac.dp
from lrac import (
    ControlProblem,
    InadmissibleAction,
    NotPeriodic,
    PeriodicProcess,
    Trajectory,
    ValueFunction,
    average_cost,
    build_graph,
    greedy_policy,
    random_problem,
    rollout,
    threestate_problem,
    toy_problem,
    value_iteration_avg,
    value_iteration_discounted,
)

from lrac.problem import _closed_subgraph
from lrac.programs import reachable_states

from conftest import horizon_value_brute, plain_horizon_table, policy_trajectory, tied_graphs


class TestHorizonValues:
    def test_matches_exhaustive_recursion(self, threestate_graph):
        for T in (1, 2, 3, 5, 7):
            vf = value_iteration_avg(threestate_graph, T)
            for y0 in range(3):
                assert vf(y0) == pytest.approx(
                    horizon_value_brute(threestate_graph, y0, T), abs=1e-12
                )

    def test_matches_exhaustive_on_random(self):
        g = build_graph(random_problem(4, 3, 2))
        for T in (1, 3, 6):
            vf = value_iteration_avg(g, T)
            for y0 in range(4):
                assert vf(y0) == pytest.approx(
                    horizon_value_brute(g, y0, T), abs=1e-12
                )

    def test_toy_closed_form(self, toy_graph):
        grid = toy_graph.problem.states[:, 0]
        for T in (1, 2, 5, 16):
            vf = value_iteration_avg(toy_graph, T)
            for y0, y in enumerate(grid):
                want = -y + 2.0 * y / T if y > 0 else y
                assert abs(vf(y0) - want) <= 1e-12

    def test_horizon_one_is_cheapest_step(self, threestate_graph):
        vf = value_iteration_avg(threestate_graph, 1)
        assert vf.values.tolist() == [0.0, 1.0, 4.0]

    def test_one_step_recursion(self, threestate_graph):
        # T V_T(y) = min over pairs of cost + (T-1) V_{T-1}(next)
        g = threestate_graph
        for T in (2, 4, 9):
            prev = value_iteration_avg(g, T - 1).values * (T - 1)
            cur = value_iteration_avg(g, T).values * T
            for y in range(3):
                gs = g.pairs_of_state(y)
                want = np.min(g.pair_cost[gs] + prev[g.pair_succ[gs]])
                assert cur[y] == pytest.approx(want, abs=1e-12)

    def test_single_step_drop_bounded(self, random_graphs):
        # (T-1) V_{T-1}(y) <= T V_T(y) + M: one step costs at most M
        for g in random_graphs[:6]:
            M = g.cost_bound
            v9 = value_iteration_avg(g, 9).values
            v10 = value_iteration_avg(g, 10).values
            assert np.all(9 * v9 <= 10 * v10 + M + 1e-9)

    def test_horizon_must_be_positive(self, toy_graph):
        with pytest.raises(ValueError):
            value_iteration_avg(toy_graph, 0)

    def test_negative_horizon_rejected(self, toy_graph):
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            value_iteration_avg(toy_graph, -3)

    def test_policy_table_attains_value(self, threestate_graph):
        g = threestate_graph
        T = 6
        vf, policy = value_iteration_avg(g, T, want_policy=True)
        assert policy.shape == (T, 3)
        for y0 in range(3):
            y, total = y0, 0.0
            for t in range(T):
                pair = int(policy[t, y])
                assert g.pair_state[pair] == y
                total += g.pair_cost[pair]
                y = int(g.pair_succ[pair])
            assert total / T == pytest.approx(vf(y0), abs=1e-12)


def _horizon_reference(graph, T):
    """V_T and the horizon policy table by one plain step per remaining
    count: the full pair lookahead, then per state its minimum and the
    first pair attaining it."""
    segments = [graph.pairs_of_state(y) for y in range(graph.n_states)]
    S = np.zeros(graph.n_states)
    policy = np.empty((T, graph.n_states), dtype=int)
    for remaining in range(1, T + 1):
        lookahead = graph.pair_cost + S[graph.pair_succ]
        S = np.array([lookahead[pairs].min() for pairs in segments])
        policy[T - remaining] = [pairs[np.argmin(lookahead[pairs])] for pairs in segments]
    return S / T, policy


class TestHorizonTable:
    """value_iteration_avg is a view of one horizon table and its blocked
    policy read-off; both must equal the plain per-step recursion exactly,
    across the policy's block edges."""

    @pytest.mark.parametrize("T", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("name", ["toy", "threestate", "random20"])
    def test_matches_plain_steps(self, toy_graph, threestate_graph, name, T):
        graph = {
            "toy": toy_graph,
            "threestate": threestate_graph,
            "random20": build_graph(random_problem(20, 3, 0)),
        }[name]
        vf, policy = value_iteration_avg(graph, T, want_policy=True)
        values, want = _horizon_reference(graph, T)
        assert np.array_equal(vf.values, values)
        assert np.array_equal(policy, want)
        assert vf.horizon == T and vf.iterations == T

    def test_policy_never_holds_every_step(self, toy_graph, monkeypatch):
        # the (rows, n_pairs) lookahead is read a fixed block at a time
        real = lrac.dp._segment_argmin_pair
        rows = []

        def recording(values, per_state_min, graph):
            rows.append(values.shape[0] if values.ndim == 2 else 1)
            return real(values, per_state_min, graph)

        monkeypatch.setattr(lrac.dp, "_segment_argmin_pair", recording)
        _, policy = value_iteration_avg(toy_graph, 1000, want_policy=True)
        assert policy.shape == (1000, toy_graph.n_states)
        block = lrac.dp._POLICY_BLOCK
        assert block < 1000 and max(rows) == block and sum(rows) == 1000


def _block_graphs():
    graphs = [build_graph(toy_problem()), build_graph(threestate_problem()), *tied_graphs()]
    for n in (20, 40, 80):
        graphs += [build_graph(random_problem(n, 3, seed)) for seed in range(8)]
    return graphs


def _reached(problem, y0: int = 0):
    graph = build_graph(problem)
    return _closed_subgraph(graph, y0, reachable_states(graph, y0)[0])[0]


class TestHorizonBlocks:
    """_horizon_table fills rows in blocks along a guessed policy and keeps
    a row only when it equals the plain step's float: the table must be
    the plain per-step recursion, bit for bit, on every graph and at every
    horizon around the block edges.  Random n = 40 seeds 2, 5 and 7 settle
    their argmin pairs only at rows 2338, 2517 and 2854."""

    def test_matches_plain_recursion(self):
        for graph in _block_graphs():
            m = graph.n_states
            for T in sorted({1, max(m - 1, 1), m, m + 1, 64, 100, 255, 256, 257, 1000, 4096}):
                S = lrac.dp._horizon_table(graph, T)
                assert np.array_equal(S, plain_horizon_table(graph, T)), (graph.problem.name, T)
        # the reached sub-graphs the commands build: 30 and 153 states,
        # whose argmin pairs are still changing when blocks start
        reached = [(_reached(random_problem(n, 3, seed)), (256, 1000)) for n, seed in ((80, 1), (320, 0))]
        assert [graph.n_states for graph, _ in reached] == [30, 153]
        reached += [(_reached(problem), (4096,)) for problem in (toy_problem(), threestate_problem())]
        for graph, horizons in reached:
            for T in horizons:
                S = lrac.dp._horizon_table(graph, T)
                assert np.array_equal(S, plain_horizon_table(graph, T)), (graph.problem.name, T)

    def test_fallback_after_a_miss(self, monkeypatch):
        # a block after a missed one starts at most min(wasted,
        # _LEAST_BLOCK) rows after the missed block's last kept row
        graph = build_graph(random_problem(40, 3, 2))
        plain = plain_horizon_table(graph, 4096)
        real = lrac.dp._PolicyPlan.fill
        blocks = []

        def recording(plan, S, k, B):
            real(plan, S, k, B)
            same = (S[k + 1 : k + B + 1] == plain[k + 1 : k + B + 1]).all(axis=1)
            blocks.append((k, B, B if same.all() else int(np.argmin(same))))

        monkeypatch.setattr(lrac.dp._PolicyPlan, "fill", recording)
        lrac.dp._horizon_table(graph, 4096)
        least = lrac.dp._LEAST_BLOCK
        missed = [(block, after[0]) for block, after in zip(blocks, blocks[1:]) if block[2] < block[1]]
        assert len(missed) >= 2
        for (k, B, kept), start in missed:
            assert k + kept < start <= k + kept + min(B - kept, least)

    def test_blocks_run_and_miss(self, monkeypatch):
        # the panel above must exercise both kept blocks and missed rows
        real = lrac.dp._PolicyPlan.fill
        blocks = []

        def recording(plan, S, k, B):
            blocks.append((k, B))
            return real(plan, S, k, B)

        monkeypatch.setattr(lrac.dp._PolicyPlan, "fill", recording)
        lrac.dp._horizon_table(build_graph(random_problem(40, 3, 2)), 4096)
        ends = [k + B for k, B in blocks]
        starts = [k for k, _ in blocks[1:]]
        assert blocks and any(start < end for start, end in zip(starts, ends))

    def test_karp_tables_are_plain(self, monkeypatch):
        # tables of at most n rows, as _min_mean_cycle builds, never block
        def refuse(plan, S, k, B):
            raise AssertionError("a block was tried")

        monkeypatch.setattr(lrac.dp._PolicyPlan, "fill", refuse)
        for graph in _block_graphs():
            lrac.dp._horizon_table(graph, graph.n_states)

    def test_policy_decomposition(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 40, 300):
            for _ in range(20):
                succ = rng.integers(0, n, size=n)
                order, bounds, levels = lrac.dp._policy_decomposition(succ)
                listed = np.concatenate([order, *levels]) if levels else order
                assert np.array_equal(np.sort(listed), np.arange(n))
                for j in range(bounds.size - 1):
                    cycle = order[bounds[j] : bounds[j + 1]]
                    assert np.array_equal(succ[cycle], np.roll(cycle, -1))
                before = order
                for level in levels:
                    assert level.size and np.all(np.diff(level) > 0)
                    assert np.isin(succ[level], before).all()
                    before = level


class TestHorizonWalk:
    """_horizon_walk reads the optimal path of every horizon off one table;
    it must take exactly the pairs of value_iteration_avg's policy table."""

    @pytest.mark.parametrize("T", [1, 2, 3, 16, 257])
    def test_matches_policy_table(self, toy_graph, threestate_graph, T):
        # a table of exactly T steps, as _min_mean_cycle walks, and a
        # taller one, as the T sweep walks for its shorter horizons
        random80 = build_graph(random_problem(80, 3, 0))
        for graph in [toy_graph, threestate_graph, *tied_graphs(), random80]:
            exact, tall = lrac.dp._horizon_table(graph, T), lrac.dp._horizon_table(graph, 300)
            for y0 in range(graph.n_states):
                want = policy_trajectory(graph, y0, T).pairs.tolist()
                assert lrac.dp._horizon_walk(graph, exact, y0, T) == want
                assert lrac.dp._horizon_walk(graph, tall, y0, T) == want

    def test_unattained_value_raises(self, threestate_graph):
        # state 0's 4-step value nudged off: state 1's pair (1, a) attains
        # the nudged value, but the walk reads only state 0's pairs
        S = lrac.dp._horizon_table(threestate_graph, 4).copy()
        S[4, 0] = 1.0 + S[3, 0]
        assert all(
            threestate_graph.pair_cost[g] + S[3, threestate_graph.pair_succ[g]] != S[4, 0]
            for g in threestate_graph.pairs_of_state(0)
        )
        with pytest.raises(RuntimeError, match="no pair of state 0"):
            lrac.dp._horizon_walk(threestate_graph, S, 0, 4)
        S[4, 0] = np.nan
        with pytest.raises(RuntimeError):
            lrac.dp._horizon_walk(threestate_graph, S, 0, 4)


class TestDiscountedValues:
    def test_toy_known_value(self, toy_graph):
        # going to -|y| in one step and staying: (1-a)y + a(-|y|) at y=0.5
        vf = value_iteration_discounted(toy_graph, 0.9)
        assert vf(15) == pytest.approx(-0.4, abs=1e-9)

    def test_fixed_point_residual(self, random_graphs):
        # h = min over pairs of (1-a) k + a h(next), to solver tolerance
        for g in random_graphs[:6]:
            alpha = 0.95
            vf = value_iteration_discounted(g, alpha, tol=1e-11)
            h = vf.values
            for y in range(g.n_states):
                gs = g.pairs_of_state(y)
                rhs = np.min(
                    (1 - alpha) * g.pair_cost[gs] + alpha * h[g.pair_succ[gs]]
                )
                assert h[y] == pytest.approx(rhs, abs=1e-9)

    def test_alpha_range_checked(self, toy_graph):
        with pytest.raises(ValueError):
            value_iteration_discounted(toy_graph, 1.0)
        with pytest.raises(ValueError):
            value_iteration_discounted(toy_graph, 0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_tol_must_be_positive(self, threestate_graph, tol):
        # a NaN tol once passed the check and stopped after the first
        # round with the myopic values [3.6, 3.34, 4.0]
        with pytest.raises(ValueError, match="tol must be positive"):
            value_iteration_discounted(threestate_graph, 0.9, tol=tol)

    def test_bounded_by_cost_range(self, threestate_graph):
        vf = value_iteration_discounted(threestate_graph, 0.99)
        assert np.all(vf.values <= 5.0 + 1e-9)
        assert np.all(vf.values >= 0.0 - 1e-9)

    def test_drift_inequality(self, random_graphs):
        # h(y) <= h(f(y,u)) + 2M(1-alpha) for every admissible pair
        for g in random_graphs[:6]:
            alpha = 0.9
            vf = value_iteration_discounted(g, alpha)
            h = vf.values
            slack = 2 * g.cost_bound * (1 - alpha) + 1e-9
            assert np.all(h[g.pair_state] <= h[g.pair_succ] + slack)


def value_iteration_reference(graph, alpha, tol=1e-10):
    """Plain value iteration: sweep the discounted Bellman operator from
    h = 0 until the sup-norm change is at most tol * (1 - alpha)."""
    h = np.zeros(graph.n_states)
    stage = (1.0 - alpha) * graph.pair_cost
    starts = graph.state_offset[:-1]
    while True:
        h_new = np.minimum.reduceat(stage + alpha * h[graph.pair_succ], starts)
        change = np.max(np.abs(h_new - h))
        h = h_new
        if change <= tol * (1.0 - alpha):
            return ValueFunction(values=h, alpha=alpha)


def constant_cost_graph(n, seed, cost=0.3):
    """Two actions per state with arbitrary successors and one cost, so
    every policy is optimal and every state has an exact tie."""
    succ = np.random.default_rng(seed).integers(0, n, size=(n, 2))
    return build_graph(
        ControlProblem(
            name="flat",
            states=np.arange(n, dtype=float)[:, None],
            actions=("a", "b"),
            successor=succ,
            cost=np.full((n, 2), cost),
        )
    )


class TestPolicyIteration:
    def test_matches_value_iteration(self, toy_graph, threestate_graph, random_graphs):
        graphs = [toy_graph, threestate_graph] + random_graphs[::4][:12]
        for g in graphs:
            for alpha in (0.5, 0.9, 0.99, 0.999):
                vf = value_iteration_discounted(g, alpha)
                ref = value_iteration_reference(g, alpha)
                assert np.max(np.abs(vf.values - ref.values)) <= 1e-9
                assert np.array_equal(greedy_policy(g, vf), greedy_policy(g, ref))

    def test_toy_closed_form_near_one(self, toy_graph):
        # flip once to -y and hold from y > 0; hold from y <= 0
        y = toy_graph.problem.states[:, 0]
        for alpha in (0.9999, 0.999999):
            vf = value_iteration_discounted(toy_graph, alpha)
            want = np.where(y > 0, y * (1.0 - 2.0 * alpha), y)
            assert np.max(np.abs(vf.values - want)) <= 1e-12

    def test_toy_tie_at_zero_keeps_lowest_pair(self, toy_graph):
        # both actions at y = 0 lead back to 0 at cost 0
        zero = int(np.flatnonzero(toy_graph.problem.states[:, 0] == 0.0)[0])
        for alpha in (0.5, 0.9, 0.999, 0.999999):
            vf = value_iteration_discounted(toy_graph, alpha)
            assert abs(vf.values[zero]) <= 1e-12
            assert greedy_policy(toy_graph, vf)[zero] == 0

    def test_constant_cost_ties_terminate_on_lowest_pair(self):
        for seed in range(20):
            g = constant_cost_graph(3 + seed, seed)
            for alpha in (0.5, 0.9, 0.999, 0.999999, 1.0 - 1e-9):
                vf = value_iteration_discounted(g, alpha)
                assert vf.iterations == 1
                assert np.all(vf.values == 0.3)
                assert np.all(greedy_policy(g, vf) == 0)

    def test_iterations_recorded(self, threestate_graph):
        assert value_iteration_avg(threestate_graph, 7).iterations == 7
        vf = value_iteration_discounted(threestate_graph, 0.9)
        assert 1 <= vf.iterations <= threestate_graph.n_pairs
        assert ValueFunction(values=np.zeros(3)).iterations == 0


class TestPoliciesAndRollouts:
    def test_greedy_policy_achieves_discounted_value(self, threestate_graph):
        g = threestate_graph
        alpha = 0.9
        vf = value_iteration_discounted(g, alpha, tol=1e-12)
        policy = greedy_policy(g, vf)
        for y0 in range(3):
            traj = rollout(g, y0, policy, 600)
            disc = (1 - alpha) * float(
                np.sum(alpha ** np.arange(600) * traj.costs)
            )
            assert disc == pytest.approx(vf(y0), abs=1e-6)

    def test_greedy_needs_discounted_function(self, threestate_graph):
        vf = value_iteration_avg(threestate_graph, 3)
        with pytest.raises(ValueError):
            greedy_policy(threestate_graph, vf)

    def test_rollout_records_consistent_chain(self, toy_graph):
        traj = rollout(toy_graph, 15, np.zeros(21, dtype=int), 5)
        assert traj.n_steps == 5
        assert np.array_equal(
            toy_graph.pair_state[traj.pairs], traj.states[:-1]
        )
        assert np.array_equal(toy_graph.pair_succ[traj.pairs], traj.states[1:])

    def test_rollout_rejects_inadmissible_action(self, threestate_graph):
        # action "b" does not exist in state 2
        with pytest.raises(InadmissibleAction):
            rollout(threestate_graph, 2, np.ones(3, dtype=int), 3)

    @pytest.mark.parametrize(
        "policy",
        [
            np.zeros(1, dtype=int),  # too short
            np.zeros((21, 1), dtype=int),  # not one action per state
            np.zeros(22, dtype=int),  # too long
            np.full(21, 0.7),  # not integers
            np.zeros(21, dtype=bool),
        ],
    )
    def test_rollout_rejects_malformed_policy_array(self, toy_graph, policy):
        with pytest.raises(ValueError, match="one integer action per state"):
            rollout(toy_graph, 15, policy, 5)

    def test_rollout_callable_policy(self, threestate_graph):
        traj = rollout(threestate_graph, 0, lambda y: 1 if y == 0 else 0, 4)
        # 0 -(b)-> 2 then self loop
        assert traj.states.tolist() == [0, 2, 2, 2, 2]
        assert average_cost(traj) == pytest.approx((0.0 + 3 * 4.0) / 4)

    def test_average_cost(self, threestate_graph):
        traj = rollout(threestate_graph, 1, np.zeros(3, dtype=int), 4)
        # 1 -> 0 -> 1 -> 0 -> 1 alternates costs 1 and 3
        assert average_cost(traj) == pytest.approx(2.0)


def _rollout_loop(graph, y0, policy, steps):
    """Pairs of a rollout found by one pair_index search per step: the
    reference for rollout's lookup table."""
    pairs, y = [], y0
    for t in range(steps):
        u = int(policy[y])
        g = graph.pair_index(y, u)
        if g < 0:
            raise InadmissibleAction(f"action {u} is not admissible in state {y} at step {t}")
        pairs.append(g)
        y = int(graph.pair_succ[g])
    return pairs


class TestRolloutMatchesLoop:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_pairs(self, seed):
        g = build_graph(random_problem(15, 3, seed))
        rng = np.random.default_rng(seed)
        # a random admissible action per state, and the greedy policy
        random_policy = np.array(
            [g.pair_action[rng.choice(g.pairs_of_state(y))] for y in range(g.n_states)]
        )
        greedy = greedy_policy(g, value_iteration_discounted(g, 0.9))
        for policy in (random_policy, greedy):
            for y0 in (0, 7, 14):
                traj = rollout(g, y0, policy, 40)
                assert traj.pairs.tolist() == _rollout_loop(g, y0, policy, 40)

    @pytest.mark.parametrize("u", [-1, 2])
    def test_out_of_range_action(self, threestate_graph, u):
        # state 0 admits both actions, so a wrapped -1 would find action 1
        policy = np.array([u, 0, 0])
        with pytest.raises(InadmissibleAction) as got:
            rollout(threestate_graph, 0, policy, 3)
        with pytest.raises(InadmissibleAction) as want:
            _rollout_loop(threestate_graph, 0, policy, 3)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"action {u} is not admissible in state 0 at step 0"

    def test_inadmissible_after_steps(self, threestate_graph):
        # 0 -(b)-> 2, where action b is inadmissible
        with pytest.raises(InadmissibleAction, match="in state 2 at step 1$"):
            rollout(threestate_graph, 0, np.array([1, 0, 1]), 3)


class TestTrajectoryAndPeriodicProcess:
    def test_trajectory_needs_matching_lengths(self, threestate_graph):
        g = threestate_graph
        with pytest.raises(ValueError):
            Trajectory(
                graph=g,
                states=np.array([0, 1]),
                actions=np.array([0, 0]),
                pairs=np.array([2, 0]),
                costs=np.array([1.0, 3.0]),
            )

    def test_cycle_must_close(self, threestate_graph):
        with pytest.raises(NotPeriodic):
            PeriodicProcess(
                graph=threestate_graph,
                prefix_pairs=np.array([], dtype=int),
                cycle_pairs=np.array([0]),  # 0 -(a)-> 1 does not return
            )

    def test_prefix_must_chain_into_cycle(self, threestate_graph):
        with pytest.raises(NotPeriodic):
            PeriodicProcess(
                graph=threestate_graph,
                prefix_pairs=np.array([1]),  # 0 -(b)-> 2
                cycle_pairs=np.array([0, 2]),  # cycle 0 -> 1 -> 0
            )

    def test_valid_process_properties(self, threestate_graph):
        proc = PeriodicProcess(
            graph=threestate_graph,
            prefix_pairs=np.array([], dtype=int),
            cycle_pairs=np.array([0, 2]),
        )
        assert proc.start_state == 0
        assert proc.period == 2
        assert proc.mean_cycle_cost == pytest.approx(2.0)

    def test_to_trajectory_unrolls_periods(self, threestate_graph):
        proc = PeriodicProcess(
            graph=threestate_graph,
            prefix_pairs=np.array([1]),  # 0 -> 2
            cycle_pairs=np.array([4]),  # 2 self loop
        )
        traj = proc.to_trajectory(n_periods=3)
        assert traj.states.tolist() == [0, 2, 2, 2, 2]
        assert traj.costs.tolist() == [0.0, 4.0, 4.0, 4.0]
