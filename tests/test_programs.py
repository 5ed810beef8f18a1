"""The bracketing linear programs, the minimum-mean-cycle solver, and the
value-function cone tests."""

import dataclasses

import numpy as np
import pytest

import lrac.programs
from lrac import (
    ControlProblem,
    InaccurateSolution,
    OccupationalMeasure,
    PeriodicProcess,
    build_graph,
    certificate_residuals,
    chebyshev_basis,
    discounted_occupational_measure,
    ergodic_inner_lp,
    greedy_policy,
    k_membership,
    k_star_theta,
    measure_to_json,
    membership_W,
    occupational_measure,
    pair_from_process,
    pair_residuals,
    project_to_W,
    random_problem,
    reachable_states,
    rho,
    rollout,
    solve_dual,
    solve_primal,
    solve_q_form,
    stationarity_residual,
    v_per,
    value_iteration_avg,
    value_iteration_discounted,
)
from lrac import simplex
from lrac.cli import _discounted_measure

from conftest import (
    CHAIN_HORIZONS,
    box_distance,
    min_mean_cycle_brute,
    policy_trajectory,
)


def _single_action(succ, cost, name="loop"):
    states = np.arange(len(succ), dtype=float)[:, None]
    return build_graph(
        ControlProblem(
            name=name,
            states=states,
            actions=("a",),
            successor=np.array(succ)[:, None],
            cost=np.array(cost, dtype=float)[:, None],
        )
    )


class TestPrimal:
    def test_toy_value(self, toy_graph):
        res = solve_primal(toy_graph, 15)
        assert res.value == pytest.approx(-0.5, abs=1e-9)

    def test_threestate_values(self, threestate_graph):
        assert solve_primal(threestate_graph, 0).value == pytest.approx(2.0, abs=1e-9)
        assert solve_primal(threestate_graph, 1).value == pytest.approx(2.0, abs=1e-9)
        assert solve_primal(threestate_graph, 2).value == pytest.approx(4.0, abs=1e-9)

    def test_certificate_feasible_on_panel(self, value_panel):
        # every row dual is part of the certificate, so it must be dual
        # feasible at the theta it was solved for
        for entry in value_panel[:10]:
            graph, M = entry["graph"], entry["M"]
            for theta in (0.0, M / 5.0):
                for y0 in range(graph.n_states):
                    cert = solve_primal(graph, y0, theta).cert
                    worst = max(certificate_residuals(graph, y0, cert, theta).values())
                    assert worst <= 1e-9 * (1.0 + M), (y0, theta, worst)

    def test_solution_measures_feasible(self, threestate_graph):
        res = solve_primal(threestate_graph, 2)
        assert res.pair.gamma.weights.sum() == pytest.approx(1.0)
        r = pair_residuals(res.pair, 2)
        assert r["stationarity"] <= 1e-9
        assert r["transfer_balance"] <= 1e-9

    def test_theta_must_be_nonnegative(self, toy_graph):
        with pytest.raises(ValueError):
            solve_primal(toy_graph, 15, theta=-0.1)

    def test_result_serializes(self, threestate_graph):
        data = solve_primal(threestate_graph, 0).to_dict()
        assert set(data) == {"value", "gamma", "xi", "iterations", "residuals"}

    def test_roundoff_in_measure_is_a_solver_failure(self, threestate_graph, monkeypatch):
        real = simplex.solve
        P = threestate_graph.n_pairs

        def drift(lp, *args, **kwargs):
            sol = real(lp, *args, **kwargs)
            sol.x[P] = -1e-9  # the first xi weight
            return sol

        monkeypatch.setattr(simplex, "solve", drift)
        with pytest.raises(InaccurateSolution, match="1e-09"):
            solve_primal(threestate_graph, 0)

    def test_perturbed_duals_are_a_solver_failure(self, threestate_graph, monkeypatch):
        real = simplex.solve

        def perturbed(lp, *args, **kwargs):
            sol = real(lp, *args, **kwargs)
            sol.y[0] += 1e-6  # mu, in units of M = 5
            return sol

        monkeypatch.setattr(simplex, "solve", perturbed)
        with pytest.raises(InaccurateSolution, match=r"optimum exceeds 6e-09 in \w+ 5e-06"):
            solve_primal(threestate_graph, 0)


class TestDual:
    def test_toy_value(self, toy_graph):
        res = solve_dual(toy_graph, 15)
        assert res.value == pytest.approx(-0.5, abs=1e-9)
        assert res.cert.mu == pytest.approx(-0.5, abs=1e-9)

    def test_threestate_value(self, threestate_graph):
        res = solve_dual(threestate_graph, 0)
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_certificate_is_feasible(self, threestate_graph):
        g = threestate_graph
        res = solve_dual(g, 0, theta=0.1)
        cert = res.cert
        lhs = (
            g.pair_cost
            + cert.psi[0]
            - cert.psi[g.pair_state]
            + cert.eta[g.pair_succ]
            - cert.eta[g.pair_state]
            - cert.mu
        )
        assert lhs.min() >= -1e-9
        drops = cert.psi[g.pair_succ] - cert.psi[g.pair_state]
        assert drops.min() >= -0.1 - 1e-9

    def test_strong_duality(self, value_panel):
        for entry in value_panel:
            for row in entry["rows"]:
                scale = 1.0 + entry["M"]
                assert abs(row["d"] - row["k"]) <= 1e-7 * scale


class TestQFormAndSupOverK:
    def test_toy(self, toy_graph):
        res = solve_q_form(toy_graph, 15)
        assert res.value == pytest.approx(-0.5, abs=1e-9)

    def test_threestate_matches_dual(self, threestate_graph):
        assert solve_q_form(threestate_graph, 0).value == pytest.approx(2.0, abs=1e-9)
        assert solve_q_form(threestate_graph, 2).value == pytest.approx(4.0, abs=1e-9)

    def test_constant_cost(self):
        g = _single_action([1, 0], [0.75, 0.75], name="const")
        assert solve_q_form(g, 0).value == pytest.approx(0.75, abs=1e-9)

    def test_relaxation_in_theta(self, threestate_graph):
        base = solve_q_form(threestate_graph, 0, theta=0.0).value
        loose = solve_q_form(threestate_graph, 0, theta=2.0 * threestate_graph.cost_bound).value
        assert loose >= base - 1e-9

    def test_chain_q_equals_d_below_k(self, random_graphs):
        for graph in random_graphs[:12]:
            scale = 1.0 + graph.cost_bound
            for theta in (0.0, 0.1, 1.0):
                q = solve_q_form(graph, 0, theta).value
                d = solve_dual(graph, 0, theta).value
                k = solve_primal(graph, 0, theta).value
                assert abs(q - d) <= 1e-7 * scale
                assert d <= k + 1e-7 * scale

    def test_membership_of_optimal_psi(self, toy_graph, threestate_graph):
        for graph, y0 in ((toy_graph, 15), (threestate_graph, 0)):
            res = solve_q_form(graph, y0)
            assert k_membership(graph, res.psi)


def _certificate_oracle(graph, theta: float, q_form: bool) -> np.ndarray:
    """Optimal values, one per start state, of the certificate program
    (or, with q_form, of the q-form program) stated directly over free
    (mu, psi, eta) and solved by HiGHS, independently of the measure
    program and of lrac.simplex.

    The programs of all start states go into one LP as independent blocks:
    its objective is the sum of theirs, so each block of an optimum is
    optimal for its own start.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    block_diag = pytest.importorskip("scipy.sparse").block_diag
    n, P = graph.n_states, graph.n_pairs
    rows = np.arange(P)
    # variables: mu (unused in the q-form), psi (n), eta (n); rows read <=.
    # Pair rows: psi(y) - eta(f) + eta(y) <= k, the certificate program
    # adding mu - psi(y0) on the left below.
    base = np.zeros((2 * P, 1 + 2 * n))
    np.add.at(base, (rows, 1 + graph.pair_state), 1.0)
    np.add.at(base, (rows, 1 + n + graph.pair_succ), -1.0)
    np.add.at(base, (rows, 1 + n + graph.pair_state), 1.0)
    np.add.at(base, (P + rows, 1 + graph.pair_state), 1.0)  # psi(y) - psi(f) <= theta
    np.add.at(base, (P + rows, 1 + graph.pair_succ), -1.0)
    blocks, costs, value_at = [], [], []
    for y0 in range(n):
        A = base.copy()
        c = np.zeros(1 + 2 * n)
        if q_form:  # maximize psi(y0)
            value_at.append(1 + y0)
        else:  # maximize mu, with mu - psi(y0) on the left of each pair row
            A[:P, 0] = 1.0
            A[:P, 1 + y0] -= 1.0
            value_at.append(0)
        c[value_at[-1]] = -1.0
        blocks.append(A)
        costs.append(c)
    b = np.concatenate([graph.pair_cost, np.full(P, theta)])
    res = linprog(
        np.concatenate(costs),
        A_ub=block_diag(blocks, format="csr"),
        b_ub=np.tile(b, n),
        bounds=(None, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x.reshape(n, 1 + 2 * n)[np.arange(n), value_at]


class TestCertificateOracle:
    """The certificate and q-form values read off the measure program's row
    duals, and at theta = 0 those of v_per's certificate, agree with the
    two programs solved directly by another solver."""

    def _check(self, graph, theta):
        tol = 1e-7 * (1.0 + graph.cost_bound)
        d_ref = _certificate_oracle(graph, theta, q_form=False)
        q_ref = _certificate_oracle(graph, theta, q_form=True)
        for y0 in range(graph.n_states):
            assert abs(solve_dual(graph, y0, theta).value - d_ref[y0]) <= tol
            assert abs(solve_q_form(graph, y0, theta).value - q_ref[y0]) <= tol
        return d_ref, q_ref

    def test_every_start_at_theta_zero(self, toy_graph, threestate_graph, random_graphs):
        for graph in (toy_graph, threestate_graph, *random_graphs):
            d_ref, q_ref = self._check(graph, 0.0)
            tol = 1e-7 * (1.0 + graph.cost_bound)
            for y0 in range(graph.n_states):
                cert = v_per(graph, y0).cert
                assert abs(cert.mu - d_ref[y0]) <= tol
                assert abs(cert.q_form_psi(y0)[y0] - q_ref[y0]) <= tol

    def test_positive_theta(self, threestate_graph, random_graphs):
        for graph in (threestate_graph, *random_graphs[:10]):
            self._check(graph, 0.1)


class TestCostScale:
    """Scaling every cost by s scales d* by s, adding c to every cost adds c
    to d*, and the certificate stays feasible to a tolerance relative to the
    new cost bound."""

    @pytest.mark.parametrize("s", (1e-6, 1e-3, 1e3, 1e6, 1e9))
    def test_dual_scales_with_costs(self, value_panel, s):
        for entry in value_panel:
            graph, M = entry["graph"], entry["M"]
            scaled = dataclasses.replace(graph, pair_cost=graph.pair_cost * s)
            M_s = scaled.cost_bound
            for y0, row in enumerate(entry["rows"]):
                res = solve_dual(scaled, y0)
                assert abs(res.value - s * row["d"]) <= 1e-9 * s * (1.0 + M)
                feas = certificate_residuals(scaled, y0, res.cert)
                assert max(feas.values()) <= 1e-9 * (1.0 + M_s)

    @pytest.mark.parametrize("c", (-0.5, 3.0, -1e3, 1e3))
    def test_dual_shifts_with_costs(self, value_panel, c):
        for entry in value_panel:
            graph = entry["graph"]
            shifted = dataclasses.replace(graph, pair_cost=graph.pair_cost + c)
            M_c = shifted.cost_bound
            for y0, row in enumerate(entry["rows"]):
                res = solve_dual(shifted, y0)
                assert abs(res.value - (row["d"] + c)) <= 1e-9 * (1.0 + M_c)
                feas = certificate_residuals(shifted, y0, res.cert)
                assert max(feas.values()) <= 1e-9 * (1.0 + M_c)


def _full_measure_value(graph, y0, theta):
    """The measure program's value with one stationarity and one transfer
    row per state of the whole graph, as the module docstring states it,
    solved by lrac.simplex: the reference the program over the reachable
    states must match."""
    n, P = graph.n_states, graph.n_pairs
    M = graph.cost_bound or 1.0
    marg = np.zeros((n, P))
    inflow = np.zeros((n, P))
    marg[graph.pair_state, np.arange(P)] = 1.0
    inflow[graph.pair_succ, np.arange(P)] = 1.0
    A = np.zeros((2 * n + 1, 2 * P))
    b = np.zeros(2 * n + 1)
    c = np.concatenate([graph.pair_cost / M, np.full(P, theta / M)])
    A[0, :P] = 1.0
    b[0] = 1.0
    A[1 : n + 1, :P] = inflow - marg
    A[n + 1 :, :P] = -marg
    A[n + 1 + y0, :P] += 1.0
    A[n + 1 :, P:] = inflow - marg
    sol = simplex.solve(simplex.LinearProgram(c=c, A=A, b=b))
    assert sol.status == "optimal"
    return sol.objective * M


class TestReducedProgram:
    """solve_primal builds the measure program over the states reachable
    from y0 only.  Its value is the full program's, its measures vanish off
    the reachable states, and its certificate, lifted to the whole graph,
    is feasible there."""

    def test_matches_full_program(self, toy_graph, threestate_graph, random_graphs):
        for graph in (toy_graph, threestate_graph, *random_graphs):
            M = graph.cost_bound
            tol = 1e-9 * (1.0 + M)
            for y0 in range(graph.n_states):
                reached = np.zeros(graph.n_states, dtype=bool)
                reached[reachable_states(graph, y0)[0]] = True
                off = ~reached[graph.pair_state]
                for theta in (0.0, 0.1, M / 5.0):
                    res = solve_primal(graph, y0, theta)
                    assert abs(res.value - _full_measure_value(graph, y0, theta)) <= tol
                    assert not res.pair.gamma.weights[off].any()
                    assert not res.pair.xi.weights[off].any()
                    feas = certificate_residuals(graph, y0, res.cert, theta)
                    assert max(feas.values()) <= tol, (y0, theta, feas)
                    if theta == 0.0:
                        assert k_membership(graph, res.as_q_form().psi)

    @pytest.mark.parametrize(
        "states",
        [
            [1, 2],  # misses y0 = 0
            [0, 1],  # the pairs of state 0 also lead to 2
        ],
    )
    def test_set_must_hold_y0_and_be_closed(self, threestate_graph, states):
        # the program's states and pairs, and this check, are the sub-graph's
        with pytest.raises(ValueError, match="closed under the dynamics"):
            reached = lrac.programs._closed_subgraph(threestate_graph, 0, np.array(states))
            lrac.programs._solve_primal_reached(threestate_graph, 0, reached, 0.0)


class TestThetaFamily:
    def test_monotone_on_grid(self, random_graphs):
        for graph in random_graphs[:10]:
            values = [
                solve_primal(graph, 0, theta).value
                for theta in (0.0, 0.05, 0.2, 1.0, 5.0)
            ]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-8

    def test_horizon_schedule_decreases(self, value_panel):
        # theta = 2M/T shrinks with T, so the perturbed value comes down
        for entry in value_panel[:10]:
            for row in entry["rows"]:
                uppers = [row["upper"][T] for T in CHAIN_HORIZONS]
                for earlier, later in zip(uppers, uppers[1:]):
                    assert later <= earlier + 1e-8
                assert uppers[-1] >= row["k"] - 1e-8


class TestKStarTheta:
    """k*(theta) read off the cycle recursion, against the measure program
    solved by the simplex at the same transfer price."""

    @staticmethod
    def _check(graph, y0):
        M = graph.cost_bound
        for theta in [2.0 * M / T for T in (4, 16, 64, 4096)] + [0.1]:
            res = k_star_theta(graph, y0, theta)
            lp = solve_primal(graph, y0, theta)
            assert abs(res.value - lp.value) <= 1e-9 * (1.0 + M), (y0, theta)
            assert membership_W(res.gamma)

    def test_toy_every_start(self, toy_graph):
        for y0 in range(toy_graph.n_states):
            self._check(toy_graph, y0)

    def test_threestate_every_start(self, threestate_graph):
        for y0 in range(3):
            self._check(threestate_graph, y0)

    def test_random_graphs(self, random_graphs):
        for graph in random_graphs:
            for y0 in sorted({0, graph.n_states - 1}):
                self._check(graph, y0)

    def test_matches_brute_enumeration_on_shifted_costs(self, random_graphs):
        # k + theta * hop(y0, .) as the pair costs of a plain cycle problem
        for graph in [g for g in random_graphs if g.n_states <= 8]:
            for y0 in range(graph.n_states):
                dist = reachable_states(graph, y0)[1]
                for theta in (0.1, 2.0 * graph.cost_bound / 4):
                    shifted = dataclasses.replace(
                        graph, pair_cost=graph.pair_cost + theta * dist[graph.pair_state]
                    )
                    assert k_star_theta(graph, y0, theta).value == pytest.approx(
                        min_mean_cycle_brute(shifted, y0), abs=1e-9
                    )

    def test_theta_must_be_nonnegative(self, toy_graph):
        with pytest.raises(ValueError, match="theta must be nonnegative"):
            k_star_theta(toy_graph, 0, -1.0)

    @pytest.mark.parametrize("fn", [k_star_theta, solve_primal])
    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_theta_must_be_finite(self, toy_graph, fn, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            fn(toy_graph, 15, theta)


class TestBracketing:
    def test_horizon_value_below_perturbed_primal(self, value_panel):
        for entry in value_panel:
            for row in entry["rows"]:
                for T in CHAIN_HORIZONS:
                    assert row["V"][T] <= row["upper"][T] + 1e-7

    def test_certificate_value_below_horizon_plus_transient(self, value_panel):
        # d* can exceed V_T, but never by more than the worst reaching cost
        for entry in value_panel:
            M, n = entry["M"], entry["graph"].n_states
            for row in entry["rows"]:
                for T in CHAIN_HORIZONS:
                    slack = 2.0 * M * (n - 1) / T
                    assert row["d"] - slack - 1e-7 <= row["V"][T]

    def test_long_horizon_approaches_cycle_value(self, toy_graph, threestate_graph):
        for graph, starts in ((toy_graph, (15, 0)), (threestate_graph, (0, 1, 2))):
            T = 10**4
            vf = value_iteration_avg(graph, T)
            for y0 in starts:
                target = v_per(graph, y0).value
                assert abs(vf(y0) - target) <= 2.0 * graph.cost_bound / T + 1e-6


class TestCycleSolver:
    def test_toy_settles_at_minus_half(self, toy_graph):
        res = v_per(toy_graph, 15)
        assert res.value == pytest.approx(-0.5)
        proc = res.process
        assert proc.period == 1
        cycle_state = toy_graph.pair_state[proc.cycle_pairs[0]]
        assert toy_graph.problem.states[cycle_state, 0] == pytest.approx(-0.5)

    def test_threestate_cycles(self, threestate_graph):
        res0 = v_per(threestate_graph, 0)
        assert res0.value == pytest.approx(2.0)
        assert res0.process.cycle_pairs.tolist() == [0, 2]
        assert res0.process.prefix_pairs.size == 0
        res2 = v_per(threestate_graph, 2)
        assert res2.value == pytest.approx(4.0)
        assert res2.process.cycle_pairs.tolist() == [4]

    def test_fixed_point_only(self):
        g = _single_action([0, 1], [3.25, 9.0], name="fixed")
        res = v_per(g, 0)
        assert res.value == pytest.approx(3.25)
        assert res.process.period == 1

    def test_prefix_reaches_cycle(self, threestate_graph):
        res = v_per(threestate_graph, 1)
        proc = res.process
        assert proc.start_state == 1
        traj = proc.to_trajectory(2)
        assert traj.states[0] == 1

    def test_matches_brute_enumeration(self, random_graphs):
        small = [g for g in random_graphs if g.n_states <= 8]
        for graph in small:
            for y0 in range(graph.n_states):
                res = v_per(graph, y0)
                assert res.value == pytest.approx(
                    min_mean_cycle_brute(graph, y0), abs=1e-9
                )
                assert res.process.mean_cycle_cost == pytest.approx(
                    res.value, abs=1e-9
                )

    def test_witness_starts_at_y0(self, random_graphs):
        for graph in random_graphs[:10]:
            for y0 in range(graph.n_states):
                proc = v_per(graph, y0).process
                assert proc.start_state == y0

    def test_matches_measure_program_at_scale(self):
        for n in (60, 120):
            for seed in (0, 1):
                graph = build_graph(random_problem(n, 3, seed))
                scale = 1.0 + graph.cost_bound
                for y0 in (0, 1):
                    assert abs(
                        v_per(graph, y0).value - solve_primal(graph, y0).value
                    ) <= 1e-7 * scale

    @pytest.mark.parametrize("levels", [1, 3])
    def test_tied_costs(self, levels):
        # Integer costs from {0, ..., levels - 1}: many cycles share the
        # optimal mean, so tie-breaking decides the witness.
        for seed in range(24):
            problem = random_problem(3 + seed % 6, 3, seed)
            rng = np.random.default_rng(seed)
            drawn = rng.integers(0, levels, size=problem.successor.shape)
            cost = np.where(problem.successor >= 0, drawn.astype(float), np.nan)
            graph = build_graph(dataclasses.replace(problem, cost=cost))
            for y0 in range(graph.n_states):
                res = v_per(graph, y0)
                assert res.value == min_mean_cycle_brute(graph, y0)
                assert res.process.mean_cycle_cost == res.value
                assert res.process.start_state == y0

    def test_certificate_is_feasible_at_the_value(self, threestate_graph, random_graphs):
        # from threestate's y0 = 2 only state 2 is reachable, so psi must
        # lift the pairs that leave states 0 and 1
        starts = [(threestate_graph, 2)]
        starts += [(g, y0) for g in random_graphs for y0 in range(g.n_states)]
        lifted = 0
        for graph, y0 in starts:
            res = v_per(graph, y0)
            cert = res.cert
            assert cert.mu == res.value
            worst = max(certificate_residuals(graph, y0, cert).values())
            assert worst <= 1e-12 * (1.0 + graph.cost_bound)
            reached = res.dist >= 0
            assert res.reach.tolist() == np.flatnonzero(reached).tolist()
            assert np.all(cert.psi[reached] == 0.0) and np.all(cert.psi[~reached] <= -1.0)
            lifted += int(not reached.all())
        assert lifted > 0

    def test_agrees_with_certificate_program(self, random_graphs):
        for graph in random_graphs[:20]:
            scale = 1.0 + graph.cost_bound
            for y0 in range(graph.n_states):
                assert abs(
                    v_per(graph, y0).value - solve_dual(graph, y0).value
                ) <= 1e-7 * scale


def _min_mean_cycle_reference(graph, states):
    """_min_mean_cycle with the whole argmin table: every step's pair
    lookahead kept, its lowest minimizing pair per state, then the walk."""
    N = states.size
    S = np.zeros((N + 1, graph.n_states))
    best = np.empty((N + 1, graph.n_states), dtype=int)
    segments = [graph.pairs_of_state(y) for y in range(graph.n_states)]
    for k in range(1, N + 1):
        lookahead = graph.pair_cost + S[k - 1][graph.pair_succ]
        S[k] = [lookahead[pairs].min() for pairs in segments]
        best[k] = [pairs[np.argmin(lookahead[pairs])] for pairs in segments]
    S_states = S[:, states]
    means = ((S_states[N] - S_states[:N]) / np.arange(N, 0, -1)[:, None]).max(axis=0)
    seen, walk = {}, []
    z = int(states[np.argmin(means)])
    while z not in seen:
        seen[z] = len(walk)
        walk.append(int(best[N - len(walk), z]))
        z = int(graph.pair_succ[walk[-1]])
    cycle = walk[seen[z] :]
    return cycle, float(np.mean(graph.pair_cost[cycle])), S


class TestCycleWalk:
    """_min_mean_cycle reads the argmin only at its walk's states; the
    witnesses and certificates must be those of the full argmin table."""

    def test_matches_full_table(self, toy_graph, threestate_graph, random_graphs):
        # integer costs from {0, 1, 2} tie many lookaheads exactly
        tied = []
        for seed in range(12):
            problem = random_problem(3 + seed % 6, 3, seed)
            drawn = np.random.default_rng(seed).integers(0, 3, size=problem.successor.shape)
            cost = np.where(problem.successor >= 0, drawn.astype(float), np.nan)
            tied.append(build_graph(dataclasses.replace(problem, cost=cost)))
        for graph in [toy_graph, threestate_graph, *random_graphs, *tied]:
            for y0 in range(graph.n_states):
                reach = reachable_states(graph, y0)[0]
                cycle, mean, S = lrac.programs._min_mean_cycle(graph, reach)
                want_cycle, want_mean, want_S = _min_mean_cycle_reference(graph, reach)
                assert cycle == want_cycle
                assert mean == want_mean
                assert np.array_equal(S, want_S)

    def test_v_per_witnesses_unchanged(self, random_graphs, monkeypatch):
        starts = [(g, y0) for g in random_graphs for y0 in range(g.n_states)]
        got = [v_per(g, y0) for g, y0 in starts]
        monkeypatch.setattr(lrac.programs, "_min_mean_cycle", _min_mean_cycle_reference)
        for (g, y0), res in zip(starts, got):
            want = v_per(g, y0)
            assert res.to_dict() == want.to_dict()
            assert res.cert.to_dict() == want.cert.to_dict()


class TestCycleTableNaN:
    """A NaN anywhere in the cycle recursion's rows over the given states
    must raise, whether or not the witness walk reads it."""

    def test_nan_table_raises(self, threestate_graph, monkeypatch):
        reach = reachable_states(threestate_graph, 0)[0]
        real = lrac.programs._horizon_table
        for k in range(reach.size + 1):
            for v in reach:

                def poisoned(graph, T, k=k, v=v):
                    S = real(graph, T).copy()
                    S[k, v] = np.nan
                    return S

                monkeypatch.setattr(lrac.programs, "_horizon_table", poisoned)
                with pytest.raises(RuntimeError):
                    lrac.programs._min_mean_cycle(threestate_graph, reach)


class TestReachability:
    @pytest.mark.parametrize("y0", (-1, 21))
    @pytest.mark.parametrize(
        "entry",
        (
            reachable_states,
            solve_primal,
            v_per,
            lambda graph, y0: k_star_theta(graph, y0, 0.0),
        ),
        ids=("reachable_states", "solve_primal", "v_per", "k_star_theta"),
    )
    def test_start_outside_states_is_rejected(self, toy_graph, entry, y0):
        with pytest.raises(ValueError, match=r"y0 must be a state index in \[0, 21\)"):
            entry(toy_graph, y0)

    def test_threestate(self, threestate_graph):
        reach, dist, pred = reachable_states(threestate_graph, 2)
        assert reach.tolist() == [2]
        reach0, dist0, _ = reachable_states(threestate_graph, 0)
        assert reach0.tolist() == [0, 1, 2]
        assert dist0.tolist() == [0, 1, 1]

    def test_predecessors_chain_back(self, random_graphs):
        graph = random_graphs[3]
        reach, dist, pred = reachable_states(graph, 0)
        for y in reach:
            steps = 0
            cur = int(y)
            while cur != 0:
                g = int(pred[cur])
                assert g >= 0
                assert graph.pair_succ[g] == cur
                cur = int(graph.pair_state[g])
                steps += 1
            assert steps == dist[y]


class TestPairFromProcess:
    def test_cycle_only(self, threestate_graph):
        proc = v_per(threestate_graph, 0).process
        pair = pair_from_process(proc)
        assert np.allclose(pair.gamma.weights[[0, 2]], 0.5)
        # within-cycle transfer carries (p-1-j)/p mass on the j-th pair
        assert pair.xi.total == pytest.approx(0.5)
        r = pair_residuals(pair, 0)
        assert max(r.values()) <= 1e-12

    def test_prefix_transfer(self, threestate_graph):
        proc = v_per(threestate_graph, 1).process
        pair = pair_from_process(proc)
        r = pair_residuals(pair, 1)
        assert max(r.values()) <= 1e-12
        assert pair.xi.total > 0.0

    def test_feasible_on_random_instances(self, random_graphs):
        for graph in random_graphs:
            for y0 in range(0, graph.n_states, 2):
                pair = pair_from_process(v_per(graph, y0).process)
                r = pair_residuals(pair, y0)
                assert max(r.values()) <= 1e-9

    def test_cost_of_pair_is_cycle_mean(self, random_graphs):
        for graph in random_graphs[:10]:
            res = v_per(graph, 0)
            pair = pair_from_process(res.process)
            cost = float(np.dot(graph.pair_cost, pair.gamma.weights))
            assert cost == pytest.approx(res.value, abs=1e-9)


class TestErgodicInner:
    def test_horizon_value_function_is_admissible(self, toy_graph):
        vf = value_iteration_avg(toy_graph, 16)
        w = np.array([vf(y) for y in range(toy_graph.n_states)])
        assert ergodic_inner_lp(toy_graph, w).value >= -1e-9

    def test_constant_floor(self, threestate_graph):
        w = np.full(3, float(threestate_graph.pair_cost.min()))
        assert ergodic_inner_lp(threestate_graph, w).value >= -1e-9

    def test_ceiling_fails_on_nonconstant_cycle(self):
        g = _single_action([1, 2, 0], [1.0, 2.0, 3.0], name="cycle3")
        w = np.full(3, g.pair_cost.max() + 1.0)
        res = ergodic_inner_lp(g, w)
        assert res.value == pytest.approx(2.0 - 4.0, abs=1e-9)
        assert np.allclose(res.gamma.weights, 1.0 / 3.0)

    def test_minimizer_is_stationary(self, random_graphs):
        rng = np.random.default_rng(9)
        for graph in random_graphs[:6]:
            w = rng.normal(size=graph.n_states)
            res = ergodic_inner_lp(graph, w)
            r = res.gamma
            assert isinstance(r, OccupationalMeasure)
            from lrac import stationarity_residual

            assert stationarity_residual(r) <= 1e-9

    def test_matches_highs(self, toy_graph, threestate_graph, random_graphs):
        """The stationary-measure program stated directly, min <k - w, gamma>
        over gamma >= 0 with unit mass and inflow = marginal, solved by
        HiGHS, for random w and for the q-form psi."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(4)
        checked = 0
        for graph in (toy_graph, threestate_graph, *random_graphs[:10]):
            n, P = graph.n_states, graph.n_pairs
            A_eq = np.zeros((1 + n, P))
            A_eq[0] = 1.0
            np.add.at(A_eq, (1 + graph.pair_succ, np.arange(P)), 1.0)
            np.add.at(A_eq, (1 + graph.pair_state, np.arange(P)), -1.0)
            b_eq = np.zeros(1 + n)
            b_eq[0] = 1.0
            ws = [rng.normal(size=n) * graph.cost_bound]
            ws += [solve_q_form(graph, y0).psi for y0 in range(0, n, max(1, n // 3))]
            for w in ws:
                slack = graph.pair_cost - w[graph.pair_state]
                ref = linprog(slack, A_eq=A_eq, b_eq=b_eq, method="highs")
                assert ref.status == 0, ref.message
                tol = 1e-9 * (1.0 + float(np.max(np.abs(slack))))
                res = ergodic_inner_lp(graph, w)
                assert abs(res.value - ref.fun) <= tol
                assert stationarity_residual(res.gamma) <= 1e-9
                assert abs(float(slack @ res.gamma.weights) - res.value) <= tol
                checked += 1
        assert checked >= 40, checked


class TestMembershipCone:
    def test_toy_negative_abs(self, toy_graph):
        w = -np.abs(toy_graph.problem.states[:, 0])
        assert k_membership(toy_graph, w)

    def test_constant_min_cost(self, threestate_graph):
        w = np.full(3, float(threestate_graph.pair_cost.min()))
        assert k_membership(threestate_graph, w)

    def test_shifted_cycle_values_rejected(self, threestate_graph):
        w = np.array([2.0, 2.0, 4.0]) + 1.0
        assert not k_membership(threestate_graph, w)

    def test_monotonicity_violation_rejected(self, threestate_graph):
        # rises along the pair 0 -> 1 even though the inner program passes
        w = np.array([-10.0, 0.0, 0.0])
        assert not k_membership(threestate_graph, w)


def _sweep_measures(graph, y0):
    """The discounted (alpha = 0.9) and horizon (T = 16) measures that
    `lrac sweep` projects from y0."""
    vf = value_iteration_discounted(graph, 0.9)
    traj = rollout(graph, y0, greedy_policy(graph, vf), 3 * graph.n_states + 8)
    yield discounted_occupational_measure(traj, 0.9)
    yield occupational_measure(policy_trajectory(graph, y0, 16))


class TestProjection:
    def test_member_projects_to_itself(self, threestate_graph):
        w = np.zeros(5)
        w[[0, 2]] = 0.5
        m = OccupationalMeasure(graph=threestate_graph, weights=w)
        basis = chebyshev_basis(threestate_graph, J=12)
        res = project_to_W(m, basis)
        assert res.distance <= 1e-9
        assert rho(res.nearest, m, basis) <= 1e-9

    def test_point_mass_lands_on_unique_invariant(self):
        g = _single_action([1, 0], [1.0, 2.0], name="twocycle")
        basis = chebyshev_basis(g, J=8)
        point = OccupationalMeasure(graph=g, weights=np.array([1.0, 0.0]))
        uniform = OccupationalMeasure(graph=g, weights=np.array([0.5, 0.5]))
        res = project_to_W(point, basis)
        assert res.distance == pytest.approx(rho(point, uniform, basis), abs=1e-9)
        assert rho(res.nearest, uniform, basis) <= 1e-9

    def test_never_beats_explicit_member(self, toy_graph):
        basis = chebyshev_basis(toy_graph, J=24)
        w = np.zeros(42)
        w[30] = 1.0
        point = OccupationalMeasure(graph=toy_graph, weights=w)
        res = project_to_W(point, basis)
        loop = np.zeros(42)
        loop[11] = 1.0  # the self-loop at -0.5 is stationary
        member = OccupationalMeasure(graph=toy_graph, weights=loop)
        assert res.distance <= rho(point, member, basis) + 1e-9
        from lrac import membership_W

        assert membership_W(res.nearest, tol=1e-8)

    def test_nearest_serializes(self, threestate_graph):
        w = np.zeros(5)
        w[1] = 1.0
        m = OccupationalMeasure(graph=threestate_graph, weights=w)
        res = project_to_W(m, chebyshev_basis(threestate_graph, J=8))
        assert isinstance(measure_to_json(res.nearest), str)

    def test_member_skips_the_program(self, threestate_graph, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("a member needs no projection program")

        monkeypatch.setattr(simplex, "solve", no_lp)
        w = np.zeros(5)
        w[[0, 2]] = 0.5
        m = OccupationalMeasure(graph=threestate_graph, weights=w)
        res = project_to_W(m, chebyshev_basis(threestate_graph, J=12))
        assert res.iterations == 0
        assert res.distance == 0.0
        assert res.nearest is m

    def test_drifted_solution_is_a_solver_failure(self, toy_graph, monkeypatch):
        real = simplex.solve

        def drift(lp, *args, **kwargs):
            sol = real(lp, *args, **kwargs)
            sol.x[0] += 1e-6  # gamma now sums to 1 + 1e-6
            return sol

        monkeypatch.setattr(simplex, "solve", drift)
        w = np.zeros(toy_graph.n_pairs)
        w[30] = 1.0
        point = OccupationalMeasure(graph=toy_graph, weights=w)
        with pytest.raises(InaccurateSolution, match="1e-06"):
            project_to_W(point, chebyshev_basis(toy_graph, J=24))
        assert issubclass(InaccurateSolution, RuntimeError)

    def test_distances_match_highs(self, toy_graph, threestate_graph):
        """The split-gap program, solved with the lexicographic rule, against
        HiGHS on the box form, over the alpha and T measures of `lrac sweep`
        that lie off W."""
        cases = [(toy_graph, y0) for y0 in range(toy_graph.n_states)]
        cases += [(threestate_graph, y0) for y0 in range(3)]
        for seed in range(4):
            g = build_graph(random_problem(20, 3, seed))
            cases += [(g, 0), (g, 1)]
        checked = 0
        for graph, y0 in cases:
            basis = chebyshev_basis(graph)
            for m in _sweep_measures(graph, y0):
                if membership_W(m):
                    continue
                res = project_to_W(m, basis)
                assert res.distance == pytest.approx(box_distance(m, basis), abs=1e-8)
                assert membership_W(res.nearest, 1e-8)
                assert res.distance <= rho(m, res.nearest, basis) + 1e-8
                checked += 1
        assert checked >= 30, checked

    @pytest.mark.parametrize(
        "n, seed, y0, alpha, T",
        [
            (80, 0, 0, None, 3),
            (80, 0, 0, 0.9, None),
            (80, 1, 0, 0.9, None),
            (80, 2, 40, None, 3),
            (80, 3, 40, None, 16),
            (120, 0, 0, 0.9, None),
        ],
    )
    def test_large_distances_match_highs(self, n, seed, y0, alpha, T):
        # random off-W measures; n = 80, seed 2, T = 3 hit the iteration
        # limit before the gap rows started on their slacks, and n = 120,
        # seed 0, alpha = 0.9 still does if the lexicographic rule switches
        # to Bland's
        graph = build_graph(random_problem(n, 3, seed))
        if alpha is None:
            m = occupational_measure(policy_trajectory(graph, y0, T))
        else:
            m = _discounted_measure(graph, y0, alpha)[1]
        assert not membership_W(m)
        basis = chebyshev_basis(graph)
        res = project_to_W(m, basis)
        assert abs(res.distance - box_distance(m, basis)) <= 1e-9
        assert membership_W(res.nearest, 1e-8)
