"""Occupational measures: empirical and discounted collection, cycle
detection, the test-function metric, and membership checks."""

import json

import numpy as np
import pytest

from lrac import (
    ControlProblem,
    EmptySet,
    FlowMeasure,
    MetricBasis,
    NoCycleDetected,
    OccupationalMeasure,
    basis_from_functions,
    build_graph,
    chebyshev_basis,
    detect_cycle,
    discounted_occupational_measure,
    discounted_residual,
    hausdorff,
    measure_from_json,
    measure_to_json,
    membership_W,
    membership_W_alpha,
    occupational_measure,
    pairing,
    random_problem,
    rho,
    rollout,
    state_inflow,
    state_marginal,
    stationarity_residual,
)

from conftest import discounted_pairing_brute, unrolled_pairs


def _random_measure(graph, rng):
    w = rng.dirichlet(np.ones(graph.n_pairs))
    return OccupationalMeasure(graph=graph, weights=w)


def _toy_settling_traj(toy_graph, steps=12):
    # 0.5 -> -0.5 under u=-1, then the self-loop -0.5 -> -0.5 under u=+1
    def policy(y):
        return 0 if toy_graph.problem.states[y, 0] > 0 else 1

    return rollout(toy_graph, 15, policy, steps)


class TestConstruction:
    def test_weights_validated(self, toy_graph):
        with pytest.raises(ValueError, match="per admissible pair"):
            OccupationalMeasure(graph=toy_graph, weights=np.ones(3) / 3)
        bad = np.zeros(toy_graph.n_pairs)
        bad[0] = 1.5
        with pytest.raises(ValueError, match="sum to one"):
            OccupationalMeasure(graph=toy_graph, weights=bad)
        neg = np.zeros(toy_graph.n_pairs)
        neg[0], neg[1] = 1.5, -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            OccupationalMeasure(graph=toy_graph, weights=neg)
        # a NaN passes both the sign and the mass comparison
        nan = np.zeros(toy_graph.n_pairs)
        nan[0], nan[1] = np.nan, 1.0
        with pytest.raises(ValueError, match="finite"):
            OccupationalMeasure(graph=toy_graph, weights=nan)

    def test_flow_measure_any_mass(self, toy_graph):
        w = np.zeros(toy_graph.n_pairs)
        w[0], w[3] = 2.0, 5.0
        fm = FlowMeasure(graph=toy_graph, weights=w)
        assert fm.total == pytest.approx(7.0)

    def test_weights_read_only(self, threestate_graph):
        m = OccupationalMeasure(
            graph=threestate_graph, weights=np.ones(5) / 5
        )
        with pytest.raises(ValueError):
            m.weights[0] = 1.0


class TestEmpiricalMeasure:
    def test_counts_match_trajectory(self, threestate_graph):
        # alternate 0 -> 1 -> 0: pairs 0 and 2 in turn
        traj = rollout(threestate_graph, 0, lambda y: 0, 6)
        m = occupational_measure(traj)
        expected = np.zeros(5)
        expected[[0, 2]] = 0.5
        assert np.allclose(m.weights, expected)
        assert membership_W(m)

    def test_prefix_shows_up_at_full_horizon(self, toy_graph):
        traj = _toy_settling_traj(toy_graph, steps=8)
        m = occupational_measure(traj)
        assert m.weights[30] == pytest.approx(1 / 8)
        assert m.weights[11] == pytest.approx(7 / 8)
        assert stationarity_residual(m) == pytest.approx(1 / 8)
        assert not membership_W(m)

    def test_S_truncates(self, toy_graph):
        traj = _toy_settling_traj(toy_graph, steps=8)
        m1 = occupational_measure(traj, S=1)
        assert m1.weights[30] == pytest.approx(1.0)
        m3 = occupational_measure(traj, S=3)
        assert m3.weights[30] == pytest.approx(1 / 3)

    def test_S_out_of_range(self, toy_graph):
        traj = _toy_settling_traj(toy_graph, steps=4)
        with pytest.raises(ValueError):
            occupational_measure(traj, S=0)
        with pytest.raises(ValueError):
            occupational_measure(traj, S=5)

    def test_sums_to_one(self, random_graphs):
        for graph in random_graphs[:8]:
            traj = rollout(graph, 0, lambda y: 0, 11)
            m = occupational_measure(traj)
            assert m.weights.sum() == pytest.approx(1.0)


class TestDetectCycle:
    def test_pure_cycle(self):
        assert detect_cycle(np.array([3, 7, 3, 7, 3, 7])) == (0, 2)

    def test_prefix_then_cycle(self):
        assert detect_cycle(np.array([9, 3, 7, 3, 7, 3, 7])) == (1, 2)

    def test_smallest_period_wins(self):
        assert detect_cycle(np.array([4, 4, 4, 4])) == (0, 1)

    def test_needs_two_full_periods_of_evidence(self):
        # the tail [1, 2, 1] shows only one and a half periods
        with pytest.raises(NoCycleDetected):
            detect_cycle(np.array([9, 8, 1, 2, 1]))

    def test_two_periods_suffice(self):
        assert detect_cycle(np.array([1, 2, 1, 2, 1])) == (0, 2)

    def test_no_repeat_at_all(self):
        with pytest.raises(NoCycleDetected):
            detect_cycle(np.array([5, 5, 1]))


class TestDiscountedMeasure:
    def test_toy_closed_form(self, toy_graph):
        traj = _toy_settling_traj(toy_graph)
        m = discounted_occupational_measure(traj, alpha=0.9)
        # (1 - a) on the first pair, a on the absorbing self-loop
        assert m.weights[30] == pytest.approx(0.1)
        assert m.weights[11] == pytest.approx(0.9)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_truncated_sum(self, random_graphs):
        rng = np.random.default_rng(11)
        for graph in random_graphs[:6]:
            n = graph.n_states
            actions = rng.integers(0, graph.problem.n_actions, size=n)
            policy = _admissible_policy(graph, actions)
            traj = rollout(graph, 0, policy, 3 * n + 8)
            for alpha in (0.5, 0.9, 0.99):
                m = discounted_occupational_measure(traj, alpha)
                q = rng.normal(size=graph.n_pairs)
                brute = discounted_pairing_brute(traj, alpha, q)
                assert pairing(q, m) == pytest.approx(brute, abs=1e-9)
                assert m.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_balance_at_start_state(self, threestate_graph):
        traj = rollout(threestate_graph, 0, lambda y: 0, 10)
        m = discounted_occupational_measure(traj, 0.9)
        assert membership_W_alpha(m, 0.9, 0)
        assert discounted_residual(m, 0.9, 0) <= 1e-12

    def test_wrong_start_residual_is_one_minus_alpha(self, toy_graph):
        # state 0 is never visited, so nothing cancels its source term
        traj = _toy_settling_traj(toy_graph)
        m = discounted_occupational_measure(traj, 0.9)
        assert discounted_residual(m, 0.9, 0) == pytest.approx(0.1, abs=1e-12)
        assert not membership_W_alpha(m, 0.9, 0)

    def test_alpha_range(self, toy_graph):
        traj = _toy_settling_traj(toy_graph)
        for alpha in (0.0, 1.0, 1.4):
            with pytest.raises(ValueError):
                discounted_occupational_measure(traj, alpha)


def _admissible_policy(graph, preferred):
    succ = graph.problem.successor

    def policy(y):
        u = int(preferred[y])
        if succ[y, u] >= 0:
            return u
        return int(np.flatnonzero(succ[y] >= 0)[0])

    return policy


class TestMarginals:
    def test_marginal_and_inflow(self, threestate_graph):
        w = np.zeros(5)
        w[[0, 2]] = 0.5  # the 0 -> 1 -> 0 loop
        m = OccupationalMeasure(graph=threestate_graph, weights=w)
        assert state_marginal(m).tolist() == [0.5, 0.5, 0.0]
        assert state_inflow(m).tolist() == [0.5, 0.5, 0.0]

    def test_self_loop_counts_both_sides(self, threestate_graph):
        w = np.zeros(5)
        w[3] = 1.0  # stay at 1
        m = OccupationalMeasure(graph=threestate_graph, weights=w)
        assert state_marginal(m)[1] == pytest.approx(1.0)
        assert state_inflow(m)[1] == pytest.approx(1.0)
        assert membership_W(m)


def _chebyshev_rows_loop(graph, J):
    """chebyshev_basis's matrix and labels, one row per Python step."""
    from lrac.measures import _degree_multi_indices

    states = graph.problem.states
    lo, hi = states.min(axis=0), states.max(axis=0)
    span = hi - lo
    scaled = np.zeros_like(states)
    live = span > 0
    scaled[:, live] = (2.0 * states[:, live] - (hi + lo)[live]) / span[live]
    rows, labels = [], []
    sx = scaled[graph.pair_state]
    degree_total = 0
    while len(rows) < J:
        for multi in _degree_multi_indices(degree_total, states.shape[1]):
            cheb = np.ones(graph.n_pairs)
            for axis, d in enumerate(multi):
                if d:
                    cheb = cheb * np.cos(d * np.arccos(np.clip(sx[:, axis], -1.0, 1.0)))
            for a in range(graph.problem.n_actions):
                rows.append(cheb * (graph.pair_action == a))
                labels.append(f"T{multi}*[u={graph.problem.actions[a]}]")
                if len(rows) == J:
                    break
            if len(rows) == J:
                break
        degree_total += 1
    return np.array(rows), tuple(labels)


class TestChebyshevBasis:
    def test_size_and_weights(self, toy_graph):
        basis = chebyshev_basis(toy_graph)
        assert basis.size == 64
        assert basis.matrix.shape == (64, toy_graph.n_pairs)
        assert np.allclose(basis.weights, 0.5 ** np.arange(1, 65))

    def test_bounded_by_one(self, toy_graph, threestate_graph):
        for graph in (toy_graph, threestate_graph):
            basis = chebyshev_basis(graph)
            assert np.max(np.abs(basis.matrix)) <= 1.0 + 1e-12

    def test_labels_enumerate_degree_then_action(self, toy_graph):
        basis = chebyshev_basis(toy_graph, J=6)
        assert basis.labels == (
            "T(0,)*[u=-1]",
            "T(0,)*[u=+1]",
            "T(1,)*[u=-1]",
            "T(1,)*[u=+1]",
            "T(2,)*[u=-1]",
            "T(2,)*[u=+1]",
        )

    def test_separates_all_measures(self, toy_graph, threestate_graph):
        # full column rank makes rho a genuine metric on measures
        assert np.linalg.matrix_rank(chebyshev_basis(toy_graph).matrix) == 42
        assert (
            np.linalg.matrix_rank(chebyshev_basis(threestate_graph, J=10).matrix)
            == 5
        )

    def test_J_validated(self, toy_graph):
        with pytest.raises(ValueError):
            chebyshev_basis(toy_graph, J=0)

    def test_matches_row_loop(self, toy_graph, threestate_graph):
        """The broadcast matrix and labels equal, bit for bit, those of the
        loop that built one row per multi-index and action."""
        rng = np.random.default_rng(0)
        grids = []
        for dim, n, K in ((2, 12, 3), (3, 9, 2)):
            grids.append(
                build_graph(
                    ControlProblem(
                        name=f"grid{dim}",
                        states=rng.normal(size=(n, dim)).round(2),
                        actions=tuple(f"a{k}" for k in range(K)),
                        successor=rng.integers(0, n, size=(n, K)),
                        cost=rng.random((n, K)),
                    )
                )
            )
        graphs = [toy_graph, threestate_graph, build_graph(random_problem(20, 3, 0)), *grids]
        for graph in graphs:
            for J in (1, 2, 5, 63, 64, 100):
                basis = chebyshev_basis(graph, J)
                matrix, labels = _chebyshev_rows_loop(graph, J)
                assert np.array_equal(basis.matrix, matrix), (graph.problem.name, J)
                assert basis.labels == labels


class TestBasisFromFunctions:
    def test_rows_evaluate_callables(self, toy_graph):
        def coord(state, action):
            return state[0]

        def is_up(state, action):
            return float(action == "+1")

        basis = basis_from_functions(toy_graph, [coord, is_up])
        states = toy_graph.problem.states
        assert np.allclose(
            basis.matrix[0], states[toy_graph.pair_state, 0]
        )
        assert np.allclose(
            basis.matrix[1], toy_graph.pair_action == 1
        )
        assert basis.labels == ("coord", "is_up")
        assert np.allclose(basis.weights, [0.5, 0.25])

    def test_explicit_weights(self, threestate_graph):
        basis = basis_from_functions(
            threestate_graph, [lambda s, a: 1.0], weights=[3.0]
        )
        assert basis.weights.tolist() == [3.0]


class TestMetricBasisChecks:
    """Weights must be finite and nonnegative and the matrix finite: with
    negated weights rho goes negative and a projection reads 0, and a NaN
    weight turns rho into NaN."""

    def _with(self, basis, **fields):
        return MetricBasis(
            graph=basis.graph,
            matrix=fields.get("matrix", basis.matrix),
            weights=fields.get("weights", basis.weights),
            labels=basis.labels,
        )

    @pytest.mark.parametrize(
        "change",
        [
            lambda w: -w,
            lambda w: np.r_[w[:-1], -1e-300],
            lambda w: np.r_[np.nan, w[1:]],
            lambda w: np.r_[w[:-1], np.inf],
        ],
    )
    def test_bad_weights_are_rejected(self, toy_graph, change):
        basis = chebyshev_basis(toy_graph)
        with pytest.raises(ValueError, match="weights"):
            self._with(basis, weights=change(basis.weights))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_rejected(self, toy_graph, bad):
        basis = chebyshev_basis(toy_graph)
        matrix = basis.matrix.copy()
        matrix[3, 5] = bad
        with pytest.raises(ValueError, match="matrix"):
            self._with(basis, matrix=matrix)
        with pytest.raises(ValueError, match="matrix"):
            basis_from_functions(toy_graph, [lambda s, a: bad])

    def test_zero_weights_are_allowed(self, toy_graph):
        basis = chebyshev_basis(toy_graph)
        weights = basis.weights.copy()
        weights[1::2] = 0.0
        zeroed = self._with(basis, weights=weights)
        rng = np.random.default_rng(3)
        m1, m2 = _random_measure(toy_graph, rng), _random_measure(toy_graph, rng)
        assert 0.0 <= rho(m1, m2, zeroed) <= rho(m1, m2, basis)


class TestRho:
    def test_identity(self, toy_graph):
        rng = np.random.default_rng(0)
        basis = chebyshev_basis(toy_graph)
        m = _random_measure(toy_graph, rng)
        assert rho(m, m, basis) == 0.0

    def test_symmetry_and_triangle(self, threestate_graph):
        rng = np.random.default_rng(1)
        basis = chebyshev_basis(threestate_graph, J=16)
        for _ in range(20):
            a = _random_measure(threestate_graph, rng)
            b = _random_measure(threestate_graph, rng)
            c = _random_measure(threestate_graph, rng)
            assert rho(a, b, basis) == pytest.approx(rho(b, a, basis))
            assert rho(a, c, basis) <= rho(a, b, basis) + rho(b, c, basis) + 1e-12

    def test_positive_on_distinct(self, toy_graph):
        basis = chebyshev_basis(toy_graph)
        w1 = np.zeros(42)
        w1[30] = 1.0
        w2 = np.zeros(42)
        w2[11] = 1.0
        m1 = OccupationalMeasure(graph=toy_graph, weights=w1)
        m2 = OccupationalMeasure(graph=toy_graph, weights=w2)
        assert rho(m1, m2, basis) > 1e-6

    def test_dominated_by_weight_sum(self, toy_graph):
        # each test function is bounded by one, so rho <= 2 sum w_j
        rng = np.random.default_rng(2)
        basis = chebyshev_basis(toy_graph)
        m1 = _random_measure(toy_graph, rng)
        m2 = _random_measure(toy_graph, rng)
        assert rho(m1, m2, basis) <= 2.0 * basis.weights.sum() + 1e-12


class TestHausdorff:
    def test_matches_double_loop(self, threestate_graph):
        rng = np.random.default_rng(3)
        basis = chebyshev_basis(threestate_graph, J=12)
        set1 = [_random_measure(threestate_graph, rng) for _ in range(3)]
        set2 = [_random_measure(threestate_graph, rng) for _ in range(4)]
        D = np.array([[rho(a, b, basis) for b in set2] for a in set1])
        brute = max(D.min(axis=1).max(), D.min(axis=0).max())
        assert hausdorff(set1, set2, basis) == pytest.approx(brute)

    def test_zero_on_equal_sets(self, threestate_graph):
        rng = np.random.default_rng(4)
        basis = chebyshev_basis(threestate_graph, J=12)
        ms = [_random_measure(threestate_graph, rng) for _ in range(3)]
        assert hausdorff(ms, list(reversed(ms)), basis) == 0.0

    def test_empty_raises(self, threestate_graph):
        rng = np.random.default_rng(5)
        basis = chebyshev_basis(threestate_graph, J=4)
        ms = [_random_measure(threestate_graph, rng)]
        with pytest.raises(EmptySet):
            hausdorff([], ms, basis)
        with pytest.raises(EmptySet):
            hausdorff(ms, [], basis)


class TestSerialization:
    def test_round_trip_occupational(self, toy_graph):
        rng = np.random.default_rng(6)
        m = _random_measure(toy_graph, rng)
        text = measure_to_json(m)
        back = measure_from_json(toy_graph, text)
        assert isinstance(back, OccupationalMeasure)
        assert np.allclose(back.weights, m.weights)

    def test_round_trip_flow(self, threestate_graph):
        w = np.array([0.0, 2.5, 0.0, 1.0, 7.0])
        fm = FlowMeasure(graph=threestate_graph, weights=w)
        back = measure_from_json(
            threestate_graph, measure_to_json(fm), kind="flow"
        )
        assert isinstance(back, FlowMeasure)
        assert np.allclose(back.weights, w)

    def test_keys_are_pair_indices(self, threestate_graph):
        m = OccupationalMeasure(
            graph=threestate_graph, weights=np.ones(5) / 5
        )
        data = json.loads(measure_to_json(m))
        assert sorted(data.keys(), key=int) == [str(g) for g in range(5)]

    @pytest.mark.parametrize(
        "text",
        [
            '{"-1": 1.0}',  # would land on the last pair
            '{"99": 1.0}',  # past the last pair
            '{"0": 1.0, "00": 1.0}',  # one pair written twice
            '{"0": 1.0, "0": 1.0}',
            '{" 1": 1.0}',
            '{"1.0": 1.0}',
            '{"0": "1.0"}',
            '{"0": true}',
            '{"0": NaN}',
            '[1.0, 0, 0, 0, 0]',
            '1.0',
        ],
    )
    def test_rejects_malformed_input(self, threestate_graph, text):
        with pytest.raises(ValueError):
            measure_from_json(threestate_graph, text)

    def test_rejects_unknown_kind(self, threestate_graph):
        m = OccupationalMeasure(graph=threestate_graph, weights=np.ones(5) / 5)
        with pytest.raises(ValueError, match="kind"):
            measure_from_json(threestate_graph, measure_to_json(m), kind="flows")


class TestPairing:
    def test_linear_in_measure(self, threestate_graph):
        rng = np.random.default_rng(7)
        q = rng.normal(size=5)
        m1 = _random_measure(threestate_graph, rng)
        m2 = _random_measure(threestate_graph, rng)
        mixed = OccupationalMeasure(
            graph=threestate_graph,
            weights=0.25 * m1.weights + 0.75 * m2.weights,
        )
        assert pairing(q, mixed) == pytest.approx(
            0.25 * pairing(q, m1) + 0.75 * pairing(q, m2)
        )

    def test_cost_pairing_is_average_cost(self, threestate_graph):
        traj = rollout(threestate_graph, 0, lambda y: 0, 6)
        m = occupational_measure(traj)
        assert pairing(threestate_graph.pair_cost, m) == pytest.approx(
            float(traj.costs.mean())
        )

    def test_unrolled_pairs_extends_cycle(self, threestate_graph):
        traj = rollout(threestate_graph, 0, lambda y: 0, 6)
        ext = unrolled_pairs(traj, 10)
        assert ext.tolist() == [0, 2] * 5
