"""The in-package simplex solver: hand fixtures, random programs, duals,
degenerate cases, and status classification."""

import numpy as np
import pytest

from lrac import (
    InaccurateSolution,
    IterationLimit,
    LinearProgram,
    LpSolution,
    build_graph,
    chebyshev_basis,
    discounted_occupational_measure,
    greedy_policy,
    kkt_residuals,
    occupational_measure,
    project_to_W,
    random_problem,
    rollout,
    solve,
    solve_primal,
    toy_problem,
    value_iteration_discounted,
)
from lrac import simplex
from lrac.cli import main

from conftest import policy_trajectory


def _assert_kkt(lp, sol, tol=1e-8):
    res = kkt_residuals(lp, sol)
    worst = max(res.values())
    assert worst <= tol, res
    return res


class TestHandFixtures:
    def test_one_dim(self):
        lp = LinearProgram(c=np.array([3.0]), A=np.array([[2.0]]), b=np.array([4.0]))
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(6.0)
        assert sol.x.tolist() == [2.0]

    def test_classic_two_var(self):
        # min -x - 2y s.t. x + y + s1 = 4, y + s2 = 3
        lp = LinearProgram(
            c=np.array([-1.0, -2.0, 0.0, 0.0]),
            A=np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]),
            b=np.array([4.0, 3.0]),
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-7.0)
        assert sol.x[:2].tolist() == [1.0, 3.0]
        _assert_kkt(lp, sol)

    def test_free_variable_goes_negative(self):
        # min x with x free and x = -3 forced
        lp = LinearProgram(
            c=np.array([1.0]),
            A=np.array([[1.0]]),
            b=np.array([-3.0]),
            free=np.array([True]),
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.x.tolist() == [-3.0]
        _assert_kkt(lp, sol)

    def test_redundant_rows_tolerated(self):
        lp = LinearProgram(
            c=np.array([1.0, 2.0]),
            A=np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
            b=np.array([1.0, 2.0, 3.0]),
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)
        _assert_kkt(lp, sol)

    def test_degenerate_vertex(self):
        # three constraints meet at the optimum; the lexicographic ratio test must cope
        lp = LinearProgram(
            c=np.array([-1.0, -1.0, 0.0, 0.0, 0.0]),
            A=np.array(
                [
                    [1.0, 0.0, 1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 1.0, 0.0],
                    [1.0, 1.0, 0.0, 0.0, 1.0],
                ]
            ),
            b=np.array([1.0, 1.0, 2.0]),
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-2.0)
        _assert_kkt(lp, sol)

    def test_zero_objective(self):
        # the second program has no columns: its one row, 0 = 0, is redundant
        for lp in (
            LinearProgram(c=np.zeros(2), A=np.array([[1.0, 1.0]]), b=np.array([1.0])),
            LinearProgram(c=np.zeros(0), A=np.zeros((1, 0)), b=np.array([0.0])),
        ):
            sol = solve(lp)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(0.0)
            assert sol.x.shape == (lp.n_vars,)

    def test_beale_cycling_example(self):
        # Beale's example in Chvatal's form: started from its first three
        # columns, Dantzig's rule cycles on it with either plain tie-break
        # (lowest basic index or topmost row)
        lp = LinearProgram(
            c=np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0]),
            A=np.array(
                [
                    [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                    [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
                ]
            ),
            b=np.array([0.0, 0.0, 1.0]),
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.25)
        assert sol.x == pytest.approx([0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        _assert_kkt(lp, sol)

    def test_kuhn_cycling_example(self):
        # Kuhn's example: started from its slack columns, Dantzig's rule
        # cycles on it when ties leave from the topmost row
        lp = LinearProgram(
            c=np.array([-2.0, -3.0, 1.0, 12.0, 0.0, 0.0, 0.0]),
            A=np.array(
                [
                    [-2.0, -9.0, 1.0, 9.0, 1.0, 0.0, 0.0],
                    [1.0 / 3.0, 1.0, -1.0 / 3.0, -2.0, 0.0, 1.0, 0.0],
                    [2.0, 3.0, -1.0, -12.0, 0.0, 0.0, 1.0],
                ]
            ),
            b=np.array([0.0, 0.0, 2.0]),
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-2.0)
        _assert_kkt(lp, sol)


class TestStatuses:
    def test_infeasible_contradictory(self):
        lp = LinearProgram(
            c=np.array([1.0]), A=np.array([[1.0], [1.0]]), b=np.array([1.0, 2.0])
        )
        sol = solve(lp)
        assert sol.status == "infeasible"
        assert sol.phase1_objective > 1e-9
        assert sol.x is None and sol.y is None and sol.objective is None

    def test_infeasible_zero_equals_one(self):
        lp = LinearProgram(
            c=np.array([1.0, 1.0]),
            A=np.array([[1.0, 1.0], [0.0, 0.0]]),
            b=np.array([1.0, 1.0]),
        )
        assert solve(lp).status == "infeasible"

    def test_infeasible_negative_mass(self):
        lp = LinearProgram(
            c=np.array([0.0, 0.0]), A=np.array([[1.0, 1.0]]), b=np.array([-1.0])
        )
        assert solve(lp).status == "infeasible"

    def test_unbounded_ray(self):
        lp = LinearProgram(
            c=np.array([0.0, -1.0]), A=np.array([[1.0, 0.0]]), b=np.array([1.0])
        )
        assert solve(lp).status == "unbounded"

    def test_unbounded_free_variable(self):
        lp = LinearProgram(
            c=np.array([1.0, 0.0]),
            A=np.array([[0.0, 1.0]]),
            b=np.array([1.0]),
            free=np.array([True, False]),
        )
        assert solve(lp).status == "unbounded"

    def test_iteration_limit_raises(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 14))
        x0 = rng.uniform(1.0, 2.0, size=14)
        lp = LinearProgram(c=rng.normal(size=14), A=A, b=A @ x0)
        with pytest.raises(IterationLimit):
            solve(lp, max_iter=1)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(c=np.zeros(3), A=np.zeros((2, 2)), b=np.zeros(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(c=np.array([np.nan]), A=np.ones((1, 1)), b=np.ones(1))


def _random_bounded_lp(rng):
    """Feasible by construction; bounded either through a pinned total
    mass row or through nonnegative costs on a nonnegative cone."""
    m = int(rng.integers(1, 9))
    n = int(rng.integers(m, m + 12))
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 2.0, size=n)
    b = A @ x0
    if rng.uniform() < 0.5:
        A = np.vstack([np.ones(n), A])
        b = np.concatenate([[x0.sum()], b])
        c = rng.normal(size=n)
        # half of these ask for max c'x, stated as min -c'x
        return LinearProgram(c=c if rng.uniform() < 0.5 else -c, A=A, b=b)
    return LinearProgram(c=rng.uniform(0.0, 1.0, size=n), A=A, b=b)


class TestRandomPrograms:
    def test_random_suite_solves_with_tight_kkt(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            lp = _random_bounded_lp(rng)
            sol = solve(lp)
            assert sol.status == "optimal"
            _assert_kkt(lp, sol)

    def test_duals_price_rhs_perturbations(self):
        # moving b along a random direction moves the optimum at rate y'db
        rng = np.random.default_rng(7)
        n = 6
        A = np.vstack([np.ones(n), rng.normal(size=(2, n))])
        x0 = rng.uniform(0.5, 1.5, size=n)
        b = A @ x0
        c = rng.normal(size=n)
        lp = LinearProgram(c=c, A=A, b=b)
        sol = solve(lp)
        assert sol.status == "optimal"
        db = rng.normal(size=3) * 1e-6
        sol2 = solve(LinearProgram(c=c, A=A, b=b + db))
        predicted = sol.objective + float(sol.y @ db)
        assert sol2.objective == pytest.approx(predicted, abs=1e-9)

    def test_phase1_iterations_counted(self):
        # every program here starts on artificials, so phase 1 pivots
        rng = np.random.default_rng(11)
        for _ in range(50):
            sol = solve(_random_bounded_lp(rng))
            assert sol.status == "optimal"
            assert 0 < sol.phase1_iterations <= sol.iterations

    def test_deterministic_given_input(self):
        rng = np.random.default_rng(3)
        lp = _random_bounded_lp(rng)
        a = solve(lp)
        bsol = solve(lp)
        assert a.status == bsol.status == "optimal"
        assert np.array_equal(a.x, bsol.x)
        assert a.iterations == bsol.iterations


def _projection_lp(graph, weights, basis):
    """The split-gap projection program of project_to_W, stated directly:
    rows mass, n stationarity and J gaps over columns (gamma, d+, d-)."""
    n, P, J = graph.n_states, graph.n_pairs, basis.size
    A = np.zeros((1 + n + J, P + 2 * J))
    A[0, :P] = 1.0
    np.add.at(A, (1 + graph.pair_succ, np.arange(P)), 1.0)
    np.add.at(A, (1 + graph.pair_state, np.arange(P)), -1.0)
    A[n + 1 :, :P] = basis.matrix
    A[n + 1 :, P : P + J] = -np.eye(J)
    A[n + 1 :, P + J :] = np.eye(J)
    b = np.concatenate([[1.0], np.zeros(n), basis.matrix @ weights])
    c = np.concatenate([np.zeros(P), basis.weights, basis.weights])
    return LinearProgram(c=c, A=A, b=b)


def _degenerate_lp(rng, gaps):
    """A small integer program with a pinned mass row and a sparse feasible
    point, so many basic values are zero and ratio-test ties are exact; with
    gaps, every row but the mass row also holds a -e_i, +e_i pair."""
    m = int(rng.integers(3, 10))
    n = int(rng.integers(m + 2, 3 * m + 2))
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    x0 = np.where(rng.uniform(size=n) < 0.3, rng.integers(1, 3, size=n), 0).astype(float)
    A = np.vstack([np.ones(n), A])
    b = A @ x0
    c = rng.integers(-3, 4, size=n).astype(float)
    if gaps:
        A = np.hstack([A, -np.eye(m + 1)[:, 1:], np.eye(m + 1)[:, 1:]])
        c = np.concatenate([c, np.ones(2 * m)])
    return LinearProgram(c=c, A=A, b=b)


def _lexsort_row(Binv, tied, colvals):
    """The tie-break as a full np.lexsort over every B^-1 column."""
    tied = tied[colvals[tied] >= 1e-6 * colvals[tied].max()]
    R = Binv[tied] / colvals[tied, None]
    return int(tied[np.lexsort(R.T[::-1])[0]])


class TestLexicographic:
    def test_degenerate_projection_terminates(self):
        # The split-gap projection program of a stationary gamma (the measure
        # program's optimum on random n = 20, seed 2, from y0 = 0): every gap
        # is zero at the optimum, so the program is thoroughly degenerate.
        # With lowest-index tie breaking the solve runs into its iteration
        # limit.
        graph = build_graph(random_problem(20, 3, 2))
        gamma = solve_primal(graph, 0).pair.gamma
        lp = _projection_lp(graph, gamma.weights, chebyshev_basis(graph))
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective <= 1e-9
        assert sol.x.min() >= 0.0

    def test_tiny_tied_pivot_is_skipped(self):
        # The split-gap projection of the discounted measure that
        # `lrac sweep --problem random --states 30 --seed 5 --y0 1 --sweep
        # alpha` builds at alpha = 0.99.  Roundoff of 1e-17 in B^-1 once
        # made the lexicographic rule pick a 1.5e-9 pivot among tied rows
        # whose largest pivot was 2.9e5, and the "optimal" gamma then
        # missed the probability simplex by 0.74.
        scipy_optimize = pytest.importorskip("scipy.optimize")
        graph = build_graph(random_problem(30, 3, 5))
        y0, alpha = 1, 0.99
        vf = value_iteration_discounted(graph, alpha)
        steps = 3 * graph.n_states + 8
        traj = rollout(graph, y0, greedy_policy(graph, vf), steps)
        measure = discounted_occupational_measure(traj, alpha)
        lp = _projection_lp(graph, measure.weights, chebyshev_basis(graph))
        sol = solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.x[: graph.n_pairs].sum() - 1.0) <= 1e-9
        ref = scipy_optimize.linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-9

    def test_identical_tied_rows_pick_the_lowest(self):
        # over their pivots, rows 1 and 3 of B^-1 are equal and smallest;
        # row 0's pivot is below 1e-6 of the largest and is passed over
        Binv = np.array([[0, 0, 0, 1], [0, 2, 0, 2], [0, 3, 0, 1], [0, 4, 0, 4]], dtype=float)
        colvals = np.array([1e-9, 2.0, 1.0, 4.0])
        assert simplex._lex_min_row(Binv, np.array([0, 1, 2, 3]), colvals) == 1
        assert simplex._lex_min_row(Binv, np.array([1, 3]), colvals) == 1
        assert simplex._lex_min_row(Binv, np.array([2, 3]), colvals) == 3
        # one row left after the small pivot is dropped: no column differs
        assert simplex._lex_min_row(Binv, np.array([0, 1]), colvals) == 1

    def test_narrowing_matches_full_lexsort(self, monkeypatch):
        # at every tie of every solve, the narrowed row is the full lexsort's
        real = simplex._lex_min_row
        seen = []

        def checked(Binv, tied, colvals):
            i = real(Binv, tied, colvals)
            assert i == _lexsort_row(Binv, tied, colvals)
            seen.append(tied.size)
            return i

        monkeypatch.setattr(simplex, "_lex_min_row", checked)
        rng = np.random.default_rng(19)
        for k in range(80):
            sol = solve(_degenerate_lp(rng, gaps=k % 2 == 1))
            assert sol.status in ("optimal", "unbounded")
        graph = build_graph(random_problem(10, 3, 0))
        basis = chebyshev_basis(graph, J=16)
        for y0 in range(4):
            measure = occupational_measure(policy_trajectory(graph, y0, 16))
            lp = _projection_lp(graph, measure.weights, basis)
            assert solve(lp).status == "optimal"
        assert len(seen) >= 200 and max(seen) >= 5, (len(seen), max(seen))


class TestGapRowCrash:
    def test_gap_rows_start_on_their_slacks(self):
        # every row holds a -e_i, +e_i pair, so the first basis is feasible
        # whatever the signs of b and phase 1 makes no pivot
        rng = np.random.default_rng(4)
        F = rng.normal(size=(5, 7))
        b = rng.normal(size=5)
        lp = LinearProgram(
            c=np.concatenate([np.zeros(7), np.full(10, 1.0)]),
            A=np.hstack([F, -np.eye(5), np.eye(5)]),
            b=b,
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.phase1_iterations == 0
        _assert_kkt(lp, sol)

    def test_lone_unit_columns_keep_their_artificials(self):
        # column 1 is e_0 with no -e_0 partner, so row 0 starts on its
        # artificial; crashing lone columns too changes solve_primal's pivot path
        lp = LinearProgram(c=np.array([1.0, 3.0]), A=np.array([[2.0, 1.0]]), b=np.array([1.0]))
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.phase1_iterations > 0

    def test_projection_takes_fewer_pivots(self):
        # the projection of toy's T = 16 measure from y0 = 0
        graph = build_graph(toy_problem())
        measure = occupational_measure(policy_trajectory(graph, 0, 16))
        res = project_to_W(measure, chebyshev_basis(graph))
        assert 0 < res.iterations < 188, res.iterations


# The one single-row sweep found, over random n = 20 to 120, seeds 0-7,
# y0 = 0 and n/2, T = 4, 16 and alpha = 0.9, 0.99, whose projection still
# misses A x = b through roundoff in the updated B^-1 and x_B: the T = 4
# measure of random n = 120, seed 1, y0 = 0.
_REREAD_SWEEP = [
    "sweep", "--problem", "random", "--states", "120", "--seed", "1",
    "--y0", "0", "--sweep", "T", "--values", "4",
]


@pytest.fixture
def reread_lp(monkeypatch):
    """A program whose final basis is re-read, checked to be so here, so the
    tests below cannot lose their trigger silently.  Its right-hand side is
    of order 1e8, where relative roundoff of 1e-16 in the updated x_B
    misses A x = b by more than FEAS_TOL."""
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 14))
    x0 = rng.uniform(0.0, 2.0, size=14)
    lp = LinearProgram(c=rng.uniform(0.0, 1.0, size=14), A=A, b=1e8 * (A @ x0))
    real, calls = simplex._factor, []

    def counting(A_ext, b, cols):
        calls.append(cols.shape)
        return real(A_ext, b, cols)

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_factor", counting)
        assert solve(lp).status == "optimal"
    assert calls == [(6,)], "the fixture no longer re-reads its final basis"
    return lp


class TestFinalBasisReread:
    def test_negative_basic_value_is_a_solver_failure(self, reread_lp, monkeypatch):
        # one read below -FEAS_TOL must not be clamped away
        real = simplex._factor

        def low(A_ext, b, cols):
            Binv, x_B = real(A_ext, b, cols)
            x_B[0] = -1e-6
            return Binv, x_B

        monkeypatch.setattr(simplex, "_factor", low)
        with pytest.raises(InaccurateSolution, match="final basis is not primal feasible"):
            solve(reread_lp)

    def test_singular_basis_is_a_solver_failure(self, reread_lp, monkeypatch):
        # LinAlgError is a ValueError, which the CLI would report as a usage error
        def singular(A_ext, b, cols):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(simplex, "_factor", singular)
        with pytest.raises(InaccurateSolution, match="Singular matrix"):
            solve(reread_lp)

    def test_singular_basis_exits_3(self, monkeypatch, capsys):
        calls = []

        def singular(A_ext, b, cols):
            calls.append(cols.shape)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(simplex, "_factor", singular)
        code = main(_REREAD_SWEEP)
        captured = capsys.readouterr()
        assert calls, "the sweep's projection no longer re-reads its final basis"
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("solver failed: InaccurateSolution: ")


class TestWarmStart:
    """solve(lp, basis=...) keeps an offered basis, with no pivot, only if
    it is optimal for lp; anything else is solved cold."""

    # min -x1 - 2 x2 s.t. x1 + s1 = 1, x2 + s2 = 1: columns x1, x2, s1, s2,
    # then the artificials 4 and 5; the optimal basis is {x1, x2}
    BOX = LinearProgram(
        c=np.array([-1.0, -2.0, 0.0, 0.0]),
        A=np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]),
        b=np.ones(2),
    )

    def test_own_final_basis_is_kept(self):
        rng = np.random.default_rng(42)
        lps = [(lp, 1e-12) for lp in [self.BOX, *(_random_bounded_lp(rng) for _ in range(30))]]
        # the cold y of toy's projection carries the roundoff of its 150-odd
        # updates of B^-1, 1.9e-12 here
        graph = build_graph(toy_problem())
        measure = occupational_measure(policy_trajectory(graph, 0, 16))
        lps.append((_projection_lp(graph, measure.weights, chebyshev_basis(graph)), 1e-11))
        for lp, y_tol in lps:
            cold = solve(lp)
            warm = solve(lp, basis=cold.basis)
            assert warm.status == "optimal" and warm.iterations == 0
            assert np.array_equal(warm.basis, cold.basis)
            assert np.abs(warm.x - cold.x).max() <= 1e-12
            assert np.abs(warm.y - cold.y).max() <= y_tol
            assert warm.objective == pytest.approx(cold.objective, abs=1e-12)

    @pytest.mark.parametrize(
        "basis",
        [
            np.array([0]),  # wrong shape
            np.array([0, 1, 2]),
            np.array([0, 6]),  # out of range
            np.array([-1, 0]),
            np.array([0.0, 1.0]),  # not integers
            np.array([1, 1]),  # repeated
            np.array([0, 2]),  # x1 and s1 are both e_0: singular
            np.array([4, 5]),  # artificials at level 1
            np.array([2, 3]),  # feasible (x = 0), not optimal
        ],
    )
    def test_refused_basis_solves_cold(self, basis):
        cold = solve(self.BOX)
        sol = solve(self.BOX, basis=basis)
        assert sol.iterations == cold.iterations > 0
        assert np.array_equal(sol.x, cold.x) and np.array_equal(sol.y, cold.y)
        assert np.array_equal(sol.basis, cold.basis)

    def test_dual_feasible_primal_infeasible_basis_solves_cold(self):
        # min x1 + x2 s.t. x1 - 2 x2 = t: {x1} is optimal at t = 1; at t = -1
        # it stays dual feasible but reads x1 = -1
        A, c = np.array([[1.0, -2.0]]), np.array([1.0, 1.0])
        other = solve(LinearProgram(c=c, A=A, b=np.array([1.0])))
        assert other.basis.tolist() == [0]
        lp = LinearProgram(c=c, A=A, b=np.array([-1.0]))
        cold = solve(lp)
        sol = solve(lp, basis=other.basis)
        assert sol.iterations == cold.iterations > 0
        assert np.array_equal(sol.x, cold.x) and sol.objective == cold.objective == 0.5
