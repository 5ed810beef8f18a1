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
    value_iteration_avg,
    value_iteration_discounted,
)
from lrac.cli import _horizon_trajectory, main


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
        # three constraints meet at the optimum; Bland fallback must cope
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
        lp = LinearProgram(
            c=np.zeros(2), A=np.array([[1.0, 1.0]]), b=np.array([1.0])
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0)


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


class TestLexicographic:
    def test_degenerate_projection_terminates(self):
        # The split-gap projection program of a stationary gamma (the measure
        # program's optimum on random n = 20, seed 2, from y0 = 0), stated
        # directly: every gap is zero at the optimum, so the program is
        # thoroughly degenerate.  With lowest-index tie breaking the solve
        # runs into its iteration limit.
        graph = build_graph(random_problem(20, 3, 2))
        gamma = solve_primal(graph, 0).pair.gamma
        basis = chebyshev_basis(graph)
        n, P, J = graph.n_states, graph.n_pairs, basis.size
        A = np.zeros((1 + n + J, P + 2 * J))
        A[0, :P] = 1.0
        np.add.at(A, (1 + graph.pair_succ, np.arange(P)), 1.0)
        np.add.at(A, (1 + graph.pair_state, np.arange(P)), -1.0)
        A[n + 1 :, :P] = basis.matrix
        A[n + 1 :, P : P + J] = -np.eye(J)
        A[n + 1 :, P + J :] = np.eye(J)
        b = np.concatenate([[1.0], np.zeros(n), basis.matrix @ gamma.weights])
        c = np.concatenate([np.zeros(P), basis.weights, basis.weights])
        sol = solve(LinearProgram(c=c, A=A, b=b), lexicographic=True)
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
        basis = chebyshev_basis(graph)
        n, P, J = graph.n_states, graph.n_pairs, basis.size
        A = np.zeros((1 + n + J, P + 2 * J))
        A[0, :P] = 1.0
        np.add.at(A, (1 + graph.pair_succ, np.arange(P)), 1.0)
        np.add.at(A, (1 + graph.pair_state, np.arange(P)), -1.0)
        A[n + 1 :, :P] = basis.matrix
        A[n + 1 :, P : P + J] = -np.eye(J)
        A[n + 1 :, P + J :] = np.eye(J)
        b = np.concatenate([[1.0], np.zeros(n), basis.matrix @ measure.weights])
        c = np.concatenate([np.zeros(P), basis.weights, basis.weights])
        sol = solve(LinearProgram(c=c, A=A, b=b), lexicographic=True)
        assert sol.status == "optimal"
        assert abs(sol.x[:P].sum() - 1.0) <= 1e-9
        ref = scipy_optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-9


def _reread_measure():
    # The projection of the T = 64 horizon measure of random n = 30, seed 1,
    # from y0 = 1 misses A x = b through tableau roundoff, so its basic
    # values are re-read from the final basis.
    graph = build_graph(random_problem(30, 3, 1))
    _, policy = value_iteration_avg(graph, 64, want_policy=True)
    return graph, occupational_measure(_horizon_trajectory(graph, 1, policy))


def _singular(B, rhs):
    raise np.linalg.LinAlgError("Singular matrix")


class TestFinalBasisReread:
    def test_negative_basic_value_is_a_solver_failure(self, monkeypatch):
        # one read below -FEAS_TOL must not be clamped away
        graph, measure = _reread_measure()
        real = np.linalg.solve

        def low(B, rhs):
            x = real(B, rhs)
            x[0] = -1e-6
            return x

        monkeypatch.setattr(np.linalg, "solve", low)
        with pytest.raises(InaccurateSolution, match="final basis is not primal feasible"):
            project_to_W(measure, chebyshev_basis(graph))

    def test_singular_basis_is_a_solver_failure(self, monkeypatch):
        # LinAlgError is a ValueError, which the CLI would report as a usage error
        graph, measure = _reread_measure()
        monkeypatch.setattr(np.linalg, "solve", _singular)
        with pytest.raises(InaccurateSolution, match="Singular matrix"):
            project_to_W(measure, chebyshev_basis(graph))

    def test_singular_basis_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "solve", _singular)
        argv = [
            "sweep", "--problem", "random", "--states", "30", "--seed", "1",
            "--y0", "1", "--sweep", "T", "--values", "64",
        ]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failed: InaccurateSolution: ")
