"""Optimality certification: sufficient conditions along trajectories,
necessary conditions for periodic processes, feedback extraction, and the
transient cost identity."""

import json

import numpy as np
import pytest

from lrac import (
    ControlProblem,
    DualCertificate,
    InfeasibleCertificate,
    PeriodicProcess,
    build_graph,
    certificate_residuals,
    check_necessary_periodic,
    check_sufficient,
    cost_gap_identity,
    detect_cycle,
    ergodic_inner_lp,
    extract_feedback,
    k_membership,
    rollout,
    solve_dual,
    v_per,
    value_iteration_avg,
)

from conftest import SEEDS


def _toy_cert(toy_graph):
    y = toy_graph.problem.states[:, 0]
    return DualCertificate(
        mu=-0.5, psi=-np.abs(y), eta=np.maximum(2.0 * y, 0.0)
    )


def _toy_optimal_policy(toy_graph):
    def policy(y):
        return 0 if toy_graph.problem.states[y, 0] > 0 else 1

    return policy


class TestCertificateResiduals:
    def test_hand_certificate_feasible(self, toy_graph):
        res = certificate_residuals(toy_graph, 15, _toy_cert(toy_graph))
        assert res["pair_slack"] <= 1e-12
        assert res["monotone_slack"] <= 1e-12

    def test_inflated_level_infeasible(self, toy_graph):
        cert = _toy_cert(toy_graph)
        bumped = DualCertificate(mu=-0.3, psi=cert.psi, eta=cert.eta)
        res = certificate_residuals(toy_graph, 15, bumped)
        assert res["pair_slack"] == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_rejected(self, threestate_graph, mu):
        # max(0, nan) is 0, so a NaN level once read as zero slack and
        # passed check_sufficient's feasibility gate
        cert = DualCertificate(mu=mu, psi=np.zeros(3), eta=np.zeros(3))
        traj = rollout(threestate_graph, 0, lambda y: 0, 4)
        with pytest.raises(ValueError, match="mu must be finite"):
            certificate_residuals(threestate_graph, 0, cert)
        with pytest.raises(ValueError, match="mu must be finite"):
            check_sufficient(traj, cert, 2.0, 0)


class TestSufficiency:
    def test_toy_optimal_process_accepted(self, toy_graph):
        traj = rollout(toy_graph, 15, _toy_optimal_policy(toy_graph), 12)
        assert check_sufficient(traj, _toy_cert(toy_graph), -0.5, 15)

    def test_staying_put_rejected(self, toy_graph):
        # the self-loop at 0.5 leaves a residual of exactly one each step
        traj = rollout(toy_graph, 15, lambda y: 1, 6)
        assert not check_sufficient(traj, _toy_cert(toy_graph), -0.5, 15)

    def test_constant_cost_trivial_certificate(self):
        g = build_graph(
            ControlProblem(
                name="const",
                states=np.array([[0.0], [1.0]]),
                actions=("a",),
                successor=np.array([[1], [0]]),
                cost=np.array([[0.75], [0.75]]),
            )
        )
        cert = DualCertificate(mu=0.75, psi=np.zeros(2), eta=np.zeros(2))
        traj = rollout(g, 0, lambda y: 0, 9)
        assert check_sufficient(traj, cert, 0.75, 0)

    def test_infeasible_certificate_raises(self, toy_graph):
        cert = _toy_cert(toy_graph)
        bumped = DualCertificate(mu=0.0, psi=cert.psi, eta=cert.eta)
        traj = rollout(toy_graph, 15, _toy_optimal_policy(toy_graph), 5)
        with pytest.raises(InfeasibleCertificate):
            check_sufficient(traj, bumped, -0.5, 15)

    def test_start_state_checked(self, toy_graph):
        traj = rollout(toy_graph, 14, _toy_optimal_policy(toy_graph), 5)
        with pytest.raises(ValueError, match="start"):
            check_sufficient(traj, _toy_cert(toy_graph), -0.5, 15)

    def test_solver_certificate_also_accepts(self, toy_graph):
        cert = solve_dual(toy_graph, 15).cert
        traj = rollout(toy_graph, 15, _toy_optimal_policy(toy_graph), 12)
        assert check_sufficient(traj, cert, -0.5, 15)

    def test_soundness_bound(self, toy_graph):
        # accepted certificate forces the rollout mean within 2 max|eta| / T
        cert = _toy_cert(toy_graph)
        eta_span = 2.0 * float(np.max(np.abs(cert.eta)))
        for T in (4, 16, 64):
            traj = rollout(toy_graph, 15, _toy_optimal_policy(toy_graph), T)
            assert check_sufficient(traj, cert, -0.5, 15)
            avg = float(traj.costs.mean())
            assert abs(avg - (-0.5)) <= eta_span / T + 1e-12


class TestNecessity:
    def test_toy_optimal_cycle(self, toy_graph):
        proc = v_per(toy_graph, 15).process
        cert = solve_dual(toy_graph, 15).cert
        report = check_necessary_periodic(proc, cert, -0.5, 15)
        assert report.process_optimal
        assert report.certificate_optimal
        assert report.pure_periodic is False  # reaching prefix present
        assert not report.inconsistent

    def test_threestate_optimal_cycle(self, threestate_graph):
        proc = PeriodicProcess(
            graph=threestate_graph,
            prefix_pairs=np.array([], dtype=int),
            cycle_pairs=np.array([0, 2]),
        )
        cert = solve_dual(threestate_graph, 0).cert
        report = check_necessary_periodic(proc, cert, 2.0, 0)
        assert report.mean_cycle_cost == pytest.approx(2.0)
        assert report.process_optimal
        assert report.pure_periodic
        assert report.conditions_hold
        assert not report.inconsistent

    def test_threestate_suboptimal_loop(self, threestate_graph):
        proc = PeriodicProcess(
            graph=threestate_graph,
            prefix_pairs=np.array([], dtype=int),
            cycle_pairs=np.array([3]),
        )
        cert = solve_dual(threestate_graph, 1).cert
        report = check_necessary_periodic(proc, cert, 2.0, 1)
        assert report.mean_cycle_cost == pytest.approx(5.0)
        assert not report.process_optimal
        assert not report.inconsistent

    def test_report_serializes(self, threestate_graph):
        proc = PeriodicProcess(
            graph=threestate_graph,
            prefix_pairs=np.array([], dtype=int),
            cycle_pairs=np.array([0, 2]),
        )
        cert = solve_dual(threestate_graph, 0).cert
        report = check_necessary_periodic(proc, cert, 2.0, 0)
        data = json.loads(report.to_json())
        assert data["mean_cycle_cost"] == pytest.approx(2.0)
        assert len(data["tight_residuals"]) == 2
        assert len(data["flat_residuals"]) == 2
        assert data["inconsistent"] is False

    def test_no_inconsistency_on_random_sample(self, random_graphs):
        for seed in SEEDS[:12]:
            graph = random_graphs[seed]
            y0 = seed % graph.n_states
            res = v_per(graph, y0)
            cert = solve_dual(graph, y0).cert
            report = check_necessary_periodic(res.process, cert, res.value, y0)
            assert report.process_optimal
            assert not report.inconsistent


class TestFeedback:
    def test_toy_signs(self, toy_graph):
        y = toy_graph.problem.states[:, 0]
        fb = extract_feedback(toy_graph, np.maximum(2.0 * y, 0.0))
        for i, yval in enumerate(y):
            if yval > 0:
                assert toy_graph.problem.actions[fb[i]] == "-1"
            elif yval < 0:
                assert toy_graph.problem.actions[fb[i]] == "+1"

    def test_zero_eta_is_myopic(self, threestate_graph):
        fb = extract_feedback(threestate_graph, np.zeros(3))
        assert fb.tolist() == [1, 0, 0]

    def test_threestate_rollout_achieves_cycle_value(self, threestate_graph):
        eta = solve_dual(threestate_graph, 0).cert.eta
        fb = extract_feedback(threestate_graph, eta)
        traj = rollout(threestate_graph, 0, fb, 17)
        t0, p = detect_cycle(traj.pairs)
        mean = float(traj.costs[t0 : t0 + p].mean())
        assert mean == pytest.approx(2.0, abs=1e-9)

    def test_rollout_never_beats_cycle_optimum(self, random_graphs):
        # any admissible rollout settles on a reachable cycle
        for graph in random_graphs[:15]:
            eta = solve_dual(graph, 0).cert.eta
            fb = extract_feedback(graph, eta)
            traj = rollout(graph, 0, fb, 3 * graph.n_states + 8)
            t0, p = detect_cycle(traj.pairs)
            mean = float(traj.costs[t0 : t0 + p].mean())
            assert mean >= v_per(graph, 0).value - 1e-9

    def test_eta_length_checked(self, threestate_graph):
        with pytest.raises(ValueError):
            extract_feedback(threestate_graph, np.zeros(2))


class TestCostGapIdentity:
    def test_toy_transient_term(self, toy_graph):
        # V(y0) minus the eta drift reproduces the finite-horizon values
        y = toy_graph.problem.states[:, 0]
        eta = np.maximum(2.0 * y, 0.0)
        policy = _toy_optimal_policy(toy_graph)
        for T in (1, 4, 16, 64):
            traj = rollout(toy_graph, 15, policy, T)
            assert cost_gap_identity(traj, eta, -0.5, 15, T) <= 1e-12
            vf = value_iteration_avg(toy_graph, T)
            assert vf(15) == pytest.approx(-0.5 + 1.0 / T, abs=1e-12)

    def test_fixed_point_zero_eta(self, threestate_graph):
        traj = rollout(threestate_graph, 2, lambda y: 0, 6)
        assert cost_gap_identity(traj, np.zeros(3), 4.0, 2, 6) == pytest.approx(0.0)

    def test_horizon_validated(self, threestate_graph):
        traj = rollout(threestate_graph, 2, lambda y: 0, 4)
        with pytest.raises(ValueError):
            cost_gap_identity(traj, np.zeros(3), 4.0, 2, 5)
        with pytest.raises(ValueError):
            cost_gap_identity(traj, np.zeros(3), 4.0, 2, 0)

    def test_start_state_validated(self, threestate_graph):
        traj = rollout(threestate_graph, 2, lambda y: 0, 4)
        with pytest.raises(ValueError):
            cost_gap_identity(traj, np.zeros(3), 4.0, 0, 4)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.zeros(2), "must assign a value to every state"),
            (np.zeros(4), "must assign a value to every state"),
            (np.array([0.0, np.nan, 0.0]), "must be finite"),
        ],
        ids=["short", "long", "nan"],
    )
    def test_eta_length_checked(self, threestate_graph, bad, error):
        # every entry point that takes one value per state, this one
        # included, rejects an array of another length or a NaN entry
        g = threestate_graph
        traj = rollout(g, 2, lambda y: 0, 4)
        proc = PeriodicProcess(
            graph=g, prefix_pairs=np.array([], dtype=int), cycle_pairs=np.array([0, 2])
        )
        ok = np.zeros(3)
        calls = [
            ("w", lambda: ergodic_inner_lp(g, bad)),
            ("w", lambda: k_membership(g, bad)),
            ("eta", lambda: extract_feedback(g, bad)),
            ("eta", lambda: cost_gap_identity(traj, bad, 4.0, 2, 4)),
        ]
        for name, psi, eta in (("psi", bad, ok), ("eta", ok, bad)):
            cert = DualCertificate(mu=4.0, psi=psi, eta=eta)
            calls += [
                (name, lambda cert=cert: certificate_residuals(g, 2, cert)),
                (name, lambda cert=cert: check_sufficient(traj, cert, 4.0, 2)),
                (name, lambda cert=cert: check_necessary_periodic(proc, cert, 2.0, 0)),
            ]
        for name, call in calls:
            with pytest.raises(ValueError, match=f"{name} {error}"):
                call()
