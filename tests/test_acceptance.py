"""Top-level acceptance gate.

Each test prints one PASS/FAIL line (outside capture, so the verdicts
always reach the terminal) and then asserts.  The bracketing criterion
checks the lower link that the certificate proves at a finite horizon:
summing the dual constraints along a T-step walk from y0, with psi never
below psi(y0) on it, gives d* - S_eta/T <= V_T, where S_eta is the span
of eta over the states reachable from y0 above eta(y0).  The link is
tight (V_T meets it when the optimal transient runs through edges
cheaper than d*), so the test keeps a 1e-7 slack on top of it.  The
coarser transient allowance 2M(n-1)/T is covered in test_programs.py.
"""

import time

import numpy as np
import pytest

from lrac import (
    DualCertificate,
    build_graph,
    check_necessary_periodic,
    check_sufficient,
    discounted_occupational_measure,
    k_membership,
    kkt_residuals,
    membership_W_alpha,
    occupational_measure,
    pairing,
    rollout,
    solve,
    solve_dual,
    solve_primal,
    solve_q_form,
    threestate_problem,
    toy_problem,
    v_per,
    value_iteration_avg,
    value_iteration_discounted,
)
from lrac.simplex import LinearProgram

from conftest import (
    CHAIN_HORIZONS,
    SEEDS,
    discounted_pairing_brute,
    min_mean_cycle_brute,
)
from test_simplex import _random_bounded_lp


@pytest.fixture
def report(capfd):
    def _report(number: int, ok: bool, detail: str) -> bool:
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {number}: {verdict} ({detail})", flush=True)
        return ok

    return _report


def test_01_toy_horizon_values_closed_form(toy_graph, report):
    start = time.perf_counter()
    grid = toy_graph.problem.states[:, 0]
    worst = 0.0
    for T in range(1, 65):
        vf = value_iteration_avg(toy_graph, T)
        for i, y in enumerate(grid):
            expected = -y + 2.0 * y / T if y > 0 else y
            worst = max(worst, abs(vf(i) - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(
        1, ok, f"worst deviation {worst:.2e}, {elapsed:.2f}s for T=1..64"
    )


def test_02_toy_strong_duality(toy_graph, report):
    start = time.perf_counter()
    grid = toy_graph.problem.states[:, 0]
    worst = 0.0
    for i, y in enumerate(grid):
        k = solve_primal(toy_graph, i).value
        d = solve_dual(toy_graph, i).value
        worst = max(worst, abs(k + abs(y)), abs(d + abs(y)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 5.0
    assert report(
        2, ok, f"worst |value + |y0|| = {worst:.2e}, {elapsed:.2f}s for 21 states"
    )


def test_03_value_bracketing_at_stated_slack(value_panel, report):
    lower_bad = 0
    upper_bad = 0
    checks = 0
    worst_ratio = 0.0
    for entry in value_panel:
        for row in entry["rows"]:
            span = row["eta_span"]
            for T in CHAIN_HORIZONS:
                checks += 1
                gap = row["d"] - row["V"][T]
                if not row["d"] - span / T - 1e-7 <= row["V"][T]:
                    lower_bad += 1
                if gap > 0.0 and span > 0.0:
                    worst_ratio = max(worst_ratio, T * gap / span)
                if not row["V"][T] <= row["upper"][T] + 1e-7:
                    upper_bad += 1
    ok = lower_bad == 0 and upper_bad == 0
    assert report(
        3,
        ok,
        f"{checks} checks: lower link d* - S_eta/T violated {lower_bad}x "
        f"(worst T(d* - V_T)/S_eta {worst_ratio:.6f}), "
        f"upper link violated {upper_bad}x",
    ), "finite-horizon values leave the certificate bracket"


def test_04_perturbation_schedule(value_panel, report):
    bad = 0
    checks = 0
    for entry in value_panel:
        M = entry["M"]
        for row in entry["rows"]:
            uppers = [row["upper"][T] for T in CHAIN_HORIZONS]
            for earlier, later in zip(uppers, uppers[1:]):
                checks += 1
                if later > earlier + 1e-8:
                    bad += 1
            C = row["xi_mass"]
            for T in CHAIN_HORIZONS:
                checks += 1
                if abs(row["upper"][T] - row["k"]) > 2.0 * M * C / T + 1e-7:
                    bad += 1
    ok = bad == 0
    assert report(4, ok, f"{checks} monotonicity and gap-bound checks, {bad} failed")


def test_05_four_way_agreement_small_instances(random_graphs, report):
    small = [g for g in random_graphs if g.n_states <= 8]
    bad = 0
    checks = 0
    for graph in small:
        T = 10**4
        vf = value_iteration_avg(graph, T)
        slack = 2.0 * graph.cost_bound / T + 1e-6
        for y0 in range(graph.n_states):
            checks += 1
            cycle = v_per(graph, y0).value
            brute = min_mean_cycle_brute(graph, y0)
            k = solve_primal(graph, y0).value
            d = solve_dual(graph, y0).value
            spread = max(cycle, brute, k, d) - min(cycle, brute, k, d)
            if spread > 1e-6 or abs(vf(y0) - cycle) > slack:
                bad += 1
    ok = bad == 0 and checks > 0
    assert report(
        5, ok, f"{len(small)} instances, {checks} start states, {bad} disagreements"
    )


def test_06_vanishing_discount(toy_graph, threestate_graph, report):
    alpha = 1.0 - 1e-4
    bad = 0
    worst_ratio = 0.0
    for graph in (toy_graph, threestate_graph):
        h = value_iteration_discounted(graph, alpha)
        bound = 5.0 * (1.0 - alpha) * graph.cost_bound * graph.n_states
        for y0 in range(graph.n_states):
            gap = abs(h(y0) - solve_dual(graph, y0).value)
            worst_ratio = max(worst_ratio, gap / bound)
            if gap > bound:
                bad += 1
    ok = bad == 0
    assert report(
        6, ok, f"worst gap at {worst_ratio:.1%} of the allowed bound, {bad} over"
    )


def test_07_measure_pairing_identities(random_graphs, report):
    rng = np.random.default_rng(2024)
    alphas = (0.5, 0.9, 0.99)
    bad = 0
    for trial in range(100):
        graph = random_graphs[trial % len(random_graphs)]
        n = graph.n_states
        table = np.array(
            [
                rng.choice(np.flatnonzero(graph.problem.successor[y] >= 0))
                for y in range(n)
            ]
        )
        y0 = int(rng.integers(n))
        traj = rollout(graph, y0, table, 3 * n + 8)
        q = rng.normal(size=graph.n_pairs)
        m = occupational_measure(traj)
        finite_gap = abs(
            pairing(q, m) - float(np.mean(q[traj.pairs]))
        )
        alpha = alphas[trial % 3]
        dm = discounted_occupational_measure(traj, alpha)
        disc_gap = abs(
            pairing(q, dm) - discounted_pairing_brute(traj, alpha, q)
        )
        if finite_gap > 1e-9 or disc_gap > 1e-9:
            bad += 1
        if not membership_W_alpha(dm, alpha, y0):
            bad += 1
    ok = bad == 0
    assert report(7, ok, f"100 trajectories, {bad} identity or membership failures")


def test_08_optimality_condition_checks(toy_graph, random_graphs, report):
    y = toy_graph.problem.states[:, 0]
    cert = DualCertificate(mu=-0.5, psi=-np.abs(y), eta=np.maximum(2.0 * y, 0.0))
    optimal = rollout(
        toy_graph, 15, lambda s: 0 if toy_graph.problem.states[s, 0] > 0 else 1, 12
    )
    accepts = check_sufficient(optimal, cert, -0.5, 15)
    stays = rollout(toy_graph, 15, lambda s: 1, 12)
    rejects = not check_sufficient(stays, cert, -0.5, 15)
    inconsistencies = 0
    for seed in SEEDS:
        graph = random_graphs[seed]
        y0 = seed % graph.n_states
        res = v_per(graph, y0)
        nec = check_necessary_periodic(
            res.process, solve_dual(graph, y0).cert, res.value, y0
        )
        if nec.inconsistent:
            inconsistencies += 1
    ok = accepts and rejects and inconsistencies == 0
    assert report(
        8,
        ok,
        f"toy accept={accepts}, reject={rejects}, "
        f"{inconsistencies} inconsistencies over 50 instances",
    )


def test_09_cone_representation(toy_graph, threestate_graph, random_graphs, report):
    bad = 0
    checks = 0
    for graph in (toy_graph, threestate_graph, *random_graphs):
        scale = 1.0 + graph.cost_bound
        for y0 in range(graph.n_states):
            checks += 1
            res = solve_q_form(graph, y0)
            d = solve_dual(graph, y0).value
            if abs(res.value - d) > 1e-7 * scale:
                bad += 1
            elif not k_membership(graph, res.psi):
                bad += 1
    ok = bad == 0
    assert report(9, ok, f"{checks} start states across all fixtures, {bad} failures")


def test_10_simplex_suite(report):
    rng = np.random.default_rng(77)
    worst = 0.0
    solved = 0
    for _ in range(200):
        lp = _random_bounded_lp(rng)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        solved += 1
        worst = max(worst, max(kkt_residuals(lp, sol).values()))
    infeasible = LinearProgram(
        c=np.array([1.0]), A=np.array([[1.0], [1.0]]), b=np.array([1.0, 2.0])
    )
    unbounded = LinearProgram(
        c=np.array([0.0, -1.0]), A=np.array([[1.0, 0.0]]), b=np.array([1.0])
    )
    classified = (
        solve(infeasible).status == "infeasible"
        and solve(unbounded).status == "unbounded"
    )
    ok = solved == 200 and worst <= 1e-8 and classified
    assert report(
        10,
        ok,
        f"{solved}/200 optimal, worst KKT residual {worst:.2e}, "
        f"statuses classified={classified}",
    )
