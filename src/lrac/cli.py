"""Command line front end: solve, sweep, verify.

solve computes the full value panel for one start state (finite-horizon
averages, discounted values, measure and certificate program values, the
reachable minimum mean cycle, a feedback policy) and reports the bracket
lower bound <= V_T <= perturbed upper bound per horizon.  sweep emits one
CSV row per parameter point.  verify runs the internal consistency suite
and exits nonzero on the first violated invariant.

Exit codes: 0 success, 1 failed invariant or non-viable problem, 2 usage
or schema errors, 3 a solver failed (simplex iteration limit, a program
reported infeasible or unbounded, or a DP loop that did not converge).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .builtin import make_problem
from .dp import (
    Trajectory,
    greedy_policy,
    rollout,
    value_iteration_avg,
    value_iteration_discounted,
)
from .measures import (
    chebyshev_basis,
    discounted_occupational_measure,
    discounted_residual,
    membership_W,
    membership_W_alpha,
    occupational_measure,
    stationarity_residual,
)
from .optimality import (
    certificate_residuals,
    check_necessary_periodic,
    extract_feedback,
)
from .problem import (
    ControlProblem,
    ProblemFormatError,
    ViabilityViolation,
    build_graph,
    load_problem,
)
from .programs import (
    k_membership,
    pair_from_process,
    pair_residuals,
    project_to_W,
    solve_dual,
    solve_primal,
    solve_q_form,
    sup_over_K,
    v_per,
)

__all__ = ["main", "cmd_solve", "cmd_sweep", "cmd_verify"]

BUILTINS = ("toy", "threestate", "random")


def _resolve_problem(args: argparse.Namespace) -> ControlProblem:
    if args.problem in BUILTINS:
        return make_problem(
            args.problem,
            n_states=args.states,
            n_actions=args.actions,
            seed=args.seed,
        )
    return load_problem(args.problem)


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _horizon_trajectory(graph, y0: int, policy: np.ndarray) -> Trajectory:
    """Unroll from y0 the horizon-T policy table of value_iteration_avg."""
    T = policy.shape[0]
    states = np.empty(T + 1, dtype=int)
    pairs = np.empty(T, dtype=int)
    y = int(y0)
    states[0] = y
    for t in range(T):
        g = int(policy[t, y])
        pairs[t] = g
        y = int(graph.pair_succ[g])
        states[t + 1] = y
    return Trajectory(
        graph=graph,
        states=states,
        actions=graph.pair_action[pairs],
        pairs=pairs,
        costs=graph.pair_cost[pairs],
    )


def cmd_solve(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    graph = build_graph(problem)
    y0 = args.y0
    if not 0 <= y0 < problem.n_states:
        raise ValueError(f"y0 must be a state index in [0, {problem.n_states})")
    T_list = _parse_ints(args.T)
    alpha_list = _parse_floats(args.alpha)
    theta_list = _parse_floats(args.theta)
    M = graph.cost_bound

    dual = solve_dual(graph, y0)
    primal = solve_primal(graph, y0)
    cycle = v_per(graph, y0)
    feedback = extract_feedback(graph, dual.cert.eta)
    chain = []
    v_values = {}
    for T in sorted(set(T_list)):
        vT = value_iteration_avg(graph, T)(y0)
        v_values[str(T)] = vT
        upper = solve_primal(graph, y0, 2.0 * M / T).value
        chain.append(
            {
                "T": T,
                "lower": dual.value,
                "V_T": vT,
                "upper": upper,
                "lower_ok": dual.value <= vT + 1e-7,
                "upper_ok": vT <= upper + 1e-7,
            }
        )
    result = {
        "problem": problem.name,
        "n_states": problem.n_states,
        "n_pairs": graph.n_pairs,
        "cost_bound": M,
        "y0": y0,
        "y0_state": [float(c) for c in problem.states[y0]],
        "V_T": v_values,
        "h_alpha": {
            str(a): value_iteration_discounted(graph, a)(y0)
            for a in sorted(set(alpha_list))
        },
        "k_star": primal.value,
        "k_star_theta": {
            str(t): solve_primal(graph, y0, t).value for t in sorted(set(theta_list))
        },
        "d_star": dual.value,
        "sup_over_K": sup_over_K(graph, y0),
        "v_per": cycle.to_dict(),
        "certificate": dual.cert.to_dict(),
        "cap_dual": primal.cap_dual,
        "feedback": [int(u) for u in feedback],
        "feedback_actions": [problem.actions[int(u)] for u in feedback],
        "chain": chain,
    }
    if args.format == "csv":
        rows = [
            [r["T"], r["lower"], r["V_T"], r["upper"], r["lower_ok"], r["upper_ok"]]
            for r in chain
        ]
        _emit(_csv_text(["T", "lower", "V_T", "upper", "lower_ok", "upper_ok"], rows), args.out)
    else:
        _emit(json.dumps(result, indent=2), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    graph = build_graph(problem)
    y0 = args.y0
    if not 0 <= y0 < problem.n_states:
        raise ValueError(f"y0 must be a state index in [0, {problem.n_states})")
    d_star = solve_dual(graph, y0).value
    basis = chebyshev_basis(graph)
    rows = []
    if args.sweep == "T":
        for T in sorted(set(_parse_ints(args.values))):
            vf, policy = value_iteration_avg(graph, T, want_policy=True)
            value = vf(y0)
            traj = _horizon_trajectory(graph, y0, policy)
            dist = project_to_W(occupational_measure(traj), basis).distance
            rows.append([float(T), value, value - d_star, dist])
    elif args.sweep == "alpha":
        steps = 3 * problem.n_states + 8
        for alpha in sorted(set(_parse_floats(args.values))):
            vf = value_iteration_discounted(graph, alpha)
            traj = rollout(graph, y0, greedy_policy(graph, vf), steps)
            m = discounted_occupational_measure(traj, alpha)
            dist = project_to_W(m, basis).distance
            rows.append([alpha, vf(y0), vf(y0) - d_star, dist])
    else:
        for theta in sorted(set(_parse_floats(args.values))):
            res = solve_primal(graph, y0, theta)
            dist = project_to_W(res.pair.gamma, basis).distance
            rows.append([theta, res.value, res.value - d_star, dist])
    header = ["parameter", "value", "gap_to_dstar", "distance_to_W"]
    if args.format == "json":
        _emit(
            json.dumps([dict(zip(header, row)) for row in rows], indent=2), args.out
        )
    else:
        _emit(_csv_text(header, rows), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    results: list[tuple[str, bool, str]] = []
    try:
        graph = build_graph(problem)
        results.append(("viability", True, "every state has an admissible action"))
    except ViabilityViolation as exc:
        results.append(("viability", False, f"ViabilityViolation: {exc}"))
        _print_verify_table(results)
        return 1
    y0 = args.y0
    if not 0 <= y0 < problem.n_states:
        raise ValueError(f"y0 must be a state index in [0, {problem.n_states})")
    n, M = problem.n_states, graph.cost_bound
    scale = 1.0 + M

    dual = solve_dual(graph, y0)
    primal = solve_primal(graph, y0)
    cycle = v_per(graph, y0)
    spread = max(
        abs(primal.value - dual.value),
        abs(cycle.value - dual.value),
        abs(sup_over_K(graph, y0) - dual.value),
    )
    results.append(
        ("value agreement", spread <= 1e-6 * scale, f"max spread {spread:.3e}")
    )

    ok = True
    detail = []
    for T in (10, 100):
        vT = value_iteration_avg(graph, T)(y0)
        upper = solve_primal(graph, y0, 2.0 * M / T).value
        lower = dual.value - 2.0 * M * (n - 1) / T
        ok = ok and (lower - 1e-7 <= vT <= upper + 1e-7)
        detail.append(f"T={T}: {lower:.6g} <= {vT:.6g} <= {upper:.6g}")
    results.append(("horizon bracketing", ok, "; ".join(detail)))

    pair = pair_from_process(cycle.process)
    res = pair_residuals(pair, y0)
    ok = (
        membership_W(pair.gamma, 1e-9)
        and res["stationarity"] <= 1e-9
        and res["transfer_balance"] <= 1e-9
    )
    results.append(
        (
            "cycle measure stationarity",
            ok,
            f"stationarity {res['stationarity']:.2e}, "
            f"transfer balance {res['transfer_balance']:.2e}",
        )
    )

    alpha = 0.9
    vf = value_iteration_discounted(graph, alpha)
    traj = rollout(graph, y0, greedy_policy(graph, vf), 3 * n + 8)
    m = discounted_occupational_measure(traj, alpha)
    res_d = discounted_residual(m, alpha, y0)
    results.append(
        (
            "discounted measure balance",
            membership_W_alpha(m, alpha, y0, 1e-9),
            f"residual {res_d:.2e}",
        )
    )

    feas = certificate_residuals(graph, y0, dual.cert)
    worst = max(feas.values())
    report = check_necessary_periodic(cycle.process, dual.cert, dual.value, y0)
    ok = worst <= 1e-7 and not report.inconsistent
    results.append(
        (
            "certificate consistency",
            ok,
            f"feasibility {worst:.2e}, inconsistent={report.inconsistent}",
        )
    )

    q = solve_q_form(graph, y0)
    results.append(
        (
            "certificate class membership",
            k_membership(graph, q.psi, 1e-7),
            f"psi from the potential program, value {q.value:.6g}",
        )
    )

    _print_verify_table(results)
    failing = [name for name, ok, _ in results if not ok]
    if failing:
        print(f"first failing invariant: {failing[0]}")
        return 1
    return 0


def _print_verify_table(results: list[tuple[str, bool, str]]) -> None:
    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        print(f"{tag}  {name.ljust(width)}  {detail}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--problem",
        required=True,
        help="builtin name (toy, threestate, random) or a problem JSON path",
    )
    sub.add_argument("--y0", type=int, required=True, help="start state index")
    sub.add_argument("--states", type=int, default=8, help="random: number of states")
    sub.add_argument("--actions", type=int, default=3, help="random: number of actions")
    sub.add_argument("--seed", type=int, default=0, help="random: generator seed")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrac",
        description="Long-run average optimal control on finite graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="full value panel for one start state")
    _add_common(solve)
    solve.add_argument("--T", default="4,16,64", help="comma list of horizons")
    solve.add_argument("--alpha", default="0.9", help="comma list of discount factors")
    solve.add_argument("--theta", default="", help="comma list of transfer prices")
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.set_defaults(func=cmd_solve)

    sweep = subs.add_parser("sweep", help="one row per parameter point")
    _add_common(sweep)
    sweep.add_argument("--sweep", choices=("T", "alpha", "theta"), required=True)
    sweep.add_argument("--values", required=True, help="comma list of sweep points")
    sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    sweep.set_defaults(func=cmd_sweep)

    verify = subs.add_parser("verify", help="run the consistency suite")
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ViabilityViolation as exc:
        print(f"ViabilityViolation: {exc}", file=sys.stderr)
        return 1
    except (ProblemFormatError, FileNotFoundError) as exc:
        print(f"problem input rejected: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # IterationLimit, PrimalInfeasible and DualUnbounded subclass it
        print(f"solver failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
