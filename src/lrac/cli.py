"""Command line front end: solve, sweep, verify.

solve computes the full value panel for one start state (finite-horizon
averages, discounted values, measure and certificate program values, the
reachable minimum mean cycle, a feedback policy) and reports the bracket
lower bound <= V_T <= perturbed upper bound per horizon.  The lower bound
is d* - S_eta/T, the link the certificate proves at horizon T, with S_eta
the largest rise of its eta potential from y0 to a reachable state; the
upper bound is k*(theta) at transfer price theta = 2M/T.
solve runs no LP: k*, d* and the certificate are v_per's primal point
and certificate, and it reports their residuals and duality gap, exiting
3 (InaccurateSolution) if any exceeds 1e-9 (1 + M).
sweep emits one CSV row per parameter point.  verify runs the internal
consistency suite, whose horizon row checks the same bracket as solve at
T = 10 and 100, and exits nonzero if an invariant is violated; its
certificate rows check both the measure program's certificate and
v_per's, and its certificate class row tests the q-form psi with
k_membership, a minimum mean cycle over the whole graph that solves no LP.
Every k*(theta), theta = 0 included (upper links, solve's --theta,
sweep's d* and its theta rows), is k_star_theta's minimum mean cycle,
which builds no program; solve and verify run the breadth-first search
from y0 once, in v_per, for all of them, and sweep runs it once too.
Only verify solves the theta = 0 measure program, once, over the states
that search reached, as its independent cross-check; a sweep's only LPs
are its projections onto W.  Each row's projection offers simplex.solve
the last row's optimal basis, kept with no pivot while it stays optimal,
so a sweep runs at most one cold solve per change of basis.  Every
command's first use of y0 is that search, which rejects a y0 outside
[0, n).
Every per-start layer runs on one sub-graph, that of the states the
search reached (problem._closed_subgraph, whose rows are the full
graph's there), built once per command right after it: by v_per in solve
and verify, whose Karp table and certificate come from it, by sweep
itself.  On it run every k*(theta), the discounted values with their
greedy policy's run, and the one dp._horizon_table per command, up to
its largest horizon, that every V_T is read off (solve's chain, verify's
horizon row, the rows of sweep --sweep T), each horizon first checked by
dp._check_horizon.  sweep --sweep T reads each horizon's optimal
trajectory off that table with dp._horizon_walk; that path and the
greedy run map their pairs back to the whole graph.  Whole-graph
questions stay whole-graph: k_membership, distance_to_W, and the
measures, certificate and feedback a command prints.
--out sends any command's report to a file instead of stdout, byte for
byte what stdout would have shown.

main builds its argparse parser once per process and reuses it: the
same graph is solved, verified or swept once per start state, so a
caller running many commands in one process would otherwise pay for a
parser per command.  The parser holds no command function.  main looks
cmd_solve, cmd_sweep or cmd_verify up in this module by name at call
time, so a rebinding of those names (a test's monkeypatch, a tracer's
wrapper) takes effect even after the parser was built.

Exit codes: 0 success, 1 failed invariant or non-viable problem, 2 usage
or schema errors, an unreadable problem file or an --out that cannot be
written, 3 a solver failed (simplex iteration limit, an inaccurate
solution, including a status other than optimal from a program that is
feasible and bounded by construction, or a DP loop that did not
converge).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from .builtin import make_problem
from .dp import (
    Trajectory,
    _check_horizon,
    _horizon_table,
    _horizon_walk,
    greedy_policy,
    rollout,
    value_iteration_discounted,
)
from .measures import (
    chebyshev_basis,
    discounted_occupational_measure,
    discounted_residual,
    membership_W,
    membership_W_alpha,
    occupational_measure,
    pairing,
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
    _closed_subgraph,
    build_graph,
    load_problem,
)
from .programs import (
    _check_optimum,
    _k_star_reached,
    _solve_primal_reached,
    k_membership,
    pair_from_process,
    pair_residuals,
    project_to_W,
    reachable_states,
    # Not called here; perfbench/selftest.py checks that the tracer
    # rebinds this module's reference to it.
    solve_dual,  # noqa: F401
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
    """Write a report, newline-terminated, to stdout or to the path out."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
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


def _horizon_table_upto(graph, horizons) -> np.ndarray:
    """dp._horizon_table up to the largest of horizons, each checked by
    dp._check_horizon: one pass of the recursion serves them all, as
    V_T = S[T] / T."""
    for T in horizons:
        _check_horizon(T)
    return _horizon_table(graph, max(horizons, default=0))


def _discounted_measure(graph, y0: int, reached, alpha: float):
    """h_alpha(y0), and the discounted measure on graph of its greedy run
    from y0, both computed on reached, the (sub, states, pairs) of
    _closed_subgraph for the states reachable from y0."""
    sub, states, pairs = reached
    start = int(np.searchsorted(states, y0))
    vf = value_iteration_discounted(sub, alpha)
    # The run's prefix is under n steps and its period at most n, and
    # detect_cycle needs two full periods after the prefix: 3n + 8 covers that.
    traj = rollout(sub, start, greedy_policy(sub, vf), 3 * sub.n_states + 8)
    traj = Trajectory.from_pairs(graph, pairs[traj.pairs])
    return vf(start), discounted_occupational_measure(traj, alpha)


def _chain(graph, y0: int, cycle, horizons) -> list[tuple[int, float, float, float]]:
    """(T, lower, V_T, upper) bracket rows, one per horizon, from the v_per
    result cycle.

    lower = d* - S_eta/T is the link its certificate proves, with S_eta
    the largest rise of eta from y0 to a reachable state; V_T is read off
    one horizon table over the reachable states, up to the largest T;
    upper is k*(theta) at transfer price theta = 2M/T, the cycle recursion
    on the same states.
    """
    cert = cycle.cert
    sub, states, _ = cycle.reached
    eta_span = float(np.max(cert.eta[states]) - cert.eta[y0])
    S = _horizon_table_upto(sub, horizons)
    start = int(np.searchsorted(states, y0))
    rows = []
    for T in horizons:
        vT = float(S[T, start] / T)
        upper = _k_star_reached(graph, cycle.reached, cycle.dist, 2.0 * graph.cost_bound / T).value
        rows.append((T, cert.mu - eta_span / T, vT, upper))
    return rows


def _optimality_residuals(graph, y0: int, cycle) -> tuple[float, dict[str, float], float]:
    """k*, the residuals and the duality gap of v_per's two optima.

    The primal point is pair_from_process of the witness, costing k* =
    <k, gamma>; the dual point is its certificate, with d* = mu.  Both
    feasible and k* = d* prove both optimal.  A residual or a gap above
    1e-9 (1 + M) raises simplex.InaccurateSolution.
    """
    pair = pair_from_process(cycle.process)
    k_star = pairing(graph.pair_cost, pair.gamma)
    residuals = {**pair_residuals(pair, y0), **certificate_residuals(graph, y0, cycle.cert)}
    gap = abs(k_star - cycle.cert.mu)
    _check_optimum(graph, "cycle optimum", {**residuals, "gap": gap})
    return k_star, residuals, gap


def cmd_solve(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    graph = build_graph(problem)
    y0 = args.y0
    T_list = _parse_ints(args.T)
    alpha_list = _parse_floats(args.alpha)
    theta_list = _parse_floats(args.theta)

    cycle = v_per(graph, y0)
    sub, states, _ = cycle.reached
    start = int(np.searchsorted(states, y0))
    cert = cycle.cert
    k_star, residuals, gap = _optimality_residuals(graph, y0, cycle)
    feedback = extract_feedback(graph, cert.eta)
    chain = [
        {
            "T": T,
            "lower": lower,
            "V_T": vT,
            "upper": upper,
            "lower_ok": lower <= vT + 1e-7,
            "upper_ok": vT <= upper + 1e-7,
        }
        for T, lower, vT, upper in _chain(graph, y0, cycle, sorted(set(T_list)))
    ]
    result = {
        "problem": problem.name,
        "n_states": problem.n_states,
        "n_pairs": graph.n_pairs,
        "cost_bound": graph.cost_bound,
        "y0": y0,
        "y0_state": [float(c) for c in problem.states[y0]],
        "V_T": {str(r["T"]): r["V_T"] for r in chain},
        "h_alpha": {
            str(a): value_iteration_discounted(sub, a)(start)
            for a in sorted(set(alpha_list))
        },
        "k_star": k_star,
        "k_star_theta": {
            str(t): _k_star_reached(graph, cycle.reached, cycle.dist, t).value
            for t in sorted(set(theta_list))
        },
        "d_star": cert.mu,
        "sup_over_K": float(cert.q_form_psi(y0)[y0]),
        "v_per": cycle.to_dict(),
        "certificate": cert.to_dict(),
        "residuals": residuals,
        "gap": gap,
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
    reach, hops, _ = reachable_states(graph, y0)
    sub, states, pairs = reached = _closed_subgraph(graph, y0, reach)
    d_star = _k_star_reached(graph, reached, hops, 0.0).value
    # The test-function basis is built the first time a row's measure is
    # off W, and only then: theta rows are cycle measures, and many alpha
    # and T rows sit on a cycle, so most sweeps never project.  Each
    # projection offers its optimal basis to the next one.
    basis = None
    last = None

    def distance_to_W(measure) -> float:
        nonlocal basis, last
        if membership_W(measure):
            return 0.0
        if basis is None:
            basis = chebyshev_basis(graph)
        last = project_to_W(measure, basis, warm=last)
        return last.distance

    rows = []
    if args.sweep == "T":
        horizons = sorted(set(_parse_ints(args.values)))
        S = _horizon_table_upto(sub, horizons)
        start = int(np.searchsorted(states, y0))
        for T in horizons:
            value = float(S[T, start] / T)
            traj = Trajectory.from_pairs(graph, pairs[_horizon_walk(sub, S, start, T)])
            dist = distance_to_W(occupational_measure(traj))
            rows.append([float(T), value, value - d_star, dist])
    elif args.sweep == "alpha":
        for alpha in sorted(set(_parse_floats(args.values))):
            h, m = _discounted_measure(graph, y0, reached, alpha)
            dist = distance_to_W(m)
            rows.append([alpha, h, h - d_star, dist])
    else:
        for theta in sorted(set(_parse_floats(args.values))):
            res = _k_star_reached(graph, reached, hops, theta)
            dist = distance_to_W(res.gamma)
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
        _emit(_verify_table(results), args.out)
        return 1
    y0 = args.y0
    scale = 1.0 + graph.cost_bound

    cycle = v_per(graph, y0)
    primal = _solve_primal_reached(graph, y0, cycle.reached, 0.0)
    cert = primal.cert
    q = primal.as_q_form()
    spread = max(
        abs(primal.value - cert.mu),
        abs(cycle.cert.mu - cert.mu),
        abs(q.value - cert.mu),
    )
    results.append(
        ("value agreement", spread <= 1e-6 * scale, f"max spread {spread:.3e}")
    )

    ok = True
    detail = []
    for T, lower, vT, upper in _chain(graph, y0, cycle, (10, 100)):
        ok = ok and (lower - 1e-7 <= vT <= upper + 1e-7)
        detail.append(f"T={T}: {lower:.6g} <= {vT:.6g} <= {upper:.6g}")
    results.append(("horizon bracketing", ok, "; ".join(detail)))

    pair = pair_from_process(cycle.process)
    res = pair_residuals(pair, y0)
    ok = res["stationarity"] <= 1e-9 and res["transfer_balance"] <= 1e-9
    results.append(
        (
            "cycle measure stationarity",
            ok,
            f"stationarity {res['stationarity']:.2e}, "
            f"transfer balance {res['transfer_balance']:.2e}",
        )
    )

    alpha = 0.9
    _, m = _discounted_measure(graph, y0, cycle.reached, alpha)
    res_d = discounted_residual(m, alpha, y0)
    results.append(
        (
            "discounted measure balance",
            membership_W_alpha(m, alpha, y0, 1e-9),
            f"residual {res_d:.2e}",
        )
    )

    certs = (cert, cycle.cert)
    worst = max(max(certificate_residuals(graph, y0, c).values()) for c in certs)
    inconsistent = any(
        check_necessary_periodic(cycle.process, c, c.mu, y0).inconsistent for c in certs
    )
    ok = worst <= 1e-7 and not inconsistent
    results.append(
        (
            "certificate consistency",
            ok,
            f"feasibility {worst:.2e}, inconsistent={inconsistent}",
        )
    )

    results.append(
        (
            "certificate class membership",
            k_membership(graph, q.psi, 1e-7),
            f"q-form psi from the measure program's row duals, value {q.value:.6g}",
        )
    )

    text = _verify_table(results)
    failing = [name for name, ok, _ in results if not ok]
    if failing:
        text += f"first failing invariant: {failing[0]}\n"
    _emit(text, args.out)
    return 1 if failing else 0


def _verify_table(results: list[tuple[str, bool, str]]) -> str:
    width = max(len(name) for name, _, _ in results)
    return "".join(
        f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}\n"
        for name, ok, detail in results
    )


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


@functools.cache
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

    sweep = subs.add_parser("sweep", help="one row per parameter point")
    _add_common(sweep)
    sweep.add_argument("--sweep", choices=("T", "alpha", "theta"), required=True)
    sweep.add_argument("--values", required=True, help="comma list of sweep points")
    sweep.add_argument("--format", choices=("json", "csv"), default="csv")

    verify = subs.add_parser("verify", help="run the consistency suite")
    _add_common(verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ViabilityViolation as exc:
        print(f"ViabilityViolation: {exc}", file=sys.stderr)
        return 1
    except ProblemFormatError as exc:
        print(f"problem input rejected: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # load_problem turns read errors into ProblemFormatError, so this
        # one comes from writing the report to --out
        print(f"output rejected: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # IterationLimit and InaccurateSolution subclass it
        print(f"solver failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a horizon table too large to allocate; numpy raises a private subclass
        print(f"solver failed: MemoryError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
