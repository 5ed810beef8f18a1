"""Linear programs for long-run average values, and cycle analysis.

Two finite programs bracket the long-run average optimal value from a
start state y0.  The primal one minimizes expected running cost over
stationary pair measures gamma that are reachable from y0, reachability
being witnessed by a nonnegative transfer flow xi:

    minimize   <k, gamma> + theta <1, xi>
    subject to gamma is a probability measure on admissible pairs,
               inflow(z) = marginal(z) for every state z,
               [z = y0] - marginal(z) + xi_inflow(z) - xi_outflow(z) = 0.

The dual program searches for a constant mu with a pair of potentials
(psi, eta) certifying that every admissible pair costs at least mu after
potential corrections, psi nondecreasing along the dynamics up to theta:

    maximize   mu
    subject to k(y,u) + psi(y0) - psi(y) + eta(f(y,u)) - eta(y) >= mu,
               psi(f(y,u)) - psi(y) >= -theta.

It is the LP dual of the measure program, so one simplex solve of the
measure program yields both sides.  Only states reachable from y0 can
carry gamma or xi: the transfer rows put gamma's mass only where the
unit leaving y0 arrives, and the reachable set R is closed under the
dynamics.  So solve_primal builds the program above over R alone, with
the same optimum: 2m + 1 rows (the mass row, stationarity for each of
the m states of R, transfer for each) over the 2Q columns (gamma, xi)
of the Q pairs of states in R, unbounded in xi but with objective at
least min k.  With y the row duals (b'y equal to the objective), the
optimal certificate on R is

    mu = y[0],   eta = -y[1 : m+1],   psi = -y[m+1 :];

gamma and xi are 0 off R, and off R the certificate is lifted to the
whole graph with eta = 0 and psi a constant low enough to satisfy every
pair there (see _lift_certificate).  The optimum is degenerate, so
another pivot path may return another, equally valid certificate.  Only
solve_primal builds a tableau; solve_dual and solve_q_form are views of
its result.

On a finite graph both optimal values agree with the minimum mean cost
over cycles reachable from y0, which v_per reads off dp's recursion.
v_per reads both optima off that recursion too: its witness gives the
feasible (gamma, xi) of pair_from_process, costing the cycle mean, and
its table a feasible certificate at that level, so equal objectives
prove both optimal without a program.
For theta > 0 the measure program's minimum still sits at gamma uniform
on one reachable cycle C, with xi carrying the unit of mass from y0
along shortest hop paths; k_star_theta reads that value as the minimum
mean of k + theta * hop(y0, .) over reachable cycles, off the same
recursion run on the sub-graph of the reachable states alone.
The q-form program is the dual with mu eliminated, maximizing psi(y0):

    maximize   psi(y0)
    subject to k(y,u) - psi(y) + eta(f(y,u)) - eta(y) >= 0,
               psi(f(y,u)) - psi(y) >= -theta.

Its optimum is the certificate shifted, psi + (mu - psi(y0)) with the
same eta, and its value is mu, for every theta >= 0.  At theta = 0 that
value is the largest w(y0) over functions w nondecreasing along the
dynamics whose expected slack k - w is nonnegative on every stationary
measure, the test implemented by k_membership.  Stationary measures are
the convex hull of uniform measures on simple cycles, so ergodic_inner_lp
reads that test's inner minimum off v_per's recursion, over every state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .dp import PeriodicProcess, _horizon_table, _horizon_walk
from .measures import (
    FlowMeasure,
    MetricBasis,
    OccupationalMeasure,
    membership_W,
    state_inflow,
    state_marginal,
    stationarity_residual,
)
from .problem import Graph, _closed_subgraph, _per_state
from . import simplex

__all__ = [
    "DualCertificate",
    "PrimalPair",
    "PrimalResult",
    "DualResult",
    "QFormResult",
    "ErgodicInnerResult",
    "VPerResult",
    "ProjectionResult",
    "PrimalInfeasible",
    "solve_primal",
    "k_star_theta",
    "solve_dual",
    "solve_q_form",
    "ergodic_inner_lp",
    "k_membership",
    "v_per",
    "project_to_W",
    "pair_from_process",
    "pair_residuals",
    "reachable_states",
]


class PrimalInfeasible(RuntimeError):
    """Defensive: the measure program cannot be infeasible on a viable graph."""


@dataclass(frozen=True)
class DualCertificate:
    """A dual feasible point: constant mu and state potentials psi, eta."""

    mu: float
    psi: np.ndarray
    eta: np.ndarray

    def q_form_psi(self, y0: int) -> np.ndarray:
        """psi shifted so that psi(y0) = mu: the q-form optimum's psi, with
        the same eta, when the certificate is optimal."""
        return self.psi + (self.mu - self.psi[y0])

    def to_dict(self) -> dict:
        return {
            "mu": float(self.mu),
            "psi": [float(v) for v in self.psi],
            "eta": [float(v) for v in self.eta],
        }


@dataclass(frozen=True)
class PrimalPair:
    """A primal feasible point: stationary measure plus transfer flow."""

    gamma: OccupationalMeasure
    xi: FlowMeasure


@dataclass(frozen=True)
class PrimalResult:
    """Both sides of one measure-program solve from y0: the optimal
    (gamma, xi) and the certificate read off the row duals, both over the
    whole graph.  residuals are the KKT residuals of the program actually
    solved, over the states reachable from y0, in units of the cost bound."""

    value: float
    pair: PrimalPair
    iterations: int
    residuals: dict[str, float]
    cert: DualCertificate
    y0: int

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "gamma": [float(w) for w in self.pair.gamma.weights],
            "xi": [float(w) for w in self.pair.xi.weights],
            "iterations": self.iterations,
            "residuals": self.residuals,
        }

    def as_dual(self) -> DualResult:
        """The certificate program's optimum; value d* = mu."""
        return DualResult(
            value=self.cert.mu,
            cert=self.cert,
            iterations=self.iterations,
            residuals=self.residuals,
        )

    def as_q_form(self) -> QFormResult:
        """The q-form optimum: psi shifted so that psi(y0) = mu, same eta."""
        psi = self.cert.q_form_psi(self.y0)
        return QFormResult(
            value=float(psi[self.y0]),
            psi=psi,
            eta=self.cert.eta,
            iterations=self.iterations,
        )


@dataclass(frozen=True)
class DualResult:
    value: float
    cert: DualCertificate
    iterations: int
    residuals: dict[str, float]


@dataclass(frozen=True)
class QFormResult:
    value: float
    psi: np.ndarray
    eta: np.ndarray
    iterations: int


@dataclass(frozen=True)
class ErgodicInnerResult:
    value: float
    gamma: OccupationalMeasure


@dataclass(frozen=True)
class VPerResult:
    """The minimum mean cycle reachable from y0 as a periodic process, the
    optimal certificate read off the same recursion, and the breadth-first
    search behind both: reach and dist as reachable_states returns them."""

    value: float
    process: PeriodicProcess
    cert: DualCertificate
    reach: np.ndarray
    dist: np.ndarray

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "prefix_pairs": [int(g) for g in self.process.prefix_pairs],
            "cycle_pairs": [int(g) for g in self.process.cycle_pairs],
            "period": self.process.period,
        }


@dataclass(frozen=True)
class ProjectionResult:
    distance: float
    nearest: OccupationalMeasure
    iterations: int


def _check_theta(theta: float) -> None:
    """Reject a transfer price that is not a finite number >= 0."""
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")


def _incidence(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Marginal and inflow indicator matrices of the pairs of graph, each
    (n_states, n_pairs), one column per pair in order."""
    cols = np.arange(graph.n_pairs)
    marg = np.zeros((graph.n_states, graph.n_pairs))
    inflow = np.zeros((graph.n_states, graph.n_pairs))
    marg[graph.pair_state, cols] = 1.0
    inflow[graph.pair_succ, cols] = 1.0
    return marg, inflow


def solve_primal(graph: Graph, y0: int, theta: float = 0.0) -> PrimalResult:
    """Minimum expected cost over stationary measures reachable from y0,
    the transfer flow priced at theta per unit.

    The program is the module docstring's, over the states reachable from
    y0 (see _solve_primal_reached), and the result also carries the
    optimal certificate read off its row duals, lifted to the whole graph.
    k_star_theta gives the same value at every theta, and v_per both
    optima at theta = 0, without a program, so the commands run this one
    only as verify's independent cross-check.
    """
    reach, _, _ = reachable_states(graph, y0)
    return _solve_primal_reached(graph, y0, _closed_subgraph(graph, y0, reach), theta)


def _solve_primal_reached(graph: Graph, y0: int, reached, theta: float) -> PrimalResult:
    """solve_primal from y0 over reached, problem._closed_subgraph's result
    for the states reachable_states(graph, y0) finds, so that verify's one
    breadth-first search and one sub-graph serve it.

    The program over a set of states has the full program's optimum when
    the set holds y0 and is closed under the dynamics (see the module
    docstring), which _closed_subgraph checks; the program's states, pairs
    and rows are read off its sub-graph.  gamma and xi are
    padded with zeros and validated as measures on the whole graph; one
    that misses its sign or mass constraint by more than roundoff raises
    simplex.InaccurateSolution.  So does an optimum whose dual or gap KKT
    residual, or whose lifted certificate's pair or monotone slack on the
    whole graph, exceeds 1e-9 (1 + M), naming the worst miss.

    The simplex prices c / M, M = graph.cost_bound (1 when every cost is 0),
    so its tolerances do not depend on the unit of cost; the value and the
    row duals are multiplied back by M, and residuals are relative to M.
    """
    _check_theta(theta)
    n = graph.n_states
    sub, states, pairs = reached
    m, Q = states.size, pairs.size
    M = graph.cost_bound or 1.0
    marg, inflow = _incidence(sub)
    A = np.zeros((2 * m + 1, 2 * Q))  # columns gamma, xi
    b = np.zeros(2 * m + 1)
    c = np.zeros(2 * Q)
    c[:Q] = sub.pair_cost / M
    c[Q:] = theta / M
    A[0, :Q] = 1.0
    b[0] = 1.0
    A[1 : m + 1, :Q] = inflow - marg
    A[m + 1 :, :Q] = -marg
    # [z = y0] enters through the total mass of gamma
    A[m + 1 + np.searchsorted(states, y0), :Q] += 1.0
    A[m + 1 :, Q:] = inflow - marg
    lp = simplex.LinearProgram(c=c, A=A, b=b)
    sol = simplex.solve(lp)
    if sol.status != "optimal":
        raise PrimalInfeasible(
            f"measure program for y0={y0}, theta={theta} returned {sol.status}"
        )
    gamma_w = np.zeros(graph.n_pairs)
    xi_w = np.zeros(graph.n_pairs)
    gamma_w[pairs] = sol.x[:Q]
    xi_w[pairs] = sol.x[Q:]
    try:
        gamma = OccupationalMeasure(graph=graph, weights=gamma_w)
        xi = FlowMeasure(graph=graph, weights=xi_w)
    except ValueError as exc:
        worst = max(-float(sol.x.min()), abs(float(sol.x[:Q].sum()) - 1.0))
        raise simplex.InaccurateSolution(
            f"measure program's (gamma, xi) misses its constraints by {worst:.3g} ({exc})"
        ) from None
    y = sol.y * M
    psi = np.zeros(n)
    eta = np.zeros(n)
    psi[states] = -y[m + 1 :]
    eta[states] = -y[1 : m + 1]
    inside = np.zeros(n, dtype=bool)
    inside[states] = True
    cert = _lift_certificate(graph, y0, float(y[0]), psi, eta, inside, theta)
    residuals = simplex.kkt_residuals(lp, sol)
    misses = {
        "dual": residuals["dual"] * M,
        "gap": residuals["gap"] * M,
        **certificate_residuals(graph, y0, cert, theta),
    }
    worst = max(misses, key=misses.get)
    tol = 1e-9 * (1.0 + graph.cost_bound)
    if not misses[worst] <= tol:
        raise simplex.InaccurateSolution(
            f"measure program's optimum exceeds {tol:.3g} in {worst} {misses[worst]:.3g}"
        )
    return PrimalResult(
        value=float(sol.objective) * M,
        pair=PrimalPair(gamma=gamma, xi=xi),
        iterations=sol.iterations,
        residuals=residuals,
        cert=cert,
        y0=int(y0),
    )


def k_star_theta(graph: Graph, y0: int, theta: float) -> ErgodicInnerResult:
    """The measure program's value at transfer price theta, with an optimal
    gamma, read off the cycle recursion instead of a tableau.

    It is the minimum mean of k + theta * hop(y0, .) over cycles reachable
    from y0 (see the module docstring), attained by the uniform measure on
    that cycle; the value is that cycle's mean of the shifted costs.
    """
    reach, dist, _ = reachable_states(graph, y0)
    return _k_star_reached(graph, _closed_subgraph(graph, y0, reach), dist, theta)


def _k_star_reached(graph: Graph, reached, dist: np.ndarray, theta: float) -> ErgodicInnerResult:
    """k_star_theta from y0, given the hop distances dist of
    reachable_states(graph, y0) and reached, _closed_subgraph's result for
    the states that search reached, so that one search and one sub-graph
    serve every theta.  The cycle recursion runs on that sub-graph, whose
    rows are the full graph's over the reached states.

    Raises ValueError for a theta so large that the recursion's N-step
    sums, of shifted costs at most M + theta N in size, could overflow.
    """
    _check_theta(theta)
    sub, states, pairs = reached
    N = states.size
    if not np.isfinite(2.0 * N * (graph.cost_bound + float(theta) * N)):
        raise ValueError(f"theta {theta:g} is too large: the cycle recursion would overflow")
    return _cycle_measure(graph, sub, pairs, theta * dist[graph.pair_state[pairs]])


def solve_dual(graph: Graph, y0: int, theta: float = 0.0) -> DualResult:
    """Best lower-bound constant mu with certifying potentials (psi, eta),
    read off the row duals of the measure program."""
    return solve_primal(graph, y0, theta).as_dual()


def solve_q_form(graph: Graph, y0: int, theta: float = 0.0) -> QFormResult:
    """Certificate program with the constant eliminated: maximize psi(y0)
    over psi nondecreasing along the dynamics up to theta, with eta
    absorbing cost slack, k - psi + eta(f) - eta >= 0 on every pair.
    Its optimum is the measure program's certificate with psi shifted.
    """
    return solve_primal(graph, y0, theta).as_q_form()


def ergodic_inner_lp(graph: Graph, w: np.ndarray) -> ErgodicInnerResult:
    """Minimum of <k - w, gamma> over stationary probability measures.

    It is the minimum mean cycle of k - w over the whole graph, attained by
    the uniform measure on that cycle.  w is a per-state array.
    """
    w = _per_state(graph, w, "w")
    return _cycle_measure(graph, graph, np.arange(graph.n_pairs), -w[graph.pair_state])


def k_membership(graph: Graph, w: np.ndarray, tol: float = 1e-7) -> bool:
    """Test membership of w in the certificate function class: w must be
    nondecreasing along the dynamics, within tol per pair, and k - w must
    have expectation >= -tol under every stationary measure.
    """
    w = _per_state(graph, w, "w")
    mono_violation = float(max(0.0, np.max(w[graph.pair_state] - w[graph.pair_succ])))
    if mono_violation > tol:
        return False
    return ergodic_inner_lp(graph, w).value >= -tol


def reachable_states(graph: Graph, y0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first reachability from y0.

    Returns (sorted reachable state indices, hop distance per state with -1
    for unreachable, discovering pair per state with -1 at y0 and
    unreachable states).  Neighbors are scanned in canonical pair order, so
    the discovery tree is deterministic.  Every per-start entry point
    searches first, so a y0 outside [0, n) raises ValueError here.
    """
    n = graph.n_states
    if not 0 <= y0 < n:
        raise ValueError(f"y0 must be a state index in [0, {n})")
    succ, offset = graph.pair_succ.tolist(), graph.state_offset.tolist()
    dist, pred_pair = [-1] * n, [-1] * n
    dist[y0] = 0
    queue = deque([int(y0)])
    while queue:
        y = queue.popleft()
        for g in range(offset[y], offset[y + 1]):
            z = succ[g]
            if dist[z] < 0:
                dist[z] = dist[y] + 1
                pred_pair[z] = g
                queue.append(z)
    dist = np.array(dist)
    return np.flatnonzero(dist >= 0), dist, np.array(pred_pair)


def _min_mean_cycle(graph: Graph, states: np.ndarray) -> tuple[list[int], float, np.ndarray]:
    """An optimal cycle among a closed set of states, its exact mean, and
    the (N + 1, n_states) table S of the recursion below, over every state.

    Karp's (1978) table on the reversed graph, from a source at every
    state, is dp's finite-horizon recursion: row k holds S_k(v), the
    cheapest k-step walk from v.  Walks from the N given states stay among
    them, so the full-graph rows are exact there, finite by viability, and
    Karp's theorem gives the optimal mean lam as the minimum over given v
    of max_{0 <= k < N} (S_N(v) - S_k(v)) / (N - k).

    The cycle is cut from dp._horizon_walk's N steps from the minimizing
    v, along the lowest argmin pairs.  Its N + 1 states repeat; cutting out
    the first cycle C leaves an (N - |C|)-step walk from v, so cost(C) <=
    S_N(v) - S_{N-|C|}(v) <= |C| lam and C is optimal (Chaturvedi &
    McConnell 2017).  A NaN in the given states' columns raises
    RuntimeError, from the walk or from the drift check.
    """
    N = states.size
    S = _horizon_table(graph, N)
    S_states = S[:, states]
    means = ((S_states[N] - S_states[:N]) / np.arange(N, 0, -1)[:, None]).max(axis=0)
    best_val = float(means.min())

    z = int(states[np.argmin(means)])
    walk = _horizon_walk(graph, S, z, N)
    seen, t = {}, 0
    while z not in seen:
        seen[z] = t
        z = int(graph.pair_succ[walk[t]])
        t += 1
    cycle = walk[seen[z] : t]
    mean = float(np.mean(graph.pair_cost[cycle]))
    if not abs(mean - best_val) <= 1e-6 * (1.0 + abs(best_val)):
        raise RuntimeError(
            f"cycle recovery drifted: table mean {best_val}, witness mean {mean}"
        )
    return cycle, mean, S


def _cycle_measure(
    graph: Graph, sub: Graph, pairs: np.ndarray, shift: np.ndarray
) -> ErgodicInnerResult:
    """_min_mean_cycle of the pair costs k + shift of sub, the graph of a
    closed set of states whose pair j is graph's pair pairs[j], with the
    uniform measure on that cycle as a measure on graph."""
    shifted = replace(sub, pair_cost=sub.pair_cost + shift)
    cycle, value, _ = _min_mean_cycle(shifted, np.arange(sub.n_states))
    weights = np.bincount(pairs[cycle], minlength=graph.n_pairs) / len(cycle)
    return ErgodicInnerResult(value=value, gamma=OccupationalMeasure(graph=graph, weights=weights))


def v_per(graph: Graph, y0: int) -> VPerResult:
    """Minimum mean cost over cycles reachable from y0, with a witness and
    an optimal certificate.

    The cycle is _min_mean_cycle's over the states reachable from y0; a
    shortest admissible path provides the prefix.  The returned value is
    the exact mean of the witness cycle.  The certificate comes from the
    same table S, with N reachable states (see _cycle_certificate); its
    mu is the value, so with pair_from_process(process), which costs the
    value, it proves both optimal without a program.
    """
    reach, dist, pred_pair = reachable_states(graph, y0)
    cycle, _, S = _min_mean_cycle(graph, reach)

    # Rotate the cycle to start at its state closest to y0, then attach the
    # breadth-first prefix.
    cycle_states = [int(graph.pair_state[g]) for g in cycle]
    start_pos = min(range(len(cycle)), key=lambda p: (dist[cycle_states[p]], cycle_states[p]))
    cycle = cycle[start_pos:] + cycle[:start_pos]
    start_state = int(graph.pair_state[cycle[0]])
    prefix: list[int] = []
    z = start_state
    while z != y0:
        g = int(pred_pair[z])
        prefix.append(g)
        z = int(graph.pair_state[g])
    prefix.reverse()

    process = PeriodicProcess(
        graph=graph,
        prefix_pairs=np.array(prefix, dtype=int),
        cycle_pairs=np.array(cycle, dtype=int),
    )
    mu = process.mean_cycle_cost
    return VPerResult(
        value=mu,
        process=process,
        cert=_cycle_certificate(graph, y0, S, mu, dist >= 0),
        reach=reach,
        dist=dist,
    )


def _cycle_certificate(
    graph: Graph, y0: int, S: np.ndarray, mu: float, reached: np.ndarray
) -> DualCertificate:
    """A feasible certificate at level mu, the minimum mean cycle over the
    reached states, read off _min_mean_cycle's table S of N + 1 rows, N
    the number of reached states.

    eta(v) = min over 0 <= k <= N of S_k(v) - k mu.  On a reached pair,
    k(y, u) + S_k(f) >= S_{k+1}(y) covers every k < N; a walk of N + 1
    steps from y repeats a state, and cutting out its cycles, each of mean
    at least mu, leaves a walk of j <= N steps with S_{N+1}(y) - (N+1) mu
    >= S_j(y) - j mu, which covers k = N.  So k + eta(f) - eta(y) >= mu.
    psi is 0 on the reached states and -L elsewhere (_lift_certificate at
    theta = 0), which lifts the pairs that leave an unreached state.
    """
    eta = np.min(S - mu * np.arange(S.shape[0])[:, None], axis=0)
    return _lift_certificate(graph, y0, mu, np.zeros(graph.n_states), eta, reached, 0.0)


def _lift_certificate(
    graph: Graph,
    y0: int,
    mu: float,
    psi: np.ndarray,
    eta: np.ndarray,
    reached: np.ndarray,
    theta: float,
) -> DualCertificate:
    """A certificate feasible at theta on every pair from one feasible on
    the pairs of the reached states, a set closed under the dynamics that
    holds y0: psi, 0 off that set, becomes -L there.

    L is one more than the worst deficit, on pairs that leave an unreached
    state, of the pair constraint k + psi(y0) - psi(y) + eta(f) - eta(y)
    >= mu and of the monotone constraint psi(f) - psi(y) >= -theta, both
    read at psi(y) = 0.  Lowering psi(y) to -L lifts both by L, and since
    no reached state leads out of the set, no other constraint changes.
    """
    off = ~reached[graph.pair_state]
    slack = graph.pair_cost + psi[y0] + eta[graph.pair_succ] - eta[graph.pair_state] - mu
    mono = psi[graph.pair_succ] + theta
    worst = min(np.min(slack, where=off, initial=0.0), np.min(mono, where=off, initial=0.0))
    return DualCertificate(mu=mu, psi=np.where(reached, psi, -(1.0 - float(worst))), eta=eta)


def pair_from_process(process: PeriodicProcess) -> PrimalPair:
    """Explicit feasible point of the start-constrained measure program
    built from a periodic process.

    gamma spreads uniformly over the cycle pairs.  The transfer flow puts
    weight 1 on each prefix pair and (p - 1 - j) / p on the j-th cycle
    pair, which routes one unit of mass from the start state to gamma's
    marginal; the per-state balance then telescopes to zero.
    """
    graph = process.graph
    p = process.period
    gamma_w = np.zeros(graph.n_pairs)
    np.add.at(gamma_w, process.cycle_pairs, 1.0 / p)
    xi_w = np.zeros(graph.n_pairs)
    np.add.at(xi_w, process.prefix_pairs, 1.0)
    np.add.at(xi_w, process.cycle_pairs, (p - 1.0 - np.arange(p)) / p)
    return PrimalPair(
        gamma=OccupationalMeasure(graph=graph, weights=gamma_w),
        xi=FlowMeasure(graph=graph, weights=xi_w),
    )


def pair_residuals(pair: PrimalPair, y0: int) -> dict[str, float]:
    """Feasibility residuals of a (gamma, xi) point: stationarity of gamma
    and the per-state start-transfer balance."""
    balance = (
        -state_marginal(pair.gamma)
        + state_inflow(pair.xi)
        - state_marginal(pair.xi)
    )
    balance[y0] += 1.0
    return {
        "stationarity": stationarity_residual(pair.gamma),
        "transfer_balance": float(np.max(np.abs(balance))),
    }


def certificate_residuals(
    graph: Graph, y0: int, cert: DualCertificate, theta: float = 0.0
) -> dict[str, float]:
    """Worst constraint violations of a certificate, as nonnegative reals.

    pair_slack: how far k + psi(y0) - psi(y) + eta(f) - eta(y) - mu dips
    below zero anywhere on the graph.  monotone_slack: how far
    psi(f) - psi(y) dips below -theta.  A mu that is not finite raises
    ValueError, as no slack can be read against it.
    """
    if not np.isfinite(cert.mu):
        raise ValueError("mu must be finite")
    psi = _per_state(graph, cert.psi, "psi")
    eta = _per_state(graph, cert.eta, "eta")
    slack = (
        graph.pair_cost
        + psi[y0]
        - psi[graph.pair_state]
        + eta[graph.pair_succ]
        - eta[graph.pair_state]
        - cert.mu
    )
    mono = psi[graph.pair_succ] - psi[graph.pair_state] + theta
    return {
        "pair_slack": float(max(0.0, -np.min(slack))),
        "monotone_slack": float(max(0.0, -np.min(mono))),
    }


def project_to_W(measure: OccupationalMeasure, basis: MetricBasis) -> ProjectionResult:
    """Distance from a measure to the stationary polytope, in the basis
    metric, together with a nearest stationary measure.

    A measure that already passes membership_W (stationarity residual at
    most 1e-9, the solver's feasibility tolerance) is its own nearest
    point: distance 0, no program built, iterations 0.  Otherwise the
    distance is the optimum of a program over (gamma, d+, d-) >= 0 with one
    row per test function,

        <f_j, gamma> - d+_j + d-_j = <f_j, measure>,

    at cost sum_j w_j (d+_j + d-_j); since every w_j > 0 an optimum never
    holds both parts of one gap, so it is the weighted sum of |gaps|.  The
    program is highly degenerate; the simplex's one pivot rule, with its
    lexicographic ratio test, cannot cycle on it.  Gap row j holds -e_j
    and +e_j (the columns of d+_j and d-_j), so the simplex starts it on
    a gap column rather than an artificial, and phase 1 carries
    artificials only for the mass and stationarity rows.  An optimal x
    that misses the probability simplex by more than roundoff raises
    InaccurateSolution.
    """
    if membership_W(measure):
        return ProjectionResult(distance=0.0, nearest=measure, iterations=0)
    graph = measure.graph
    n, P = graph.n_states, graph.n_pairs
    J = basis.size
    marg, inflow = _incidence(graph)
    A = np.zeros((1 + n + J, P + 2 * J))  # columns gamma, d+, d-
    A[0, :P] = 1.0
    A[1 : n + 1, :P] = inflow - marg
    A[n + 1 :, :P] = basis.matrix
    A[n + 1 :, P : P + J] = -np.eye(J)
    A[n + 1 :, P + J :] = np.eye(J)
    b = np.concatenate([[1.0], np.zeros(n), basis.matrix @ measure.weights])
    c = np.concatenate([np.zeros(P), basis.weights, basis.weights])
    sol = simplex.solve(simplex.LinearProgram(c=c, A=A, b=b))
    if sol.status != "optimal":
        raise PrimalInfeasible(f"projection program returned {sol.status}")
    gamma = sol.x[:P]
    try:
        nearest = OccupationalMeasure(graph=graph, weights=gamma)
    except ValueError as exc:
        worst = max(-float(gamma.min()), abs(float(gamma.sum()) - 1.0))
        raise simplex.InaccurateSolution(
            f"projection's nearest measure misses the simplex by {worst:.3g} ({exc})"
        ) from None
    return ProjectionResult(
        distance=float(sol.objective), nearest=nearest, iterations=sol.iterations
    )
