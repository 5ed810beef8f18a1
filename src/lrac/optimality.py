"""Optimality checks for admissible processes against dual certificates.

A certificate (mu, psi, eta) feasible for the lower-bound program proves
that no process started at y0 beats mu on long-run average.  A process
matches that bound exactly when two pointwise conditions hold along it:
the certificate inequality is tight at every step,

    k(y(t), u(t)) - psi(y(t)) + eta(f(y(t), u(t))) - eta(y(t))
        = V(y0) - psi(y0),

and psi is flat along the visited states, psi(y(t)) = psi(y0).  Tightness
at every step is sufficient for optimality of the process; for processes
that are periodic from time zero it is also necessary once the
certificate itself is optimal.  The eta potential doubles as a relative
value function.  Greedy minimization of k + eta(f) (extract_feedback)
picks, at every state that has one, a pair on which the certificate
inequality is tight, so a greedy run from y0 that meets only such states,
with psi flat along it, attains V(y0); eta's drift then accounts exactly
for the gap between its finite horizon averages and the limit value
(cost_gap_identity).  Not every state has a tight pair, so the greedy
feedback of an optimal certificate need not be optimal from y0: the cycle
recursion's eta(v) = min over k of S_k(v) - k mu has none at a state where
only k = 0 attains that minimum, y0 included when its transient costs
more than mu per step.

The checks take V(y0) as a plain number and psi and eta as arrays with one
finite entry per state; any other array, or a certificate whose mu is not
finite, raises ValueError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dp import PeriodicProcess, Trajectory, _segment_argmin_pair, _segment_min
from .problem import Graph, _per_state
from .programs import DualCertificate, _slacks, certificate_residuals

__all__ = [
    "InfeasibleCertificate",
    "NecessityReport",
    "certificate_residuals",
    "check_sufficient",
    "check_necessary_periodic",
    "extract_feedback",
    "cost_gap_identity",
]


class InfeasibleCertificate(ValueError):
    """The supplied (mu, psi, eta) violates the lower-bound constraints."""


def _condition_residuals(
    graph: Graph, pairs: np.ndarray, y0: int, cert: DualCertificate, value: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step residuals of the two optimality conditions along a pair
    sequence: tightness of the certificate inequality against the value
    at y0, and flatness of psi."""
    psi = _per_state(graph, cert.psi, "psi")
    eta = _per_state(graph, cert.eta, "eta")
    slack, _ = _slacks(graph, y0, value, psi, eta, 0.0)
    return np.abs(slack[pairs]), np.abs(psi[graph.pair_state[pairs]] - psi[y0])


def check_sufficient(
    process: Trajectory,
    cert: DualCertificate,
    V: float,
    y0: int,
    tol: float = 1e-7,
) -> bool:
    """Whether the recorded steps of a trajectory satisfy both optimality
    conditions for the given certificate and value V at y0.

    True means the process attains the long-run average V; tightness
    at every step makes the running cost telescope against eta.  Raises
    InfeasibleCertificate when the certificate itself violates the
    lower-bound constraints beyond tol, since the conditions certify
    nothing in that case.
    """
    graph = process.graph
    if int(process.states[0]) != int(y0):
        raise ValueError("trajectory does not start at y0")
    feas = certificate_residuals(graph, y0, cert)
    worst = max(feas["pair_slack"], feas["monotone_slack"])
    if worst > tol:
        raise InfeasibleCertificate(
            f"certificate violates the constraints by {worst:.3e}"
        )
    tight, flat = _condition_residuals(graph, process.pairs, y0, cert, float(V))
    return bool(tight.max() <= tol and flat.max() <= tol)


@dataclass(frozen=True)
class NecessityReport:
    """Outcome of testing the necessary conditions on a periodic process."""

    mean_cycle_cost: float
    value: float
    process_optimal: bool
    certificate_optimal: bool
    pure_periodic: bool
    conditions_hold: bool
    inconsistent: bool
    tight_residuals: tuple[float, ...]
    flat_residuals: tuple[float, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "mean_cycle_cost": self.mean_cycle_cost,
                "value": self.value,
                "process_optimal": self.process_optimal,
                "certificate_optimal": self.certificate_optimal,
                "pure_periodic": self.pure_periodic,
                "conditions_hold": self.conditions_hold,
                "inconsistent": self.inconsistent,
                "tight_residuals": list(self.tight_residuals),
                "flat_residuals": list(self.flat_residuals),
            }
        )


def check_necessary_periodic(
    process: PeriodicProcess,
    cert: DualCertificate,
    V: float,
    y0: int,
    tol: float = 1e-7,
) -> NecessityReport:
    """Test the necessary optimality conditions on a periodic process.

    The report records the mean cycle cost, whether it matches the value
    V at y0, and the per-step condition residuals over the prefix and one
    cycle.  For a process periodic from time zero, optimality of both the
    process and the certificate forces the conditions to hold; the
    inconsistent flag marks a violation of exactly that implication, so it
    stays False when the process needs a transient prefix or either side is
    suboptimal.
    """
    graph = process.graph
    value = float(V)
    mean = process.mean_cycle_cost
    pairs = np.concatenate([process.prefix_pairs, process.cycle_pairs])
    tight, flat = _condition_residuals(graph, pairs, y0, cert, value)
    conditions_hold = bool(tight.max() <= tol and flat.max() <= tol)
    process_optimal = abs(mean - value) <= tol
    certificate_optimal = abs(cert.mu - value) <= tol
    pure = process.prefix_pairs.size == 0 and int(process.start_state) == int(y0)
    return NecessityReport(
        mean_cycle_cost=float(mean),
        value=value,
        process_optimal=process_optimal,
        certificate_optimal=certificate_optimal,
        pure_periodic=pure,
        conditions_hold=conditions_hold,
        inconsistent=bool(
            process_optimal and certificate_optimal and pure and not conditions_hold
        ),
        tight_residuals=tuple(float(r) for r in tight),
        flat_residuals=tuple(float(r) for r in flat),
    )


def extract_feedback(graph: Graph, eta: np.ndarray) -> np.ndarray:
    """Greedy feedback from a relative value function, given as one value
    per state: per state, the lowest-index action minimizing
    k(y, u) + eta(f(y, u)).  For a certificate's eta that action is tight
    wherever the state has a tight pair, which does not make the feedback
    optimal (see the module docstring)."""
    eta = _per_state(graph, eta, "eta")
    lookahead = graph.pair_cost + eta[graph.pair_succ]
    best_pairs = _segment_argmin_pair(lookahead, _segment_min(lookahead, graph), graph)
    return graph.pair_action[best_pairs]


def cost_gap_identity(
    process: Trajectory, eta: np.ndarray, V: float, y0: int, T: int
) -> float:
    """Residual of the drift identity linking finite averages to the limit
    V at y0:

        (1/T) (eta(y(T)) - eta(y0))  vs  V - (1/T) sum of costs.

    Zero (up to tolerance) whenever the optimality conditions hold along
    the first T steps.
    """
    if not 0 < T <= process.pairs.size:
        raise ValueError("T must lie within the recorded horizon")
    if int(process.states[0]) != int(y0):
        raise ValueError("trajectory does not start at y0")
    eta = _per_state(process.graph, eta, "eta")
    drift = (eta[process.states[T]] - eta[y0]) / T
    avg = float(np.sum(process.costs[:T])) / T
    return float(abs(drift - (float(V) - avg)))
