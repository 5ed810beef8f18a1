"""Occupational measures on the pair graph and a metric between them.

A measure here is a weight per admissible pair in the canonical pair
order.  Time averages of trajectories give occupational measures; the
discounted analogue sums (1 - alpha) alpha^t along a trajectory, with the
infinite tail taken in closed form over the detected cycle.  Distances
between measures are weighted sums of pairing gaps over a fixed sequence
of bounded test functions, Chebyshev polynomials in the state coordinates
times action indicators by default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dp import Trajectory, _check_alpha
from .problem import Graph

__all__ = [
    "OccupationalMeasure",
    "FlowMeasure",
    "MetricBasis",
    "EmptySet",
    "NoCycleDetected",
    "occupational_measure",
    "discounted_occupational_measure",
    "detect_cycle",
    "chebyshev_basis",
    "basis_from_functions",
    "pairing",
    "rho",
    "hausdorff",
    "membership_W",
    "membership_W_alpha",
    "stationarity_residual",
    "discounted_residual",
    "state_marginal",
    "state_inflow",
    "measure_to_json",
    "measure_from_json",
]


class EmptySet(ValueError):
    """Raised when a set operation receives no measures."""


class NoCycleDetected(ValueError):
    """Raised when a trajectory never settles into a repeating pair pattern."""


def _checked_weights(graph: Graph, weights) -> np.ndarray:
    """Pair weights as a read-only array clamped at zero; raises ValueError
    unless there is one finite entry >= -1e-12 per admissible pair."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (graph.n_pairs,):
        raise ValueError("weights must have one entry per admissible pair")
    if np.min(w) < -1e-12 or not np.all(np.isfinite(w)):
        raise ValueError("weights must be nonnegative and finite")
    w = np.maximum(w, 0.0)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class OccupationalMeasure:
    """Nonnegative finite pair weights summing to one."""

    graph: Graph
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _checked_weights(self.graph, self.weights)
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to one")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class FlowMeasure:
    """Nonnegative pair weights with arbitrary finite total mass."""

    graph: Graph
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _checked_weights(self.graph, self.weights))

    @property
    def total(self) -> float:
        return float(self.weights.sum())


def state_marginal(measure: OccupationalMeasure | FlowMeasure) -> np.ndarray:
    """Mass per state: the measure of each state's pairs."""
    g = measure.graph
    out = np.zeros(g.n_states)
    np.add.at(out, g.pair_state, measure.weights)
    return out


def state_inflow(measure: OccupationalMeasure | FlowMeasure) -> np.ndarray:
    """Mass arriving at each state: the measure pushed through the dynamics."""
    g = measure.graph
    out = np.zeros(g.n_states)
    np.add.at(out, g.pair_succ, measure.weights)
    return out


def occupational_measure(traj: Trajectory, S: int | None = None) -> OccupationalMeasure:
    """Empirical pair frequencies over the first S steps (all by default)."""
    if S is None:
        S = traj.n_steps
    if not 0 < S <= traj.n_steps:
        raise ValueError("S must lie within the recorded horizon")
    counts = np.bincount(traj.pairs[:S], minlength=traj.graph.n_pairs).astype(float)
    return OccupationalMeasure(graph=traj.graph, weights=counts / S)


def detect_cycle(pairs: np.ndarray) -> tuple[int, int]:
    """Earliest (start, period) of an eventually repeating pair sequence.

    Scans periods smallest first; a candidate period p with last mismatch
    before t0 is accepted only when the record shows two full periods after
    t0.  Raises NoCycleDetected when no period fits.
    """
    pairs = np.asarray(pairs)
    S = pairs.size
    for p in range(1, S // 2 + 1):
        mism = np.flatnonzero(pairs[: S - p] != pairs[p:])
        t0 = int(mism[-1]) + 1 if mism.size else 0
        if t0 + 2 * p <= S:
            return t0, p
    raise NoCycleDetected(
        f"no repeating pair pattern in {S} recorded steps; record more steps"
    )


def discounted_occupational_measure(traj: Trajectory, alpha: float) -> OccupationalMeasure:
    """Discounted pair weights (1 - alpha) sum alpha^t of a trajectory.

    The recorded steps cover the start; beyond the record the trajectory is
    taken to repeat its detected cycle forever, so the tail is the exact
    geometric sum over the cycle.  For a trajectory that truly is eventually
    periodic the result is exact.  Otherwise it differs from the true
    measure only on the steps past the S recorded ones, which carry total
    weight alpha^S; nothing here checks that this is small.
    """
    _check_alpha(alpha)
    t0, p = detect_cycle(traj.pairs)
    g = traj.graph
    weights = np.zeros(g.n_pairs)
    discounts = alpha ** np.arange(t0 + p)
    np.add.at(weights, traj.pairs[:t0], discounts[:t0])
    # One period starting at t0, then the geometric sum of its repeats.
    np.add.at(weights, traj.pairs[t0 : t0 + p], discounts[t0:] / (1.0 - alpha**p))
    weights *= 1.0 - alpha
    return OccupationalMeasure(graph=g, weights=weights)


@dataclass(frozen=True)
class MetricBasis:
    """Test functions evaluated on the pair graph, with summable weights.

    matrix[j, g] is the j-th test function at pair g; weight[j] scales its
    contribution to the metric.  Functions are expected to be bounded by
    one in sup norm so the weighted sum dominates the metric.
    """

    graph: Graph
    matrix: np.ndarray
    weights: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self.graph.n_pairs:
            raise ValueError("matrix must be (n_functions, n_pairs)")
        if w.shape != (mat.shape[0],):
            raise ValueError("need one weight per test function")
        mat.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def chebyshev_basis(graph: Graph, J: int = 64) -> MetricBasis:
    """Chebyshev-times-action-indicator test functions, weights 2^-j.

    State coordinates are mapped affinely onto [-1, 1] per axis (constant
    axes map to 0), so each product of coordinatewise Chebyshev polynomials
    is bounded by one; multiplying by an action indicator keeps that bound.
    Functions are enumerated by total degree, then lexicographically by
    degree multi-index, then by action index, and truncated at J.
    """
    if J < 1:
        raise ValueError("need at least one test function")
    states = graph.problem.states
    n, dim = states.shape
    lo, hi = states.min(axis=0), states.max(axis=0)
    span = hi - lo
    scaled = np.zeros_like(states)
    live = span > 0
    scaled[:, live] = (2.0 * states[:, live] - (hi + lo)[live]) / span[live]

    # The first ceil(J / K) multi-indices, in order, each giving K rows.
    K = graph.problem.n_actions
    multis: list[tuple[int, ...]] = []
    degree_total = 0
    while len(multis) * K < J:
        multis.extend(_degree_multi_indices(degree_total, dim))
        degree_total += 1
    multis = multis[: -(-J // K)]
    degrees = np.array(multis)  # (M, dim)
    # cheb[i] is the product over axes, in axis order, of T_d(x) =
    # cos(d arccos x) at d = degrees[i, axis]; T_0 is exactly 1.
    sx = scaled[graph.pair_state]  # (P, dim)
    cheb = np.ones((len(multis), graph.n_pairs))
    for axis in range(dim):
        theta = np.arccos(np.clip(sx[:, axis], -1.0, 1.0))
        cheb = cheb * np.cos(np.arange(degree_total)[:, None] * theta)[degrees[:, axis]]
    on = graph.pair_action == np.arange(K)[:, None]  # (K, P)
    matrix = (cheb[:, None, :] * on).reshape(-1, graph.n_pairs)[:J]
    labels = [
        f"T{multi}*[u={action}]" for multi in multis for action in graph.problem.actions
    ][:J]
    weights = 0.5 ** np.arange(1, J + 1)
    return MetricBasis(graph=graph, matrix=matrix, weights=weights, labels=tuple(labels))


def _degree_multi_indices(total: int, dim: int) -> list[tuple[int, ...]]:
    """All dim-tuples of nonnegative ints summing to total, lexicographic."""
    if dim == 1:
        return [(total,)]
    out = []
    for head in range(total, -1, -1):
        for rest in _degree_multi_indices(total - head, dim - 1):
            out.append((head, *rest))
    return sorted(out)


def basis_from_functions(
    graph: Graph,
    funcs: Sequence[Callable[[np.ndarray, str], float]],
    weights: Sequence[float] | None = None,
) -> MetricBasis:
    """Basis from callables f(state_coords, action_label) -> value.

    Default weights are 2^-j, matching the standard construction.
    """
    rows = np.array(
        [
            [
                float(f(graph.problem.states[y], graph.problem.actions[u]))
                for y, u in zip(graph.pair_state, graph.pair_action)
            ]
            for f in funcs
        ]
    )
    if weights is None:
        weights = 0.5 ** np.arange(1, len(funcs) + 1)
    return MetricBasis(
        graph=graph,
        matrix=rows,
        weights=np.asarray(weights, dtype=float),
        labels=tuple(getattr(f, "__name__", f"q{j}") for j, f in enumerate(funcs)),
    )


def pairing(q_values: np.ndarray, measure: OccupationalMeasure | FlowMeasure) -> float:
    """Integral of a pair-indexed function against a measure."""
    return float(np.dot(np.asarray(q_values, dtype=float), measure.weights))


def rho(
    m1: OccupationalMeasure, m2: OccupationalMeasure, basis: MetricBasis
) -> float:
    """Weighted sum of absolute pairing gaps over the basis functions."""
    gaps = basis.matrix @ (m1.weights - m2.weights)
    return float(np.dot(basis.weights, np.abs(gaps)))


def hausdorff(
    set1: Sequence[OccupationalMeasure],
    set2: Sequence[OccupationalMeasure],
    basis: MetricBasis,
) -> float:
    """Symmetric Hausdorff distance between finite sets of measures."""
    if not len(set1) or not len(set2):
        raise EmptySet("hausdorff needs nonempty sets on both sides")
    W1 = np.stack([m.weights for m in set1])
    W2 = np.stack([m.weights for m in set2])
    # distance matrix via the basis images
    G1 = W1 @ basis.matrix.T
    G2 = W2 @ basis.matrix.T
    diff = np.abs(G1[:, None, :] - G2[None, :, :])
    D = diff @ basis.weights
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


def stationarity_residual(measure: OccupationalMeasure) -> float:
    """Largest per-state gap between inflow and marginal."""
    return float(np.max(np.abs(state_inflow(measure) - state_marginal(measure))))


def discounted_residual(
    measure: OccupationalMeasure, alpha: float, y0: int
) -> float:
    """Largest per-state violation of the discounted balance
    alpha * inflow(z) - marginal(z) + (1 - alpha) * [z == y0] = 0.
    """
    _check_alpha(alpha)
    balance = alpha * state_inflow(measure) - state_marginal(measure)
    balance[y0] += 1.0 - alpha
    return float(np.max(np.abs(balance)))


def membership_W(measure: OccupationalMeasure, tol: float = 1e-9) -> bool:
    """Whether the measure is stationary: inflow equals marginal per state.

    Indicator test functions per state are complete on a finite state
    space, so this check characterizes membership exactly.
    """
    return stationarity_residual(measure) <= tol


def membership_W_alpha(
    measure: OccupationalMeasure, alpha: float, y0: int, tol: float = 1e-9
) -> bool:
    """Discounted balance test for measures collected from start state y0.

    Discounted occupational measures of processes started at y0 satisfy
    the balance at every state; a measure collected from the wrong start
    leaves a residual of exactly 1 - alpha at y0 when it never revisits
    it.
    """
    return discounted_residual(measure, alpha, y0) <= tol


def measure_to_json(measure: OccupationalMeasure | FlowMeasure) -> str:
    """Serialize as a {pair_index: weight} object in canonical pair order."""
    return json.dumps({str(g): float(w) for g, w in enumerate(measure.weights)})


def measure_from_json(
    graph: Graph, text: str, kind: str = "occupational"
) -> OccupationalMeasure | FlowMeasure:
    """Inverse of measure_to_json; kind is "occupational" or "flow".  Raises
    ValueError unless text is a JSON object mapping distinct pair indices,
    written as measure_to_json writes them, to finite numbers."""
    classes = {"occupational": OccupationalMeasure, "flow": FlowMeasure}
    if kind not in classes:
        raise ValueError(f"kind must be 'occupational' or 'flow', not {kind!r}")
    data = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        raise ValueError("a measure must be a JSON object of pair index to weight")
    weights = np.zeros(graph.n_pairs)
    for key, value in data.items():
        if not (key.isdecimal() and key == str(int(key)) and int(key) < graph.n_pairs):
            raise ValueError(f"{key!r} is not a pair index in [0, {graph.n_pairs})")
        if type(value) not in (int, float):
            raise ValueError(f"weight of pair {key} must be a number")
        weights[int(key)] = value
    return classes[kind](graph=graph, weights=weights)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    if len({key for key, _ in pairs}) < len(pairs):
        raise ValueError("a pair index appears twice")
    return dict(pairs)
