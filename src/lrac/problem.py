"""Finite controlled systems and their admissibility graphs.

A problem is a finite set of states with coordinates in R^m, a finite set
of labeled actions, a deterministic successor table and a running cost
table.  A pair (y, u) is admissible when taking action u in state y keeps
the process inside the state set; the admissible pairs with their
successors and costs form the graph that every solver in this package
works on.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ControlProblem",
    "Graph",
    "ProblemFormatError",
    "ViabilityViolation",
    "build_graph",
    "snap_dynamics",
    "problem_to_dict",
    "problem_from_dict",
    "load_problem",
    "save_problem",
]


class ProblemFormatError(ValueError):
    """Raised when a problem description violates the JSON schema."""


class ViabilityViolation(ValueError):
    """Raised when some state has no admissible action.

    Every solver here assumes the process can always continue, so a state
    whose every action leaves the state set makes the problem ill posed.
    """


@dataclass(frozen=True)
class ControlProblem:
    """A finite deterministic control problem.

    Attributes
    ----------
    name : str
        Identifier used in reports and serialized output.
    states : ndarray, shape (n, m)
        Coordinates of the n states.  Coordinates only matter for the
        test-function basis built on top of them; solvers use indices.
    actions : tuple of str
        Action labels.  Indices into this tuple are the action indices.
    successor : ndarray, shape (n, K) of int
        successor[y, u] is the next state index, or -1 when (y, u) is
        inadmissible.
    cost : ndarray, shape (n, K)
        Running cost of each pair; NaN where inadmissible.
    """

    name: str
    states: np.ndarray
    actions: tuple[str, ...]
    successor: np.ndarray
    cost: np.ndarray

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float)
        succ = np.asarray(self.successor, dtype=int)
        cost = np.asarray(self.cost, dtype=float)
        if states.ndim != 2:
            raise ProblemFormatError("states must be a 2-D array of coordinates")
        if states.shape[1] == 0:
            raise ProblemFormatError("each state needs at least one coordinate")
        n = states.shape[0]
        K = len(self.actions)
        if succ.shape != (n, K) or cost.shape != (n, K):
            raise ProblemFormatError(
                f"successor and cost must have shape ({n}, {K}), "
                f"got {succ.shape} and {cost.shape}"
            )
        if succ.size and (succ.max() >= n or succ.min() < -1):
            raise ProblemFormatError("successor indices out of range")
        admissible = succ >= 0
        if not np.all(np.isfinite(cost[admissible])):
            raise ProblemFormatError("cost must be finite on every admissible pair")
        for arr, name in ((states, "states"), (succ, "successor"), (cost, "cost")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "actions", tuple(str(a) for a in self.actions))

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def admissible_actions(self, y: int) -> np.ndarray:
        """Indices of actions admissible in state y, in increasing order."""
        return np.flatnonzero(self.successor[y] >= 0)


@dataclass(frozen=True)
class Graph:
    """Admissible pairs of a problem, in lexicographic (state, action) order.

    The pair arrays are parallel: pair g is (pair_state[g], pair_action[g]),
    moves to pair_succ[g] and costs pair_cost[g].  state_offset[s] slices the
    pairs of state s, so iteration per state never needs a search.
    """

    problem: ControlProblem
    pair_state: np.ndarray
    pair_action: np.ndarray
    pair_succ: np.ndarray
    pair_cost: np.ndarray
    state_offset: np.ndarray

    @property
    def n_states(self) -> int:
        return self.problem.n_states

    @property
    def n_pairs(self) -> int:
        return self.pair_state.shape[0]

    @functools.cached_property
    def cost_bound(self) -> float:
        """M, the maximum absolute running cost over admissible pairs,
        computed once per graph: the upper links of every horizon and the
        solver gates all read it."""
        return float(np.max(np.abs(self.pair_cost)))

    def pairs_of_state(self, y: int) -> np.ndarray:
        """Pair indices whose state is y, in increasing action order."""
        return np.arange(self.state_offset[y], self.state_offset[y + 1])

    def pair_index(self, y: int, u: int) -> int:
        """Index of pair (y, u), or -1 when the pair is inadmissible."""
        lo, hi = self.state_offset[y], self.state_offset[y + 1]
        hits = np.flatnonzero(self.pair_action[lo:hi] == u)
        return int(lo + hits[0]) if hits.size else -1


def _per_state(graph: Graph, values, name: str) -> np.ndarray:
    """values as a float array with one finite entry per state of graph;
    raises ValueError naming it otherwise."""
    values = np.asarray(values, dtype=float)
    if values.shape != (graph.n_states,):
        raise ValueError(f"{name} must assign a value to every state")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values


def build_graph(problem: ControlProblem) -> Graph:
    """Enumerate the admissible pairs of a problem.

    Raises ViabilityViolation, naming the offending states, if any state
    has no admissible action.
    """
    succ = problem.successor
    admissible = succ >= 0
    dead = np.flatnonzero(~admissible.any(axis=1))
    if dead.size:
        raise ViabilityViolation(
            f"problem {problem.name!r}: states {dead.tolist()} have no admissible action"
        )
    ys, us = np.nonzero(admissible)  # np.nonzero is row-major, hence lexicographic
    counts = admissible.sum(axis=1)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    arrays = dict(
        pair_state=ys.astype(int),
        pair_action=us.astype(int),
        pair_succ=succ[ys, us].astype(int),
        pair_cost=problem.cost[ys, us].astype(float),
        state_offset=offsets.astype(int),
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return Graph(problem=problem, **arrays)


def _closed_subgraph(graph: Graph, y0: int, states) -> tuple[Graph, np.ndarray, np.ndarray]:
    """The graph of a set of states that holds y0 and is closed under the
    dynamics, as the states reachable from y0 are.

    Returns (sub, states, pairs): states sorted and unique, the state i of
    sub being states[i] and its pair j the pair pairs[j] of graph, in the
    same (state, action) order, with graph's pair costs and with successors
    renumbered; a set of every state returns graph itself.  Every recursion
    over pairs reads on sub exactly what it reads on graph in the columns
    of states.  A set without y0, or with a pair that leads out of it,
    raises ValueError.
    """
    n = graph.n_states
    reached = np.zeros(n, dtype=bool)
    reached[states] = True
    kept = reached[graph.pair_state]
    if not (0 <= y0 < n and reached[y0] and reached[graph.pair_succ[kept]].all()):
        raise ValueError(
            f"the states given for y0={y0} must hold y0 and be closed under the dynamics"
        )
    states, pairs = reached.nonzero()[0], kept.nonzero()[0]
    if states.size == n:
        return graph, states, pairs
    local = np.cumsum(reached) - 1  # the index in states of each reached state
    problem = graph.problem
    succ = problem.successor[states]
    sub = ControlProblem(
        problem.name,
        problem.states[states],
        problem.actions,
        np.where(succ >= 0, local[succ], -1),
        problem.cost[states],
    )
    offsets = np.zeros(states.size + 1, dtype=int)
    np.cumsum(graph.state_offset[states + 1] - graph.state_offset[states], out=offsets[1:])
    arrays = dict(
        pair_state=local[graph.pair_state[pairs]],
        pair_action=graph.pair_action[pairs],
        pair_succ=local[graph.pair_succ[pairs]],
        pair_cost=graph.pair_cost[pairs],
        state_offset=offsets,
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return Graph(problem=sub, **arrays), states, pairs


def snap_dynamics(
    states: np.ndarray,
    actions: Sequence[str],
    f: Callable[[np.ndarray, str], np.ndarray],
) -> np.ndarray:
    """Discretize a map onto a finite state set by nearest-neighbor snapping.

    For each state y and action label a, the image f(y, a) is snapped to the
    nearest state by Euclidean distance, ties going to the lower state
    index.  Images outside the bounding box of the state set, an infinite
    coordinate included, mark the pair inadmissible (successor -1): leaving
    the box is leaving the state set, and snapping such points would
    silently change the dynamics.  A NaN coordinate raises ValueError.

    Returns the (n, K) successor table; costs are the caller's business.
    f is called once per (state, action), in row-major order; the nearest
    states are then found for all images of one action at once.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError("states must be a 2-D array of coordinates")
    n, m = states.shape
    lo = states.min(axis=0)
    hi = states.max(axis=0)
    images = np.empty((n, len(actions), m))
    for y in range(n):
        for a_idx, a in enumerate(actions):
            image = np.asarray(f(states[y], a), dtype=float).reshape(-1)
            if image.shape != (m,):
                raise ValueError(
                    f"f(state {y}, {a!r}) has shape {image.shape}, "
                    f"expected ({m},)"
                )
            if np.isnan(image).any():
                raise ValueError(f"f(state {y}, {a!r}) has a NaN coordinate")
            images[y, a_idx] = image
    outside = np.any(images < lo, axis=2) | np.any(images > hi, axis=2)
    succ = np.empty((n, len(actions)), dtype=int)
    for a_idx in range(len(actions)):
        # d2[y, z] is the squared distance from image (y, a) to state z
        d2 = np.sum((states[None, :, :] - images[:, a_idx, None, :]) ** 2, axis=2)
        succ[:, a_idx] = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
    succ[outside] = -1
    return succ


# JSON schema, one record per admissible pair:
# {
#   "name": str,
#   "states": [[float, ...], ...],
#   "actions": [str, ...],
#   "transitions": [{"state": int, "action": int, "next": int, "cost": float}, ...]
# }

def problem_to_dict(problem: ControlProblem) -> dict:
    """Plain-dict form of a problem, matching the JSON schema."""
    ys, us = np.nonzero(problem.successor >= 0)  # row-major: by state, then action
    succ, cost = problem.successor[ys, us].tolist(), problem.cost[ys, us].tolist()
    transitions = [
        {"state": y, "action": u, "next": z, "cost": c}
        for y, u, z, c in zip(ys.tolist(), us.tolist(), succ, cost)
    ]
    return {
        "name": problem.name,
        "states": problem.states.tolist(),
        "actions": list(problem.actions),
        "transitions": transitions,
    }


def _finite_float(c: int | float) -> bool:
    """Whether c is a finite float, or an integer that converts to one."""
    try:
        return math.isfinite(float(c))
    except OverflowError:
        return False


def problem_from_dict(data: dict) -> ControlProblem:
    """Validate a plain dict against the schema and build the problem."""
    if not isinstance(data, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    for key in ("name", "states", "actions", "transitions"):
        if key not in data:
            raise ProblemFormatError(f"missing required key {key!r}")
    name = data["name"]
    if not isinstance(name, str):
        raise ProblemFormatError("name must be a string")
    states_raw = data["states"]
    if not isinstance(states_raw, list) or not states_raw:
        raise ProblemFormatError("states must be a nonempty list of coordinate lists")
    for i, row in enumerate(states_raw):
        # a list nested deeper is left to the shape check below
        for c in row if isinstance(row, list) else [row]:
            if isinstance(c, bool) or not isinstance(c, (int, float, list)):
                raise ProblemFormatError(
                    f"states[{i}]: coordinate {json.dumps(c)} is not a number"
                )
    try:
        states = np.asarray(states_raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer too large for a float
        raise ProblemFormatError(f"states are not numeric: {exc}") from None
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2 or not np.all(np.isfinite(states)):
        raise ProblemFormatError("states must be finite coordinate rows of equal length")
    actions = data["actions"]
    if (
        not isinstance(actions, list)
        or not actions
        or not all(isinstance(a, str) for a in actions)
    ):
        raise ProblemFormatError("actions must be a nonempty list of strings")
    n, K = states.shape[0], len(actions)
    succ = np.full((n, K), -1, dtype=int)
    cost = np.full((n, K), np.nan)
    transitions = data["transitions"]
    if not isinstance(transitions, list):
        raise ProblemFormatError("transitions must be a list of records")
    for pos, rec in enumerate(transitions):
        if not isinstance(rec, dict):
            raise ProblemFormatError(f"transitions[{pos}] is not an object")
        for key in ("state", "action", "next", "cost"):
            if key not in rec:
                raise ProblemFormatError(f"transitions[{pos}] missing {key!r}")
        y, u, z = rec["state"], rec["action"], rec["next"]
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (y, u, z)):
            raise ProblemFormatError(
                f"transitions[{pos}]: state, action and next must be integers"
            )
        if not (0 <= y < n and 0 <= u < K and 0 <= z < n):
            raise ProblemFormatError(f"transitions[{pos}]: index out of range")
        if succ[y, u] >= 0:
            raise ProblemFormatError(
                f"transitions[{pos}]: duplicate pair (state {y}, action {u})"
            )
        c = rec["cost"]
        if not isinstance(c, (int, float)) or isinstance(c, bool) or not _finite_float(c):
            raise ProblemFormatError(f"transitions[{pos}]: cost must be a finite number")
        succ[y, u] = z
        cost[y, u] = float(c)
    return ControlProblem(
        name=name, states=states, actions=tuple(actions), successor=succ, cost=cost
    )


def load_problem(path: str) -> ControlProblem:
    """Load a problem from a JSON file; raises ProblemFormatError on bad
    input, a file that cannot be read or one that is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path}: not UTF-8 text ({exc})") from None
    except ValueError as exc:
        # json.JSONDecodeError, or an integer literal past Python's
        # int-string digit limit
        raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from None
    try:
        return problem_from_dict(data)
    except ProblemFormatError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from None


def save_problem(problem: ControlProblem, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")
