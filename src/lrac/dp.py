"""Dynamic programming for finite-horizon averages and discounted costs.

The finite-horizon recursion works on unnormalized sums S_T(y) = T * V_T(y),

    S_T(y) = min over admissible u of  k(y, u) + S_{T-1}(f(y, u)),   S_0 = 0,

so V_T is exact up to float addition.  _horizon_table runs it once and
keeps every row S_0..S_T; _horizon_walk reads one optimal path off it and
_horizon_policy every state's pairs.  Callers needing several horizons
build one table up to the largest, and programs._min_mean_cycle walks
Karp's table on the reversed graph, built by the same function.  A row
reads only the rows of its successors, so a table over a closed set of
states (problem._closed_subgraph) holds the full table's columns there.

Past its first n rows a long table may be filled in blocks.  The argmin
pairs of the recursion settle after a transient, as powers of a min-plus
matrix are eventually periodic (Cohen, Dubois, Quadrat & Viot 1985), so
a block guesses that one row's argmin pairs stay optimal, fills the next
rows along that stationary policy with the plain step's own additions
(one np.add.accumulate per block along the policy's cycles, one vector op
per level of its trees: _policy_decomposition), and keeps a row only
where one vectorised pass over every pair finds it equal to the plain
step's float.  The table is therefore the plain recursion's bit for bit.
One rule sizes the blocks (_horizon_table): a guess's first block is
_LEAST_BLOCK rows and each block that keeps all its rows doubles the
next; a miss falls back to at most _LEAST_BLOCK plain steps, never more
than the rows it wasted, before the next guess; the first guess waits
until its pairs have held for half a least block; and no guess is made
with fewer than two least blocks of rows left, so short tables and
Karp's are plain throughout.

Discounted values solve the fixed point h(y) = min over u of (1 - alpha) k(y, u) +
alpha h(f(y, u)) by Howard policy iteration: each stationary policy is
evaluated exactly by one linear solve, and a state changes its pair only
where another pair improves the one-step lookahead by more than
tol * (1 - alpha).  The loop stops when no state does, so the Bellman
residual is at most tol * (1 - alpha) and the sup-norm error at most tol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .problem import Graph

__all__ = [
    "ValueFunction",
    "Trajectory",
    "PeriodicProcess",
    "InadmissibleAction",
    "NotPeriodic",
    "value_iteration_avg",
    "value_iteration_discounted",
    "greedy_policy",
    "rollout",
    "average_cost",
]

Policy = Union[np.ndarray, Callable[[int], int]]


class InadmissibleAction(ValueError):
    """Raised when a rollout policy picks an action not admissible in its state."""


class NotPeriodic(ValueError):
    """Raised when pairs meant to chain into a prefix plus closed cycle do not."""


@dataclass(frozen=True)
class ValueFunction:
    """State-indexed values with the parameters they were computed under.

    horizon is T for finite-horizon averages, None otherwise; alpha is the
    discount factor for discounted values, None otherwise.  iterations is
    the work the solver did: T recursion steps for finite-horizon values,
    policy-iteration rounds for discounted ones.
    """

    values: np.ndarray
    horizon: int | None = None
    alpha: float | None = None
    iterations: int = 0

    def __call__(self, y: int) -> float:
        return float(self.values[y])


@dataclass(frozen=True)
class Trajectory:
    """A recorded admissible path: S steps, S + 1 states."""

    graph: Graph
    states: np.ndarray
    actions: np.ndarray
    pairs: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        if len(self.states) != len(self.pairs) + 1:
            raise ValueError("need one more state than steps")
        if len(self.pairs) == 0:
            raise ValueError("trajectory must have at least one step")

    @property
    def n_steps(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_pairs(cls, graph: Graph, pairs) -> Trajectory:
        """The path that takes the given pairs in order; each pair is taken
        to start where the previous one ends."""
        pairs = np.asarray(pairs, dtype=int)
        states = np.append(graph.pair_state[pairs], graph.pair_succ[pairs[-1:]])
        return cls(
            graph=graph,
            states=states,
            actions=graph.pair_action[pairs],
            pairs=pairs,
            costs=graph.pair_cost[pairs],
        )


def _check_chain(graph: Graph, pairs: np.ndarray, what: str) -> None:
    succ = graph.pair_succ[pairs[:-1]]
    nxt = graph.pair_state[pairs[1:]]
    if np.any(succ != nxt):
        raise NotPeriodic(f"{what}: consecutive pairs do not chain")


@dataclass(frozen=True)
class PeriodicProcess:
    """An eventually periodic process: a finite prefix into a closed cycle.

    Construction checks that prefix and cycle pairs chain state-to-state and
    that the cycle closes on itself, raising NotPeriodic otherwise.
    """

    graph: Graph
    prefix_pairs: np.ndarray
    cycle_pairs: np.ndarray

    def __post_init__(self) -> None:
        prefix = np.asarray(self.prefix_pairs, dtype=int)
        cycle = np.asarray(self.cycle_pairs, dtype=int)
        object.__setattr__(self, "prefix_pairs", prefix)
        object.__setattr__(self, "cycle_pairs", cycle)
        if cycle.size == 0:
            raise NotPeriodic("cycle must contain at least one pair")
        g = self.graph
        if cycle.size > 1:
            _check_chain(g, cycle, "cycle")
        if g.pair_succ[cycle[-1]] != g.pair_state[cycle[0]]:
            raise NotPeriodic("cycle does not close")
        if prefix.size:
            _check_chain(g, prefix, "prefix")
            if g.pair_succ[prefix[-1]] != g.pair_state[cycle[0]]:
                raise NotPeriodic("prefix does not lead into the cycle")

    @property
    def start_state(self) -> int:
        first = self.prefix_pairs[0] if self.prefix_pairs.size else self.cycle_pairs[0]
        return int(self.graph.pair_state[first])

    @property
    def period(self) -> int:
        return int(self.cycle_pairs.size)

    @property
    def mean_cycle_cost(self) -> float:
        return float(np.mean(self.graph.pair_cost[self.cycle_pairs]))

    def to_trajectory(self, n_periods: int = 1) -> Trajectory:
        """Unroll the prefix plus n_periods turns of the cycle."""
        if n_periods < 1:
            raise ValueError("need at least one period")
        pairs = np.concatenate([self.prefix_pairs, np.tile(self.cycle_pairs, n_periods)])
        return Trajectory.from_pairs(self.graph, pairs)


def _segment_min(values: np.ndarray, graph: Graph) -> np.ndarray:
    """Per-state minimum of a pair-indexed vector."""
    return np.minimum.reduceat(values, graph.state_offset[:-1])


def _segment_argmin_pair(values: np.ndarray, per_state_min: np.ndarray, graph: Graph) -> np.ndarray:
    """Lowest pair achieving each per-state minimum, along the last axis."""
    counts = np.diff(graph.state_offset)
    hit = values == np.repeat(per_state_min, counts, axis=-1)
    candidates = np.where(hit, np.arange(graph.n_pairs), graph.n_pairs)
    return np.minimum.reduceat(candidates, graph.state_offset[:-1], axis=-1)


def _check_horizon(T: int) -> None:
    """Reject a horizon below one step."""
    if T < 1:
        raise ValueError("horizon must be at least 1")


def _policy_decomposition(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The functional graph y -> succ[y] of a stationary policy: its
    cycles, then the trees that feed them, level by level.

    Returns (order, bounds, levels).  order lists the states on cycles,
    cycle j being order[bounds[j] : bounds[j + 1]] in the order of succ,
    which maps its last state back to its first.  levels[d - 1] holds, in
    increasing order, the states d steps from their cycle, so the
    successor of a state in a level lies on a cycle or in the level before.
    A recursion along the policy can thus run cycle by cycle, then level
    by level, as _PolicyPlan.fill does.
    """
    n = succ.size
    image = succ
    for _ in range((n - 1).bit_length()):
        image = image[image]
    # succ applied 2^K >= n times lands every state on its cycle, and every
    # cycle state is reached so from its own cycle
    known = np.zeros(n, dtype=bool)
    known[image] = True
    step, seen = succ.tolist(), [False] * n
    order, bounds = [], [0]
    for y in np.flatnonzero(known).tolist():
        if not seen[y]:
            while not seen[y]:
                seen[y] = True
                order.append(y)
                y = step[y]
            bounds.append(len(order))
    levels = []
    rest = np.flatnonzero(~known)
    while rest.size:
        ready = known[succ[rest]]
        levels.append(rest[ready])
        known[levels[-1]] = True
        rest = rest[~ready]
    return np.array(order, dtype=int), np.array(bounds, dtype=int), levels


# The rows of the first block of a guess; see _horizon_table.
_LEAST_BLOCK = 64
# A block's scratch arrays hold at most this many floats (256 KB each):
# past that a block costs more per row (on random n = 40, 1.0 us a row at
# 512 rows and 1.35 us at 1024), and a long block that misses wastes more.
_BLOCK_FLOATS = 1 << 15


class _PolicyPlan:
    """One stationary policy, laid out for block fills of _horizon_table.

    The policy's cost c(y) and successor f(y) per state; its cycles as
    order (see _policy_decomposition) with each listed state's cycle start
    and length; and its tree levels with their successors and costs.
    """

    def __init__(self, graph: Graph, pair: np.ndarray) -> None:
        succ, cost = graph.pair_succ[pair], graph.pair_cost[pair]
        order, bounds, levels = _policy_decomposition(succ)
        lengths = np.diff(bounds)
        self.order = order
        self.start = np.repeat(bounds[:-1], lengths)[:, None]
        self.pos = np.arange(order.size)[:, None] - self.start
        self.length = np.repeat(lengths, lengths)[:, None]
        self.cost = cost
        self.levels = [(level, succ[level], cost[level]) for level in levels]

    def fill(self, S: np.ndarray, k: int, B: int) -> None:
        """Rows k + 1 .. k + B of S along the policy, from row k: each entry
        is c(y) + S_{j-1}(f(y)), the plain step's sum for the policy's pair.

        Along a cycle the rows run down diagonals: row k + j of the state j
        steps behind a cycle state x is the cost of those j states added
        one by one to S_k(x), which one np.add.accumulate does for every
        diagonal at once.  Each tree level then takes one vector op over
        all B rows, as its successors' rows are already filled."""
        rows, ahead = S[k + 1 : k + B + 1], np.arange(B)
        # diagonal[i, j] is the state j + 1 steps behind cycle state order[i]
        diagonal = self.order[self.start + (self.pos - ahead - 1) % self.length]
        sums = np.empty((self.order.size, B + 1))
        sums[:, 0] = S[k, self.order]
        sums[:, 1:] = self.cost[diagonal]
        np.add.accumulate(sums, axis=1, out=sums)
        rows[ahead[:, None], diagonal.T] = sums[:, 1:].T
        for level, succ, cost in self.levels:
            rows[:, level] = S[k : k + B, succ] + cost


def _horizon_table(graph: Graph, T: int) -> np.ndarray:
    """The (T + 1, n_states) table of the recursion: row k is S_k, the
    cheapest k-step total from each state, row 0 being zero.

    Every row holds the plain step's floats: each entry is the minimum
    over the state's pairs of k(y, u) + S_{k-1}(f(y, u)).  The first
    min(T, n) rows are plain steps, so Karp's tables (N <= n rows) never
    block.  After them one rule fills the rest:

    - A guess takes an argmin pair per state of the last filled row and
      fills the next rows along that policy (_PolicyPlan.fill, cached per
      policy, as the recursion may come back to one).  One vectorised pass
      (_block_minimum) recomputes every pair's lookahead on the filled
      rows, and row j is kept when it equals the per-state minimum in every
      state: row j - 1 was kept, so that minimum is the plain step's float.
    - A guess's first block is _LEAST_BLOCK rows, and each block that
      keeps all its rows is followed by one twice as long under the same
      policy; a block that would leave fewer than _LEAST_BLOCK rows after
      it takes them too.
    - From the first row a block misses, plain steps run for the rows it
      filled and did not keep, at most _LEAST_BLOCK, and then the next
      guess is made: a block that missed early waits longest.  So a block
      after a missed one starts at most min(wasted, _LEAST_BLOCK) rows
      after the missed block's last kept row.
    - Before the first block nothing shows that the pairs have settled, so
      the first guess waits until its pairs equal those of the row
      _LEAST_BLOCK // 2 before it (of row 1 on shorter tables), in steps
      of that many plain rows.
    - No guess is made when fewer than 2 * _LEAST_BLOCK rows are left, or
      fit in the _BLOCK_FLOATS scratch space: on tables of 6 to 153
      states a first block, its policy's decomposition included, costs
      half to two thirds of the plain steps over its rows, so a guess
      pays only when its block can double.  Short tables are plain
      throughout.
    """
    n = graph.n_states
    S = np.zeros((T + 1, n))
    cost, succ, offsets = graph.pair_cost, graph.pair_succ, graph.state_offset[:-1]
    counts, cap, least = np.diff(graph.state_offset), _BLOCK_FLOATS // n, _LEAST_BLOCK
    plans: dict[bytes, _PolicyPlan] = {}
    columns, plan = None, None
    k, wait = 0, min(n, T)  # rows 0 .. k are filled; the next block starts at row wait

    def pairs(j: int) -> np.ndarray:  # an argmin pair per state of row j
        hits = np.flatnonzero(S[j - 1][succ] + cost == np.repeat(S[j], counts))
        pair = offsets.copy()
        pair[graph.pair_state[hits]] = hits
        return pair

    while k < T:
        S_k = S[k]
        while k < wait:
            # S_{k-1}(f) + k(y, u), added in place: float addition commutes
            # exactly, so this is the lookahead k(y, u) + S_{k-1}(f) itself
            lookahead = S_k[succ]
            lookahead += cost
            k += 1
            S_k = S[k] = np.minimum.reduceat(lookahead, offsets)
        if plan is None:
            if min(cap, T - k) < 2 * least:
                wait = T
                continue
            pair = pairs(k)
            if columns is None:  # no block yet
                if not np.array_equal(pair, pairs(max(k - least // 2, 1))):
                    wait = k + least // 2
                    continue
                padded = offsets[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)
                columns = list(zip(succ[padded].T, cost[padded].T))
            plan = plans.get(pair.tobytes())
            if plan is None:
                plan = plans[pair.tobytes()] = _PolicyPlan(graph, pair)
            B = least
        B = min(B if T - k - B >= least else T - k, cap)
        plan.fill(S, k, B)
        ok = (_block_minimum(S[k : k + B], columns) == S[k + 1 : k + B + 1]).all(axis=1)
        if ok.all():
            k, wait, B = k + B, k + B, 2 * B
        else:
            kept = int(np.argmin(ok))
            k += kept
            wait, plan = k + min(B - kept, least), None
    return S


def _block_minimum(rows: np.ndarray, columns) -> np.ndarray:
    """Per-state minimum of k(y, u) + S(f(y, u)) for each row S of rows,
    one padded pair column at a time: the same float sums as a plain step,
    and the minimum of the same values."""
    (succ, cost), *rest = columns
    M = rows[:, succ]
    M += cost
    for succ, cost in rest:
        L = rows[:, succ]
        L += cost
        np.minimum(M, L, out=M)
    return M


def _horizon_walk(graph: Graph, S: np.ndarray, y: int, steps: int) -> list[int]:
    """The pairs of an optimal steps-step path from y off a horizon table S:
    with r steps left, the current state y's lowest pair whose k(y, u) +
    S_{r-1}(f(y, u)) is S_r(y), the float sum _horizon_table took, so ties
    are _horizon_policy's.  Reads only y's pairs; RuntimeError if none does."""
    flat, n = memoryview(S.reshape(-1)), S.shape[1]  # S_r(z) is flat[r * n + z]
    offset, options, pairs = graph.state_offset, {}, []
    for r in range(steps, 0, -1):
        if y not in options:  # y's (pair, cost, successor) triples, listed once
            a, b = offset[y], offset[y + 1]
            cost, succ = graph.pair_cost[a:b].tolist(), graph.pair_succ[a:b].tolist()
            options[y] = list(zip(range(a, b), cost, succ))
        target, prev = flat[r * n + y], (r - 1) * n
        for g, c, z in options[y]:
            if c + flat[prev + z] == target:
                break
        else:
            raise RuntimeError(f"no pair of state {y} attains its {r}-step value {target}")
        pairs.append(g)
        y = z
    return pairs


# Rows of lookahead held at once by _horizon_policy: a (block, n_pairs)
# array, never one per horizon step.
_POLICY_BLOCK = 256


def _horizon_policy(graph: Graph, S: np.ndarray) -> np.ndarray:
    """The (T, n_states) pair table of a horizon table S of T + 1 rows:
    row t is the lowest pair attaining S_{T-t}, the pair to use at time t
    when T - t steps remain.  It is rebuilt from k(y, u) + S_{r-1}(f(y, u))
    by the same float operations as S_r, so ties are exact."""
    T = S.shape[0] - 1
    policy = np.empty((T, graph.n_states), dtype=int)
    for k0 in range(0, T, _POLICY_BLOCK):
        k1 = min(k0 + _POLICY_BLOCK, T)
        lookahead = graph.pair_cost + S[k0:k1, graph.pair_succ]
        # block row r - 1 - k0 attains S_r, which is policy row T - r
        best = _segment_argmin_pair(lookahead, S[k0 + 1 : k1 + 1], graph)
        policy[T - k1 : T - k0] = best[::-1]
    return policy


def value_iteration_avg(
    graph: Graph, T: int, want_policy: bool = False
) -> ValueFunction | tuple[ValueFunction, np.ndarray]:
    """Finite-horizon average values V_T for every state.

    With want_policy=True also returns a (T, n_states) table of pair
    indices: row t is the cost-minimizing pair to use at time t when T - t
    steps remain, ties resolved to the lowest action index.  Both are views
    of _horizon_table and _horizon_policy.
    """
    _check_horizon(T)
    S = _horizon_table(graph, T)
    vf = ValueFunction(values=S[T] / T, horizon=T, iterations=T)
    return (vf, _horizon_policy(graph, S)) if want_policy else vf


def _check_alpha(alpha: float) -> None:
    """Reject a discount factor outside the open interval (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")


def value_iteration_discounted(
    graph: Graph, alpha: float, tol: float = 1e-10
) -> ValueFunction:
    """Normalized discounted values h_alpha, accurate to tol in sup norm.

    Howard policy iteration, starting from the myopic policy (lowest pair
    on ties).  Each round evaluates the current policy pi exactly, by one
    dense solve of (I - alpha P_pi) h = (1 - alpha) k_pi, then moves a
    state to its best pair (lowest on ties) only where that pair beats the
    current one by more than tol * (1 - alpha).  When no state moves, the
    Bellman residual of h is at most tol * (1 - alpha), so h is within tol
    of h_alpha.  iterations on the result counts the rounds, the last one
    included.  Raises RuntimeError if the rounds exceed a cap that a
    working loop never reaches.
    """
    _check_alpha(alpha)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    n = graph.n_states
    rows = np.arange(n)
    stage = (1.0 - alpha) * graph.pair_cost
    margin = tol * (1.0 - alpha)
    policy = _segment_argmin_pair(stage, _segment_min(stage, graph), graph)
    # In exact arithmetic every round strictly lowers the policy's values,
    # so no policy comes back; the known worst cases on deterministic graphs
    # need rounds of the order of the pair count, so this cap binds only if
    # the loop is broken.
    cap = 2 * graph.n_pairs + 100
    for rounds in range(1, cap + 1):
        A = np.eye(n)
        A[rows, graph.pair_succ[policy]] -= alpha
        # Solve for h - m, with m the policy's least cost: the same system,
        # as (I - alpha P) maps constants to (1 - alpha) times themselves,
        # but a policy whose costs are all equal then gets exactly that
        # value everywhere.  Solving for h itself leaves rounding noise of
        # order eps / (1 - alpha) that breaks exact ties near alpha = 1 and
        # can send the loop round in circles.
        k = graph.pair_cost[policy]
        m = np.min(k)
        h = m + np.linalg.solve(A, (1.0 - alpha) * (k - m))
        lookahead = stage + alpha * h[graph.pair_succ]
        best = _segment_min(lookahead, graph)
        move = lookahead[policy] - best > margin
        if not move.any():
            return ValueFunction(values=h, alpha=alpha, iterations=rounds)
        policy = np.where(move, _segment_argmin_pair(lookahead, best, graph), policy)
    raise RuntimeError("discounted policy iteration did not converge")


def greedy_policy(graph: Graph, h: ValueFunction) -> np.ndarray:
    """Stationary policy minimizing the discounted one-step lookahead of h.

    Returns action indices per state, lowest action on ties.
    """
    if h.alpha is None:
        raise ValueError("greedy_policy needs a discounted value function")
    totals = (1.0 - h.alpha) * graph.pair_cost + h.alpha * h.values[graph.pair_succ]
    per_state = _segment_min(totals, graph)
    pair_choice = _segment_argmin_pair(totals, per_state, graph)
    return graph.pair_action[pair_choice]


def rollout(graph: Graph, y0: int, policy: Policy, steps: int) -> Trajectory:
    """Run a stationary policy from y0 for a fixed number of steps.

    policy is either an array of action indices, one integer per state,
    or a callable state -> action index; an array of any other shape or
    dtype raises ValueError.  Raises InadmissibleAction when the chosen
    action is not available in the current state.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if isinstance(policy, np.ndarray):
        if policy.shape != (graph.n_states,) or policy.dtype.kind not in "iu":
            raise ValueError(
                f"policy array must hold one integer action per state, shape "
                f"({graph.n_states},); got {policy.dtype} of shape {policy.shape}"
            )
        pick = policy.tolist().__getitem__
    else:
        pick = policy
    # pair_of[y][u] is the pair index of (y, u), -1 where inadmissible
    n, K = graph.n_states, graph.problem.n_actions
    table = np.full((n, K), -1, dtype=int)
    table[graph.pair_state, graph.pair_action] = np.arange(graph.n_pairs)
    pair_of = table.tolist()
    succ = graph.pair_succ.tolist()
    pairs = np.empty(steps, dtype=int)
    y = int(y0)
    for t in range(steps):
        u = int(pick(y))
        # a negative index would wrap, so only in-range (y, u) are looked up
        g = pair_of[y][u] if 0 <= y < n and 0 <= u < K else -1
        if g < 0:
            raise InadmissibleAction(
                f"action {u} is not admissible in state {y} at step {t}"
            )
        pairs[t] = g
        y = succ[g]
    return Trajectory.from_pairs(graph, pairs)


def average_cost(traj: Trajectory) -> float:
    """Time-average running cost along a trajectory."""
    return float(np.mean(traj.costs))
