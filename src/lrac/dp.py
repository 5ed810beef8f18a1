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

Past its first n rows a long table is filled in blocks where that pays.
The argmin pairs of the recursion settle after a transient, as powers of
a min-plus matrix are eventually periodic (Cohen, Dubois, Quadrat & Viot
1985), so a block guesses that the last row's argmin pairs stay optimal,
fills the next rows along that stationary policy with the plain step's
own additions (one np.add.accumulate per block along the policy's
cycles, one vector op per level of its trees: _policy_decomposition),
and keeps a row only where one vectorised pass over every pair finds it
equal to the plain step's float.  The table is therefore the plain
recursion's bit for bit; _fill_in_blocks states when a block is tried.

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


# The block rule of _fill_in_blocks counts costs in numpy calls, the Python
# around them included: a plain step makes _STEP_CALLS; a block about
# _BLOCK_CALLS, plus three per column of its check and five per tree level
# (two-axis fancy indexing weighs more than a plain call); a policy's
# decomposition about _DECOMPOSE_CALLS plus three per tree level and one
# per _CYCLE_STATES_PER_CALL cycle states, once per table.
_STEP_CALLS = 4
_BLOCK_CALLS = 40
_DECOMPOSE_CALLS = 40
_CYCLE_STATES_PER_CALL = 8
# A block's scratch arrays hold at most this many floats.
_BLOCK_FLOATS = 1 << 16


class _PolicyPlan:
    """One stationary policy, laid out for block fills of _horizon_table.

    The policy's cost c(y) and successor f(y) per state; its cycles as
    order (see _policy_decomposition) with each listed state's cycle start
    and length; its tree levels with their successors and costs; and the
    calls a block under it costs (see _STEP_CALLS), its decomposition's
    counted in first_calls.
    """

    def __init__(self, graph: Graph, pair: np.ndarray, width: int) -> None:
        succ, cost = graph.pair_succ[pair], graph.pair_cost[pair]
        order, bounds, levels = _policy_decomposition(succ)
        lengths = np.diff(bounds)
        self.order = order
        self.start = np.repeat(bounds[:-1], lengths)[:, None]
        self.pos = np.arange(order.size)[:, None] - self.start
        self.length = np.repeat(lengths, lengths)[:, None]
        self.cost = cost
        self.levels = [(level, succ[level], cost[level]) for level in levels]
        self.block_calls = _BLOCK_CALLS + 3 * width + 5 * len(levels)
        self.first_calls = (
            self.block_calls
            + _DECOMPOSE_CALLS
            + 3 * len(levels)
            + order.size // _CYCLE_STATES_PER_CALL
        )

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
    min(T, n) rows are plain steps, so Karp's tables (N <= n rows) are
    never filled otherwise.  After them the argmin pairs of the recursion
    mostly settle, as min-plus matrix powers are eventually periodic, and
    the rest may be filled in blocks along them (_fill_in_blocks); a table
    with too few rows left for any block to pay is plain throughout.
    """
    n = graph.n_states
    S = np.zeros((T + 1, n))
    cost, succ, offsets = graph.pair_cost, graph.pair_succ, graph.state_offset[:-1]
    least = _least_block(1)
    plain = n if T - max(n, least // 4) >= least else T
    S_k = S[0]
    for k in range(1, plain + 1):
        # S_{k-1}(f) + k(y, u), added in place: float addition commutes
        # exactly, so this is the lookahead k(y, u) + S_{k-1}(f) itself
        lookahead = S_k[succ]
        lookahead += cost
        S_k = S[k] = np.minimum.reduceat(lookahead, offsets)
    if plain < T:
        _fill_in_blocks(graph, S, plain, lookahead)
    return S


def _fill_in_blocks(graph: Graph, S: np.ndarray, k: int, lookahead: np.ndarray) -> None:
    """Rows k + 1 .. T of the horizon table S, given rows 0 .. k and row
    k's lookahead: in blocks along the current optimal policy where that
    pays, in plain steps elsewhere, every row equal to the plain step's.

    A block guesses that an argmin pair of row k per state stays optimal
    for the next B rows and fills them along that policy (_PolicyPlan.fill).
    One vectorised pass (_block_minimum) then recomputes every pair's
    lookahead k(y, u) + S_{j-1}(f(y, u)) on the filled rows, and its
    per-state minimum.  Row j is kept when it equals that minimum in every
    state: row j - 1 was kept, so the minimum is the plain step's float.
    The first row that misses gets the pass's minimum, the plain step's
    for the same reason, and its argmin pairs are the next guess.

    When a block is tried: costs are counted in numpy calls (_STEP_CALLS).
    Call p the rows of plain steps that cost as much as a block under a
    policy, its decomposition included when the policy is new.  Guesses
    are compared as they are made, at most p rows apart for the cheapest
    policy, and a policy has held since the first of a run of equal
    guesses.  It gets a block only once it has held for p rows, and that
    block is as long as it has held, at most 4p rows, on the guess that a
    policy lasts about as long again as it has lasted; each block that
    keeps all its rows doubles the next.  No guess is made when fewer rows
    are left, or fit in the _BLOCK_FLOATS scratch space, than 4p of the
    cheapest policy, so short tables are plain steps throughout.  A policy
    whose blocks keep fewer than p rows before one misses doubles the row
    of the next guess, so misses waste at most one block and one
    decomposition per doubling of the row.  Decompositions are cached per
    policy, as the recursion may come back to one.
    """
    T, n = S.shape[0] - 1, S.shape[1]
    cost, succ, offsets = graph.pair_cost, graph.pair_succ, graph.state_offset[:-1]
    counts = np.diff(graph.state_offset)
    width = int(counts.max())
    cap = _BLOCK_FLOATS // n
    least = _least_block(width)
    columns = None
    plans: dict[bytes, _PolicyPlan] = {}
    guess, since = None, k  # the last guess, made at every guess since row since
    wait = k  # the row of the next guess
    while True:
        if min(cap, T - wait) < least:
            wait = T
        S_k = S[k]
        while k < wait:
            lookahead = S_k[succ]
            lookahead += cost
            k += 1
            S_k = S[k] = np.minimum.reduceat(lookahead, offsets)
        if k == T:
            return
        hits = np.flatnonzero(lookahead == np.repeat(S_k, counts))
        pair = offsets.copy()
        pair[graph.pair_state[hits]] = hits
        if guess is None or not np.array_equal(pair, guess):
            guess, since, wait = pair, k, k + least // 4
            continue
        plan = plans.get(pair.tobytes())
        if plan is None:
            plan = plans[pair.tobytes()] = _PolicyPlan(graph, pair, width)
            pays = -(-plan.first_calls // _STEP_CALLS)
        else:
            pays = -(-plan.block_calls // _STEP_CALLS)
        if k - since < pays:
            wait = 2 * k - since
            continue
        if columns is None:
            padded = offsets[:, None] + np.minimum(np.arange(width), counts[:, None] - 1)
            columns = list(zip(succ[padded].T, cost[padded].T))
        B, kept, wait = min(4 * pays, k - since, cap, T - k), 0, T
        while B * _STEP_CALLS >= plan.block_calls:
            plan.fill(S, k, B)
            M = _block_minimum(S[k : k + B], columns)
            ok = (M == S[k + 1 : k + B + 1]).all(axis=1)
            if ok.all():
                k, kept, B = k + B, kept + B, min(2 * B, cap, T - k - B)
                continue
            r = int(np.argmin(ok))
            S[k + 1 + r] = M[r]
            kept += r
            k += r + 1
            lookahead = S[k - 1][succ]
            lookahead += cost
            wait = 2 * k if kept < pays else k
            break


def _least_block(width: int) -> int:
    """4p for the cheapest new policy (see _fill_in_blocks), whose states
    have at most width pairs each: the fewest rows left for a guess."""
    return 4 * -(-(_BLOCK_CALLS + 3 * width + _DECOMPOSE_CALLS) // _STEP_CALLS)


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

    policy is either an array of action indices per state or a callable
    state -> action index.  Raises InadmissibleAction when the chosen
    action is not available in the current state.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    pick = (lambda y: int(policy[y])) if isinstance(policy, np.ndarray) else policy
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
