"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own algorithms: cycle values
come from exhaustive simple-cycle enumeration, finite-horizon values from
recursion over all action sequences, discounted pairings from long
truncated sums, and distances to W from HiGHS on the box form of the
projection program.
"""

import dataclasses

import numpy as np
import pytest

from lrac import (
    Trajectory,
    build_graph,
    detect_cycle,
    random_problem,
    threestate_problem,
    toy_problem,
    solve_primal,
    value_iteration_avg,
)
from lrac.programs import reachable_states

SEEDS = tuple(range(50))
CHAIN_HORIZONS = (10, 100, 1000)


def suite_sizes(seed: int) -> tuple[int, int]:
    # 3..20 states, 2..4 actions, varied deterministically by seed
    return 3 + seed % 18, 2 + seed % 3


@pytest.fixture(scope="session")
def toy_graph():
    return build_graph(toy_problem())


@pytest.fixture(scope="session")
def threestate_graph():
    return build_graph(threestate_problem())


@pytest.fixture(scope="session")
def random_graphs():
    graphs = []
    for seed in SEEDS:
        n, na = suite_sizes(seed)
        graphs.append(build_graph(random_problem(n, na, seed)))
    return graphs


@pytest.fixture(scope="session")
def value_panel(random_graphs):
    """Per instance and start state: certificate value with the span of
    its eta potential over the states reachable from y0, measure program
    value with its transfer mass, horizon values, and perturbed upper
    bounds at theta = 2M/T."""
    panel = []
    for graph in random_graphs:
        n = graph.n_states
        M = graph.cost_bound
        vfs = {T: value_iteration_avg(graph, T) for T in CHAIN_HORIZONS}
        rows = []
        for y0 in range(n):
            primal = solve_primal(graph, y0)
            eta = primal.cert.eta
            reach = reachable_states(graph, y0)[0]
            rows.append(
                {
                    "d": primal.cert.mu,
                    "eta_span": float(np.max(eta[reach]) - eta[y0]),
                    "k": primal.value,
                    "xi_mass": float(np.sum(primal.pair.xi.weights)),
                    "V": {T: vfs[T](y0) for T in CHAIN_HORIZONS},
                    "upper": {
                        T: solve_primal(graph, y0, 2.0 * M / T).value
                        for T in CHAIN_HORIZONS
                    },
                }
            )
        panel.append({"graph": graph, "M": M, "rows": rows})
    return panel


def min_mean_cycle_brute(graph, y0: int) -> float:
    """Minimum mean over all simple cycles reachable from y0, by DFS
    enumeration on the per-edge cheapest condensed graph."""
    _, dist, _ = reachable_states(graph, y0)
    best_edge: dict[tuple[int, int], float] = {}
    for g in range(graph.n_pairs):
        s, t = int(graph.pair_state[g]), int(graph.pair_succ[g])
        if dist[s] < 0:
            continue
        cost = float(graph.pair_cost[g])
        if (s, t) not in best_edge or cost < best_edge[(s, t)]:
            best_edge[(s, t)] = cost
    adj: dict[int, list[tuple[int, float]]] = {}
    for (s, t), w in sorted(best_edge.items()):
        adj.setdefault(s, []).append((t, w))
    best = [np.inf]

    def dfs(root: int, v: int, cost: float, depth: int, visited: set) -> None:
        for t, w in adj.get(v, ()):
            if t < root:
                continue
            if t == root:
                best[0] = min(best[0], (cost + w) / (depth + 1))
            elif t not in visited:
                visited.add(t)
                dfs(root, t, cost + w, depth + 1, visited)
                visited.remove(t)

    for root in sorted(adj):
        dfs(root, root, 0.0, 0, {root})
    return best[0]


def horizon_value_brute(graph, y0: int, T: int) -> float:
    """Average cost of the best length-T action sequence, by recursion
    over all admissible continuations.  Exponential; tiny graphs only."""

    def go(y: int, left: int) -> float:
        if left == 0:
            return 0.0
        return min(
            graph.pair_cost[g] + go(int(graph.pair_succ[g]), left - 1)
            for g in graph.pairs_of_state(y)
        )

    return go(int(y0), T) / T


def plain_horizon_table(graph, T: int) -> np.ndarray:
    """The horizon table by one plain step per row over the whole graph:
    each row is the per-state minimum of S_{k-1}(f) + k(y, u), the floats
    dp._horizon_table must reproduce exactly."""
    S = np.zeros((T + 1, graph.n_states))
    for k in range(1, T + 1):
        lookahead = S[k - 1][graph.pair_succ] + graph.pair_cost
        S[k] = np.minimum.reduceat(lookahead, graph.state_offset[:-1])
    return S


def tied_graphs() -> list:
    """Random graphs with integer costs from {0, 1, 2}, which tie many
    lookaheads exactly."""
    graphs = []
    for seed in range(12):
        problem = random_problem(3 + seed % 6, 3, seed)
        drawn = np.random.default_rng(seed).integers(0, 3, size=problem.successor.shape)
        cost = np.where(problem.successor >= 0, drawn.astype(float), np.nan)
        graphs.append(build_graph(dataclasses.replace(problem, cost=cost)))
    return graphs


def policy_trajectory(graph, y0: int, T: int) -> Trajectory:
    """The horizon-T optimal trajectory from y0, unrolled from
    value_iteration_avg's policy table, row t used at time t: the
    measure `lrac sweep --sweep T` projects, read without dp's walk."""
    _, policy = value_iteration_avg(graph, T, want_policy=True)
    pairs, y = [], int(y0)
    for row in policy:
        pairs.append(int(row[y]))
        y = int(graph.pair_succ[pairs[-1]])
    return Trajectory.from_pairs(graph, pairs)


def unrolled_pairs(traj, length: int) -> np.ndarray:
    """Extend a recorded trajectory's pair sequence to the given length by
    repeating its detected cycle."""
    t0, p = detect_cycle(traj.pairs)
    out = np.empty(length, dtype=int)
    upto = min(length, t0)
    out[:upto] = traj.pairs[:upto]
    for t in range(t0, length):
        out[t] = traj.pairs[t0 + (t - t0) % p]
    return out


def discounted_pairing_brute(
    traj, alpha: float, q: np.ndarray, tail_bound: float = 1e-13
) -> float:
    """(1 - alpha) sum alpha^t q(pair at t), truncated once the geometric
    tail is below tail_bound."""
    qmax = float(np.max(np.abs(q))) + 1.0
    K = int(np.ceil(np.log(tail_bound * (1.0 - alpha) / qmax) / np.log(alpha))) + 1
    pairs = unrolled_pairs(traj, K)
    discounts = (1.0 - alpha) * alpha ** np.arange(K)
    return float(np.dot(discounts, np.asarray(q, dtype=float)[pairs]))


def box_distance(measure, basis):
    """The projection program in its box form, |<f_j, gamma> - t_j| <= e_j
    at cost <w, e>, solved by HiGHS at feasibility tolerances of 1e-10
    (at its defaults it can sit 2.7e-8 from the optimum)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    graph = measure.graph
    n, P, J = graph.n_states, graph.n_pairs, basis.size
    marg = np.zeros((n, P))
    inflow = np.zeros((n, P))
    marg[graph.pair_state, np.arange(P)] = 1.0
    inflow[graph.pair_succ, np.arange(P)] = 1.0
    A_eq = np.zeros((1 + n, P + J))
    A_eq[0, :P] = 1.0
    A_eq[1:, :P] = inflow - marg
    b_eq = np.concatenate([[1.0], np.zeros(n)])
    target = basis.matrix @ measure.weights
    A_ub = np.block([[basis.matrix, -np.eye(J)], [-basis.matrix, -np.eye(J)]])
    b_ub = np.concatenate([target, -target])
    c = np.concatenate([np.zeros(P), basis.weights])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return res.fun
