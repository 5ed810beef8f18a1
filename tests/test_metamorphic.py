"""Metamorphic relations: relabelling the states, or adding a component
that y0 cannot reach, must not move the values `lrac solve` prints.

Each problem is solved from every start in three forms: as given, with
its states relabelled (new state i is old state perm[i], y0 mapped
along), and with random_problem(15, 3, 99) appended as an unreachable
component.  V_T, d_star, k_star, k_star_theta and sup_over_K must agree
bit for bit; h_alpha, read from discounted value iteration over the whole
graph, within 1e-15 (1 + M).  chain, certificate and feedback are not
compared: the union can change M, and eta off the reached set is read
from the whole graph.  `lrac verify` must pass on all three forms.
"""

import json

import numpy as np
import pytest

from lrac import (
    ControlProblem,
    random_problem,
    save_problem,
    threestate_problem,
    toy_problem,
)
from lrac.cli import main

SOLVE_FLAGS = ["--T", "4,16,64,300", "--alpha", "0.5,0.9,0.99", "--theta", "0,0.05,1"]
EXACT_KEYS = ("V_T", "d_star", "k_star", "k_star_theta", "sup_over_K")

PANEL = {
    "toy": toy_problem,
    "threestate": threestate_problem,
    **{
        f"random-{n}-{seed}": (lambda n=n, seed=seed: random_problem(n, 3, seed))
        for n in (10, 20)
        for seed in range(4)
    },
}


def relabelled(problem: ControlProblem, perm: np.ndarray) -> ControlProblem:
    """New state i is old state perm[i]; successors are mapped along."""
    inv = np.argsort(perm)
    succ = problem.successor[perm]
    return ControlProblem(
        name=problem.name,
        states=problem.states[perm],
        actions=problem.actions,
        successor=np.where(succ >= 0, inv[np.maximum(succ, 0)], -1),
        cost=problem.cost[perm],
    )


def disjoint_union(problem: ControlProblem, other: ControlProblem) -> ControlProblem:
    """problem's states, then other's, with other's successors offset by n
    and the shorter action list padded with inadmissible actions."""
    n = problem.n_states
    K = max(problem.n_actions, other.n_actions)
    actions = problem.actions + other.actions[problem.n_actions :]

    def padded(p: ControlProblem, offset: int) -> tuple[np.ndarray, np.ndarray]:
        succ = np.full((p.n_states, K), -1)
        cost = np.full((p.n_states, K), np.nan)
        succ[:, : p.n_actions] = np.where(p.successor >= 0, p.successor + offset, -1)
        cost[:, : p.n_actions] = p.cost
        return succ, cost

    (s1, c1), (s2, c2) = padded(problem, 0), padded(other, n)
    return ControlProblem(
        name=problem.name,
        states=np.vstack([problem.states, other.states]),
        actions=actions,
        successor=np.vstack([s1, s2]),
        cost=np.vstack([c1, c2]),
    )


def _run(capsys, command: str, path, y0: int, flags=()) -> tuple[int, str]:
    code = main([command, "--problem", str(path), "--y0", str(y0), *flags])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", list(PANEL))
def test_relabel_and_disjoint_union(name, tmp_path, capsys):
    problem = PANEL[name]()
    n = problem.n_states
    perm = np.random.default_rng(0).permutation(n)
    inv = np.argsort(perm)
    paths = {}
    for form, p in (
        ("given", problem),
        ("relabel", relabelled(problem, perm)),
        ("union", disjoint_union(problem, random_problem(15, 3, 99))),
    ):
        paths[form] = tmp_path / f"{form}.json"
        save_problem(p, str(paths[form]))

    for y0 in range(n):
        starts = {"given": y0, "relabel": int(inv[y0]), "union": y0}
        results = {}
        for form, path in paths.items():
            code, out = _run(capsys, "solve", path, starts[form], SOLVE_FLAGS)
            assert code == 0, (form, y0)
            results[form] = json.loads(out)
            code, out = _run(capsys, "verify", path, starts[form])
            assert code == 0, (form, y0, out)
        base = results["given"]
        tol = 1e-15 * (1.0 + base["cost_bound"])
        for form in ("relabel", "union"):
            other = results[form]
            for key in EXACT_KEYS:
                assert other[key] == base[key], (form, y0, key)
            assert other["h_alpha"].keys() == base["h_alpha"].keys()
            for alpha, h in base["h_alpha"].items():
                assert abs(other["h_alpha"][alpha] - h) <= tol, (form, y0, alpha)
