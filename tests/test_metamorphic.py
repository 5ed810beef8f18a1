"""Metamorphic relations: relabelling the states or the actions, or
adding a component that y0 cannot reach, must not move the values
`lrac solve` prints.

Each problem is solved from every start in four forms: as given, with
its states relabelled (new state i is old state perm[i], y0 mapped
along), with its actions relabelled (new action j is old action
sigma[j], its label, successor and cost columns moving together), and
with random_problem(15, 3, 99) appended as an unreachable component.
V_T, d_star, k_star, k_star_theta and sup_over_K must agree bit for bit
in every form.  h_alpha is computed on the sub-graph of the states
reachable from y0.  The union leaves that sub-graph as it is, and the
action relabelling keeps its states in order and moves only which of a
state's tied pairs the lowest index picks, so h_alpha must agree bit for
bit in both, as it does on this panel.  Relabelling the states reorders
that sub-graph's rows, and the linear solves behind h_alpha with them,
so there it must agree within 1e-15 (1 + M).  chain, certificate and
feedback are not compared: the union can change M, the state relabelling
and the union change the states off the reached set, and the action
relabelling changes which of two tied actions feedback picks.
`lrac verify` must pass on all four forms.
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

from conftest import disjoint_union

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


def actions_relabelled(problem: ControlProblem, sigma: np.ndarray) -> ControlProblem:
    """New action j is old action sigma[j]: label, successor and cost."""
    return ControlProblem(
        name=problem.name,
        states=problem.states,
        actions=tuple(problem.actions[j] for j in sigma),
        successor=problem.successor[:, sigma],
        cost=problem.cost[:, sigma],
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
        ("actions", actions_relabelled(problem, np.roll(np.arange(problem.n_actions), 1))),
        ("union", disjoint_union(problem, random_problem(15, 3, 99))),
    ):
        paths[form] = tmp_path / f"{form}.json"
        save_problem(p, str(paths[form]))

    for y0 in range(n):
        starts = {"given": y0, "relabel": int(inv[y0]), "actions": y0, "union": y0}
        results = {}
        for form, path in paths.items():
            code, out = _run(capsys, "solve", path, starts[form], SOLVE_FLAGS)
            assert code == 0, (form, y0)
            results[form] = json.loads(out)
            code, out = _run(capsys, "verify", path, starts[form])
            assert code == 0, (form, y0, out)
        base = results["given"]
        tol = 1e-15 * (1.0 + base["cost_bound"])
        for form in ("relabel", "actions", "union"):
            other = results[form]
            for key in EXACT_KEYS:
                assert other[key] == base[key], (form, y0, key)
            assert other["h_alpha"].keys() == base["h_alpha"].keys()
            for alpha, h in base["h_alpha"].items():
                if form != "relabel":
                    assert other["h_alpha"][alpha] == h, (form, y0, alpha)
                else:
                    assert abs(other["h_alpha"][alpha] - h) <= tol, (form, y0, alpha)
