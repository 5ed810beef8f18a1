"""Built-in problems: a sign-flip chain on a symmetric grid, a three-state
fixture with start-dependent optimal cycles, and a seeded random generator.
"""

from __future__ import annotations

import numpy as np

from .problem import ControlProblem, snap_dynamics

__all__ = ["toy_problem", "threestate_problem", "random_problem", "make_problem"]

# Chance that a non-self-loop action of a random instance is admissible.
EDGE_PROB = 0.7


def toy_problem(half_points: int = 10) -> ControlProblem:
    """Sign-flip dynamics on a symmetric grid in [-1, 1].

    States are i / half_points for i in -half_points..half_points, actions
    "-1" and "+1" move y to u * y, and the running cost is the state itself.
    The grid is built as i * step so that negation maps grid points to grid
    points exactly in floating point, which keeps the snapped dynamics an
    exact copy of the continuous ones.

    The long-run average optimal value from y0 is -|y0|: from a positive
    start the cheapest behavior is one flip to -y0 and then holding, so
    finite-horizon values carry a 2*y0/T transient premium.
    """
    step = 1.0 / half_points
    grid = np.array([i * step for i in range(-half_points, half_points + 1)])
    states = grid[:, None]
    actions = ("-1", "+1")
    succ = snap_dynamics(states, actions, lambda y, a: float(a) * y)
    cost = np.repeat(grid[:, None], len(actions), axis=1)
    cost = np.where(succ >= 0, cost, np.nan)
    return ControlProblem(
        name="toy", states=states, actions=actions, successor=succ, cost=cost
    )


def threestate_problem() -> ControlProblem:
    """Three states whose optimal cycle depends on where you start.

    State 2 only has its own expensive loop (mean 4), while states 0 and 1
    can trade between a cheap two-cycle (mean 2) and worse options; state 0
    can also fall into state 2's trap via the free edge 0 -> 2.
    """
    states = np.array([[0.0], [1.0], [2.0]])
    actions = ("a", "b")
    succ = np.array([[1, 2], [0, 1], [2, -1]])
    cost = np.array([[3.0, 0.0], [1.0, 5.0], [4.0, np.nan]])
    return ControlProblem(
        name="threestate", states=states, actions=actions, successor=succ, cost=cost
    )


def random_problem(n_states: int, n_actions: int, seed: int) -> ControlProblem:
    """Seeded random instance with guaranteed viability.

    Action 0 is always a self-loop, so every state has an admissible action
    regardless of the draw.  Each remaining (state, action) is admissible
    with probability EDGE_PROB and then jumps to a uniform random state.
    Costs are uniform on [0, 1]; state coordinates are uniform on [-1, 1].
    """
    if n_states < 1 or n_actions < 1:
        raise ValueError("need at least one state and one action")
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1.0, 1.0, size=(n_states, 1))
    succ = np.full((n_states, n_actions), -1, dtype=int)
    succ[:, 0] = np.arange(n_states)
    if n_actions > 1:
        admissible = rng.random((n_states, n_actions - 1)) < EDGE_PROB
        targets = rng.integers(0, n_states, size=(n_states, n_actions - 1))
        succ[:, 1:] = np.where(admissible, targets, -1)
    cost = np.where(succ >= 0, rng.uniform(0.0, 1.0, size=succ.shape), np.nan)
    actions = tuple(f"u{j}" for j in range(n_actions))
    return ControlProblem(
        name=f"random-{n_states}x{n_actions}-seed{seed}",
        states=states,
        actions=actions,
        successor=succ,
        cost=cost,
    )


def make_problem(
    kind: str,
    n_states: int | None = None,
    n_actions: int | None = None,
    seed: int | None = None,
) -> ControlProblem:
    """Resolve a builtin name ("toy", "threestate", "random") to a problem."""
    if kind == "toy":
        return toy_problem()
    if kind == "threestate":
        return threestate_problem()
    if kind == "random":
        if n_states is None or n_actions is None or seed is None:
            raise ValueError("random problem needs --states, --actions and --seed")
        return random_problem(n_states, n_actions, seed)
    raise ValueError(f"unknown builtin problem {kind!r}")
