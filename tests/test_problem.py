"""Problem construction, graph enumeration, snapping, and the JSON schema."""

import json

import numpy as np
import pytest

from lrac.cli import main
from lrac.dp import _horizon_table
from lrac.problem import _closed_subgraph
from lrac.programs import reachable_states
from lrac import (
    ControlProblem,
    ProblemFormatError,
    ViabilityViolation,
    build_graph,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    random_problem,
    save_problem,
    snap_dynamics,
    threestate_problem,
    toy_problem,
)


def _tiny(succ, cost, n_actions=2):
    states = np.arange(len(succ), dtype=float)[:, None]
    actions = tuple(chr(ord("a") + i) for i in range(n_actions))
    return ControlProblem(
        name="tiny",
        states=states,
        actions=actions,
        successor=np.array(succ),
        cost=np.array(cost, dtype=float),
    )


class TestControlProblem:
    def test_shapes_must_match(self):
        with pytest.raises(ProblemFormatError):
            ControlProblem(
                name="bad",
                states=np.zeros((2, 1)),
                actions=("a",),
                successor=np.zeros((3, 1), dtype=int),
                cost=np.zeros((2, 1)),
            )

    def test_states_need_a_coordinate(self):
        with pytest.raises(ProblemFormatError, match="at least one coordinate"):
            ControlProblem(
                name="bad",
                states=np.zeros((2, 0)),
                actions=("a",),
                successor=np.zeros((2, 1), dtype=int),
                cost=np.zeros((2, 1)),
            )

    def test_states_must_be_2d(self):
        with pytest.raises(ProblemFormatError):
            ControlProblem(
                name="bad",
                states=np.zeros(4),
                actions=("a",),
                successor=np.zeros((4, 1), dtype=int),
                cost=np.zeros((4, 1)),
            )

    def test_successor_range_checked(self):
        with pytest.raises(ProblemFormatError):
            _tiny([[5, 0], [0, 1]], [[0.0, 0.0], [0.0, 0.0]])

    def test_cost_must_be_finite_where_admissible(self):
        with pytest.raises(ProblemFormatError):
            _tiny([[1, 0], [0, 1]], [[np.nan, 0.0], [0.0, 0.0]])

    def test_nan_cost_fine_on_inadmissible_pairs(self):
        p = _tiny([[1, -1], [0, 1]], [[0.5, np.nan], [0.0, 1.0]])
        assert p.n_states == 2 and p.n_actions == 2

    def test_arrays_read_only(self):
        p = threestate_problem()
        with pytest.raises(ValueError):
            p.successor[0, 0] = 0

    def test_admissible_actions(self):
        p = threestate_problem()
        # state 2 only has its self-loop under action "a"
        assert p.admissible_actions(2).tolist() == [0]
        assert p.admissible_actions(0).tolist() == [0, 1]


class TestBuildGraph:
    def test_lexicographic_pair_order(self):
        g = build_graph(threestate_problem())
        pairs = list(zip(g.pair_state.tolist(), g.pair_action.tolist()))
        assert pairs == sorted(pairs)
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]

    def test_offsets_slice_states(self):
        g = build_graph(threestate_problem())
        assert g.pairs_of_state(0).tolist() == [0, 1]
        assert g.pairs_of_state(2).tolist() == [4]
        assert g.n_pairs == 5

    def test_pair_index_lookup(self):
        g = build_graph(threestate_problem())
        assert g.pair_index(0, 1) == 1
        assert g.pair_index(2, 1) == -1

    def test_cost_bound(self):
        g = build_graph(threestate_problem())
        assert g.cost_bound == 5.0

    def test_viability_violation_names_states(self):
        p = _tiny([[1, -1], [-1, -1]], [[0.0, np.nan], [np.nan, np.nan]])
        with pytest.raises(ViabilityViolation, match=r"\[1\]"):
            build_graph(p)

    def test_random_problems_always_viable(self):
        for seed in range(5):
            g = build_graph(random_problem(6, 3, seed))
            assert g.n_pairs >= 6  # at least the self-loop per state


class TestClosedSubgraph:
    """The graph of the states reachable from y0: its pairs are the full
    graph's over those states, in order, and every horizon table row over
    it is the full table's row over them."""

    def _starts(self):
        graphs = [build_graph(toy_problem()), build_graph(threestate_problem())]
        graphs += [build_graph(random_problem(n, 3, seed)) for n in (20, 80) for seed in range(3)]
        for graph in graphs:
            for y0 in range(0, graph.n_states, max(1, graph.n_states // 7)):
                yield graph, y0

    def test_pairs_map_back(self):
        for graph, y0 in self._starts():
            reach = reachable_states(graph, y0)[0]
            sub, states, pairs = _closed_subgraph(graph, y0, reach)
            assert np.array_equal(states, reach)
            assert np.array_equal(pairs, np.flatnonzero(np.isin(graph.pair_state, reach)))
            assert np.array_equal(states[sub.pair_state], graph.pair_state[pairs])
            assert np.array_equal(states[sub.pair_succ], graph.pair_succ[pairs])
            assert np.array_equal(sub.pair_action, graph.pair_action[pairs])
            assert np.array_equal(sub.pair_cost, graph.pair_cost[pairs])
            rebuilt = build_graph(sub.problem)
            for name in ("pair_state", "pair_action", "pair_succ", "pair_cost", "state_offset"):
                assert np.array_equal(getattr(sub, name), getattr(rebuilt, name)), name

    def test_table_rows_are_the_full_rows(self):
        for graph, y0 in self._starts():
            sub, states, _ = _closed_subgraph(graph, y0, reachable_states(graph, y0)[0])
            for T in (3, 300):
                full = _horizon_table(graph, T)
                assert np.array_equal(_horizon_table(sub, T), full[:, states])

    def test_every_state_is_the_graph_itself(self):
        graph = build_graph(threestate_problem())
        sub, states, pairs = _closed_subgraph(graph, 1, [2, 0, 1, 1])
        assert sub is graph
        assert states.tolist() == [0, 1, 2] and pairs.tolist() == list(range(graph.n_pairs))

    @pytest.mark.parametrize("y0, states", [(0, [1, 2]), (0, [0, 1]), (-1, [0, 1, 2]), (3, [0, 1, 2])])
    def test_set_must_hold_y0_and_be_closed(self, y0, states):
        with pytest.raises(ValueError, match="closed under the dynamics"):
            _closed_subgraph(build_graph(threestate_problem()), y0, states)


class TestSnapDynamics:
    def test_exact_images_snap_to_themselves(self):
        grid = np.array([[-1.0], [0.0], [1.0]])
        succ = snap_dynamics(grid, ("neg",), lambda y, a: -y)
        assert succ[:, 0].tolist() == [2, 1, 0]

    def test_outside_bounding_box_is_inadmissible(self):
        grid = np.array([[0.0], [1.0]])
        succ = snap_dynamics(grid, ("up",), lambda y, a: y + 2.0)
        assert succ[0, 0] == -1 and succ[1, 0] == -1

    def test_nan_image_is_rejected(self):
        grid = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match=r"f\(state 0, 'a'\) has a NaN coordinate"):
            snap_dynamics(grid, ("a",), lambda y, a: np.array([np.nan]))

        def f(y, a):
            return np.array([y[0], np.nan]) if (y[0], a) == (1.0, "b") else y

        with pytest.raises(ValueError, match=r"f\(state 1, 'b'\) has a NaN coordinate"):
            snap_dynamics(np.array([[0.0, 0.0], [1.0, 1.0]]), ("a", "b"), f)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "-inf"])
    def test_infinite_image_is_inadmissible(self, sign):
        grid = np.array([[0.0], [1.0]])
        succ = snap_dynamics(grid, ("a",), lambda y, a: np.array([sign * np.inf]))
        assert succ[:, 0].tolist() == [-1, -1]

    def test_tie_snaps_to_lower_index(self):
        grid = np.array([[0.0], [1.0]])
        succ = snap_dynamics(grid, ("mid",), lambda y, a: np.array([0.5]))
        assert succ[:, 0].tolist() == [0, 0]

    def test_toy_dynamics_exact_on_grid(self):
        p = toy_problem()
        grid = p.states[:, 0]
        for y in range(p.n_states):
            for u, label in enumerate(p.actions):
                z = p.successor[y, u]
                assert grid[z] == float(label) * grid[y]


def _snap_loop(states, actions, f):
    """Per-point nearest-state search: the reference for snap_dynamics."""
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    lo, hi = states.min(axis=0), states.max(axis=0)
    succ = np.full((n, len(actions)), -1, dtype=int)
    for y in range(n):
        for a_idx, a in enumerate(actions):
            image = np.asarray(f(states[y], a), dtype=float).reshape(-1)
            if image.shape != (states.shape[1],):
                raise ValueError(
                    f"f(state {y}, {a!r}) has shape {image.shape}, "
                    f"expected ({states.shape[1]},)"
                )
            if np.any(image < lo) or np.any(image > hi):
                continue
            succ[y, a_idx] = int(np.argmin(np.sum((states - image) ** 2, axis=1)))
    return succ


_GRID_2D = np.array([[i, j] for i in range(5) for j in range(4)], dtype=float)


def _half_steps(y, a):
    # half-integer images sit at equal distance from two or four states;
    # "out" leaves the box along one coordinate only
    step = {"ne": (0.5, 0.5), "e": (0.5, 0.0), "n": (0.0, 1.5), "out": (0.0, 2.5)}[a]
    return y + np.array(step)


class TestSnapMatchesLoop:
    @pytest.mark.parametrize(
        "states, actions, f",
        [
            (
                toy_problem().states,
                ("-1", "+1"),
                lambda y, a: float(a) * y,
            ),
            (_GRID_2D, ("ne", "e", "n", "out"), _half_steps),
            (
                np.linspace(-1.0, 1.0, 9)[:, None],
                ("half", "shift"),
                lambda y, a: 0.5 * y if a == "half" else y + 0.3,
            ),
        ],
        ids=["toy", "grid-2d-ties", "outside-box"],
    )
    def test_same_table(self, states, actions, f):
        got = snap_dynamics(states, actions, f)
        assert got.dtype == int
        assert np.array_equal(got, _snap_loop(states, actions, f))

    def test_grid_exercises_ties_and_exits(self):
        succ = snap_dynamics(_GRID_2D, ("ne", "e", "n", "out"), _half_steps)
        # (0, 0) + (0.5, 0.5) is equidistant from four states: the lowest wins
        assert succ[0, 0] == 0
        assert (succ == -1).any() and (succ >= 0).any()

    def test_calls_f_once_per_pair_in_order(self):
        grid = np.array([[0.0], [1.0], [2.0]])
        calls = []

        def f(y, a):
            calls.append((float(y[0]), a))
            return y

        snap_dynamics(grid, ("p", "q"), f)
        assert calls == [(y, a) for y in (0.0, 1.0, 2.0) for a in ("p", "q")]

    def test_shape_error_unchanged(self):
        grid = np.array([[0.0, 0.0], [1.0, 1.0]])

        def f(y, a):
            return y if (y[0], a) != (1.0, "b") else np.zeros(3)

        messages = []
        for snap in (snap_dynamics, _snap_loop):
            with pytest.raises(ValueError) as exc:
                snap(grid, ("a", "b"), f)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == "f(state 1, 'b') has shape (3,), expected (2,)"


class TestJsonSchema:
    def test_round_trip(self, tmp_path):
        p = threestate_problem()
        path = tmp_path / "p.json"
        save_problem(p, str(path))
        q = load_problem(str(path))
        assert q.name == p.name
        assert np.array_equal(q.states, p.states)
        assert q.actions == p.actions
        assert np.array_equal(q.successor, p.successor)
        admissible = p.successor >= 0
        assert np.array_equal(q.cost[admissible], p.cost[admissible])

    def test_round_trip_random(self, tmp_path):
        p = random_problem(7, 3, 3)
        path = tmp_path / "r.json"
        save_problem(p, str(path))
        q = load_problem(str(path))
        assert np.array_equal(q.successor, p.successor)

    def test_not_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(ProblemFormatError, match="not valid JSON"):
            load_problem(str(path))

    def test_missing_key(self):
        with pytest.raises(ProblemFormatError, match="missing required key"):
            problem_from_dict({"name": "x", "states": [[0.0]], "actions": ["a"]})

    def test_states_need_a_coordinate(self):
        doc = {
            "name": "flat",
            "states": [[], []],
            "actions": ["a"],
            "transitions": [
                {"state": 0, "action": 0, "next": 1, "cost": 0.0},
                {"state": 1, "action": 0, "next": 0, "cost": 1.0},
            ],
        }
        with pytest.raises(ProblemFormatError, match="each state needs at least one coordinate"):
            problem_from_dict(doc)

    def test_document_must_be_object(self):
        with pytest.raises(ProblemFormatError):
            problem_from_dict([1, 2, 3])

    def test_scalar_states_promoted_to_column(self):
        p = problem_from_dict(
            {
                "name": "flat",
                "states": [0.0, 1.0],
                "actions": ["a"],
                "transitions": [
                    {"state": 0, "action": 0, "next": 1, "cost": 0.0},
                    {"state": 1, "action": 0, "next": 0, "cost": 0.0},
                ],
            }
        )
        assert p.states.shape == (2, 1)

    @pytest.mark.parametrize(
        "patch",
        [
            {"state": 9},
            {"action": 9},
            {"next": 9},
            {"state": 0.5},
            {"state": True},
            {"cost": float("inf")},
            {"cost": "free"},
        ],
    )
    def test_bad_transition_rejected(self, patch):
        rec = {"state": 0, "action": 0, "next": 1, "cost": 0.0}
        rec.update(patch)
        doc = {
            "name": "x",
            "states": [[0.0], [1.0]],
            "actions": ["a"],
            "transitions": [rec],
        }
        with pytest.raises(ProblemFormatError):
            problem_from_dict(doc)

    @pytest.mark.parametrize(
        "where, message",
        [
            ("cost", "transitions[0]: cost must be a finite number"),
            ("state", "states are not numeric: int too large to convert to float"),
        ],
    )
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, where, message):
        # a 400-digit integer literal parses as a Python int, unlike 1e400,
        # which parses as inf; it must be rejected in one line, exit 2
        big = "9" * 400
        cost = big if where == "cost" else "0"
        state = big if where == "state" else "0"
        path = tmp_path / "big.json"
        path.write_text(
            '{"name": "x", "states": [[%s], [1]], "actions": ["a"], "transitions": ['
            '{"state": 0, "action": 0, "next": 1, "cost": %s}, '
            '{"state": 1, "action": 0, "next": 0, "cost": 0}]}' % (state, cost)
        )
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(str(path))
        assert str(exc.value) == f"{path}: {message}"
        assert main(["solve", "--problem", str(path), "--y0", "0"]) == 2
        assert capsys.readouterr().err == f"problem input rejected: {path}: {message}\n"

    def test_duplicate_pair_rejected(self):
        doc = {
            "name": "x",
            "states": [[0.0], [1.0]],
            "actions": ["a"],
            "transitions": [
                {"state": 0, "action": 0, "next": 1, "cost": 0.0},
                {"state": 0, "action": 0, "next": 0, "cost": 1.0},
            ],
        }
        with pytest.raises(ProblemFormatError, match="duplicate"):
            problem_from_dict(doc)

    def test_to_dict_lists_admissible_pairs_only(self):
        d = problem_to_dict(threestate_problem())
        assert len(d["transitions"]) == 5
        assert json.dumps(d)  # serializable as-is


class TestBuiltins:
    def test_toy_grid(self):
        p = toy_problem()
        assert p.n_states == 21
        assert p.states[0, 0] == -1.0 and p.states[20, 0] == 1.0
        assert p.states[15, 0] == 0.5
        g = build_graph(p)
        assert g.n_pairs == 42  # both actions admissible everywhere

    def test_random_problem_deterministic(self):
        a = random_problem(9, 3, 11)
        b = random_problem(9, 3, 11)
        assert np.array_equal(a.successor, b.successor)
        admissible = a.successor >= 0
        assert np.array_equal(a.cost[admissible], b.cost[admissible])
        assert np.array_equal(a.states, b.states)

    def test_random_problem_seed_matters(self):
        a = random_problem(9, 3, 1)
        b = random_problem(9, 3, 2)
        assert not np.array_equal(a.successor, b.successor) or not np.array_equal(
            a.cost[a.successor >= 0], b.cost[b.successor >= 0]
        )

    def test_random_self_loop_fallback(self):
        p = random_problem(5, 2, 0)
        assert np.array_equal(p.successor[:, 0], np.arange(5))
