"""Command-line surface: solve and sweep output, the invariant check
command, exit codes, and determinism."""

import json

import numpy as np
import pytest

import lrac.cli
from lrac import IterationLimit, problem_to_dict, save_problem, toy_problem
from lrac.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _broken_viability_file(tmp_path):
    # state 1 has no admissible action
    data = {
        "name": "dead-end",
        "states": [[0.0], [1.0]],
        "actions": ["a"],
        "transitions": [{"state": 0, "action": 0, "next": 1, "cost": 1.0}],
    }
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestSolve:
    def test_toy_values(self, capsys):
        code, out = _run(
            capsys, ["solve", "--problem", "toy", "--y0", "15", "--T", "4,16"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["problem"] == "toy"
        assert data["y0_state"] == [0.5]
        assert data["d_star"] == pytest.approx(-0.5, abs=1e-9)
        assert data["k_star"] == pytest.approx(-0.5, abs=1e-9)
        assert data["sup_over_K"] == pytest.approx(-0.5, abs=1e-9)
        assert data["v_per"]["value"] == pytest.approx(-0.5)
        assert data["V_T"]["4"] == pytest.approx(-0.25, abs=1e-12)
        assert data["V_T"]["16"] == pytest.approx(-0.4375, abs=1e-12)
        assert abs(data["cap_dual"]) <= 1e-9

    def test_chain_report_brackets(self, capsys):
        code, out = _run(
            capsys,
            ["solve", "--problem", "threestate", "--y0", "0", "--T", "10,100"],
        )
        assert code == 0
        data = json.loads(out)
        for row in data["chain"]:
            assert row["upper_ok"] is True

    def test_theta_column(self, capsys):
        code, out = _run(
            capsys,
            [
                "solve",
                "--problem",
                "threestate",
                "--y0",
                "0",
                "--theta",
                "0.5,0.0",
            ],
        )
        data = json.loads(out)
        assert set(data["k_star_theta"]) == {"0.0", "0.5"}
        assert data["k_star_theta"]["0.0"] <= data["k_star_theta"]["0.5"] + 1e-9

    def test_constant_cost_file(self, capsys, tmp_path):
        data = {
            "name": "flat",
            "states": [[0.0], [1.0]],
            "actions": ["a"],
            "transitions": [
                {"state": 0, "action": 0, "next": 1, "cost": 0.25},
                {"state": 1, "action": 0, "next": 0, "cost": 0.25},
            ],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(data))
        code, out = _run(capsys, ["solve", "--problem", str(path), "--y0", "0"])
        assert code == 0
        parsed = json.loads(out)
        for key in ("d_star", "k_star", "sup_over_K"):
            assert parsed[key] == pytest.approx(0.25, abs=1e-9)
        assert parsed["v_per"]["value"] == pytest.approx(0.25)

    def test_csv_format_emits_chain(self, capsys):
        code, out = _run(
            capsys,
            [
                "solve",
                "--problem",
                "toy",
                "--y0",
                "15",
                "--T",
                "4",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "T,lower,V_T,upper,lower_ok,upper_ok"
        assert lines[1].startswith("4,")

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, _ = _run(
            capsys,
            [
                "solve",
                "--problem",
                "toy",
                "--y0",
                "15",
                "--out",
                str(target),
            ],
        )
        assert code == 0
        assert json.loads(target.read_text())["problem"] == "toy"


class TestSweep:
    def test_horizon_sweep_matches_closed_form(self, capsys):
        values = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        code, out = _run(
            capsys,
            [
                "sweep",
                "--problem",
                "toy",
                "--y0",
                "15",
                "--sweep",
                "T",
                "--values",
                ",".join(str(v) for v in values),
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "parameter,value,gap_to_dstar,distance_to_W"
        assert len(lines) == 1 + len(values)
        for line, T in zip(lines[1:], values):
            cols = line.split(",")
            assert float(cols[0]) == T
            assert float(cols[1]) == pytest.approx(-0.5 + 1.0 / T, abs=1e-9)
            assert float(cols[2]) == pytest.approx(1.0 / T, abs=1e-9)

    def test_theta_sweep_monotone(self, capsys):
        code, out = _run(
            capsys,
            [
                "sweep",
                "--problem",
                "random",
                "--states",
                "7",
                "--seed",
                "3",
                "--y0",
                "0",
                "--sweep",
                "theta",
                "--values",
                "0,0.1,0.5,2",
            ],
        )
        assert code == 0
        col = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert col == sorted(col)

    def test_alpha_sweep_vanishing_discount(self, capsys):
        code, out = _run(
            capsys,
            [
                "sweep",
                "--problem",
                "threestate",
                "--y0",
                "0",
                "--sweep",
                "alpha",
                "--values",
                "0.9,0.99,0.999",
            ],
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        h = [float(r[1]) for r in rows]
        assert abs(h[-1] - 2.0) <= 0.01
        assert abs(h[0] - 2.0) >= abs(h[-1] - 2.0) - 1e-12

    def test_json_format(self, capsys):
        code, out = _run(
            capsys,
            [
                "sweep",
                "--problem",
                "threestate",
                "--y0",
                "0",
                "--sweep",
                "T",
                "--values",
                "5,10",
                "--format",
                "json",
            ],
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["parameter"] for r in rows] == [5, 10]
        assert all("distance_to_W" in r for r in rows)


class TestVerify:
    def test_toy_passes(self, capsys):
        code, out = _run(capsys, ["verify", "--problem", "toy", "--y0", "15"])
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 7

    def test_random_instance_passes(self, capsys):
        code, out = _run(
            capsys,
            [
                "verify",
                "--problem",
                "random",
                "--states",
                "9",
                "--seed",
                "7",
                "--y0",
                "2",
            ],
        )
        assert code == 0
        assert "FAIL" not in out

    def test_broken_viability_exits_one(self, capsys, tmp_path):
        path = _broken_viability_file(tmp_path)
        code = main(["verify", "--problem", path, "--y0", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "ViabilityViolation" in out

    def test_solve_also_reports_viability(self, capsys, tmp_path):
        path = _broken_viability_file(tmp_path)
        code = main(["solve", "--problem", path, "--y0", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "ViabilityViolation" in err


class TestExitCodes:
    def test_schema_violation_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"name": "x"}))
        assert main(["solve", "--problem", str(path), "--y0", "0"]) == 2

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["solve", "--problem", missing, "--y0", "0"]) == 2

    def test_bad_y0_is_usage_error(self, capsys):
        assert main(["solve", "--problem", "toy", "--y0", "99"]) == 2
        assert main(["solve", "--problem", "toy", "--y0", "-1"]) == 2

    def test_solver_failure_exits_three(self, capsys, monkeypatch):
        def give_up(graph, y0, theta=0.0):
            raise IterationLimit("simplex exceeded 10 pivots on a 3x4 tableau")

        monkeypatch.setattr(lrac.cli, "solve_dual", give_up)
        assert main(["solve", "--problem", "toy", "--y0", "15"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "solver failed: IterationLimit: "
            "simplex exceeded 10 pivots on a 3x4 tableau\n"
        )


class TestDeterminism:
    def test_solve_byte_identical(self, capsys):
        argv = ["solve", "--problem", "toy", "--y0", "15", "--theta", "0.25"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second

    def test_random_builtin_keyed_by_seed(self, capsys):
        base = ["solve", "--problem", "random", "--states", "6", "--y0", "0"]
        _, a = _run(capsys, base + ["--seed", "5"])
        _, b = _run(capsys, base + ["--seed", "5"])
        _, c = _run(capsys, base + ["--seed", "6"])
        assert a == b
        assert a != c

    def test_file_round_trip_matches_builtin(self, capsys, tmp_path):
        path = tmp_path / "toy.json"
        save_problem(toy_problem(), str(path))
        _, from_file = _run(capsys, ["solve", "--problem", str(path), "--y0", "15"])
        _, builtin = _run(capsys, ["solve", "--problem", "toy", "--y0", "15"])
        assert json.loads(from_file)["d_star"] == json.loads(builtin)["d_star"]
