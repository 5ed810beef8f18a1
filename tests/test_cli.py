"""Command-line surface: solve and sweep output, the invariant check
command, exit codes, and determinism."""

import dataclasses
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import lrac.cli
import lrac.dp
from lrac import (
    DualCertificate,
    IterationLimit,
    build_graph,
    certificate_residuals,
    chebyshev_basis,
    occupational_measure,
    problem_to_dict,
    random_problem,
    save_problem,
    solve_primal,
    toy_problem,
)
from lrac.cli import main

from conftest import (
    box_distance,
    discounted_measure,
    disjoint_union,
    plain_horizon_table,
    policy_trajectory,
)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _rejected(capsys, argv):
    """stderr of a command that must exit 2 with one line and no output."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), captured.err
    return captured.err


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

    def test_chain_report_brackets(self, capsys):
        code, out = _run(
            capsys,
            ["solve", "--problem", "threestate", "--y0", "0", "--T", "10,100"],
        )
        assert code == 0
        data = json.loads(out)
        for row in data["chain"]:
            assert row["lower_ok"] is True
            assert row["upper_ok"] is True

    def test_chain_lower_link_allows_cheap_transient(self, capsys):
        # from y0 = 1 the optimal horizon walks pass edges cheaper than d*,
        # so V_T < d* at every listed T; the certificate's link still holds
        code, out = _run(
            capsys,
            [
                "solve",
                "--problem",
                "random",
                "--states",
                "5",
                "--actions",
                "4",
                "--seed",
                "2",
                "--y0",
                "1",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["chain"]) == 3
        for row in data["chain"]:
            assert row["V_T"] < data["d_star"]
            assert row["lower"] <= data["d_star"]
            assert row["lower_ok"] is True
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

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "verify.txt"
        code, out = _run(
            capsys,
            ["verify", "--problem", "threestate", "--y0", "0", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        lines = target.read_text().splitlines()
        assert len(lines) == 7
        assert all(line.startswith("PASS  ") for line in lines)

    def test_bracket_matches_solve_chain(self, capsys):
        # V_T < d* on this instance, so the lower link is the certificate's
        # d* - S_eta/T and not some coarser allowance
        instance = [
            "--problem", "random", "--states", "5", "--actions", "4",
            "--seed", "2", "--y0", "1",
        ]
        code, out = _run(capsys, ["verify", *instance])
        assert code == 0
        row = next(l for l in out.splitlines() if "horizon bracketing" in l)
        reported = {}
        for part in row.split("horizon bracketing", 1)[1].strip().split("; "):
            head, bounds = part.split(": ")
            reported[int(head.removeprefix("T="))] = [
                float(v) for v in bounds.split(" <= ")
            ]
        code, out = _run(capsys, ["solve", *instance, "--T", "10,100"])
        assert code == 0
        chain = json.loads(out)["chain"]
        assert sorted(reported) == [r["T"] for r in chain] == [10, 100]
        for r in chain:
            expected = [r["lower"], r["V_T"], r["upper"]]
            assert reported[r["T"]] == pytest.approx(expected, rel=1e-5)

    def test_clamp_keeps_xi_nonnegative(self, capsys):
        # A measure program on this instance once ended with an xi weight
        # of -3.17e-12, a solver failure; every row must pass.
        code, out = _run(
            capsys, ["verify", "--problem", "random", "--states", "40", "--seed", "2", "--y0", "0"]
        )
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 7 and all(r.startswith("PASS") for r in rows), out

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "toy", "--y0", "15", "--theta", "-1"],
            ["sweep", "--problem", "toy", "--y0", "15", "--sweep", "theta", "--values=-1,0"],
        ],
    )
    def test_negative_theta_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid arguments: theta must be nonnegative\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "toy", "--y0", "15", "--theta", "nan"],
            ["solve", "--problem", "toy", "--y0", "15", "--theta", "inf"],
            ["sweep", "--problem", "toy", "--y0", "15", "--sweep", "theta", "--values", "0,nan"],
        ],
    )
    def test_non_finite_theta_is_usage_error(self, capsys, argv):
        assert _rejected(capsys, argv) == "invalid arguments: theta must be finite\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "threestate", "--y0", "0", "--theta", "1e308"],
            ["sweep", "--problem", "threestate", "--y0", "0", "--sweep", "theta", "--values", "1e308"],
        ],
    )
    def test_overflowing_theta_is_usage_error(self, capsys, argv):
        # decided before any table arithmetic: no overflow warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = _rejected(capsys, argv)
        assert err.startswith("invalid arguments: theta 1e+308 is too large"), err

    def test_large_finite_theta_is_exact(self, capsys):
        argv = ["solve", "--problem", "threestate", "--y0", "0", "--theta", "1e300"]
        code, out = _run(capsys, argv)
        assert code == 0
        # the cycle 0 -> 1 -> 0 with theta on its second pair: (3 + 1 + theta) / 2
        assert json.loads(out)["k_star_theta"] == {"1e+300": 5e299}

    @pytest.mark.parametrize("sweep", ["T", "alpha", "theta"])
    @pytest.mark.parametrize("values", ["", ",", " , "])
    def test_empty_values_is_usage_error(self, capsys, sweep, values):
        # it used to print the CSV header alone and exit 0
        argv = ["sweep", "--problem", "toy", "--y0", "15", "--sweep", sweep, "--values", values]
        assert _rejected(capsys, argv) == "invalid arguments: --values needs at least one value\n"

    @pytest.mark.parametrize(
        "extra", [["solve"], ["verify"], ["sweep", "--sweep", "T", "--values", "3"]], ids=str
    )
    def test_states_without_coordinates_are_rejected(self, capsys, tmp_path, extra):
        # a sweep row off W used to recurse without end building the basis
        path = tmp_path / "flat.json"
        path.write_text(
            json.dumps(
                {
                    "name": "flat",
                    "states": [[], []],
                    "actions": ["a", "b"],
                    "transitions": [
                        {"state": 0, "action": 0, "next": 1, "cost": 0.0},
                        {"state": 0, "action": 1, "next": 0, "cost": 2.0},
                        {"state": 1, "action": 0, "next": 0, "cost": 1.0},
                    ],
                }
            )
        )
        err = _rejected(capsys, [extra[0], "--problem", str(path), "--y0", "0", *extra[1:]])
        assert err == (
            f"problem input rejected: {path}: each state needs at least one coordinate\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "toy", "--y0", "15", "--T", "0"],
            ["solve", "--problem", "toy", "--y0", "15", "--T=-3,4"],
            ["sweep", "--problem", "toy", "--y0", "15", "--sweep", "T", "--values", "0,4"],
            ["sweep", "--problem", "toy", "--y0", "15", "--sweep", "T", "--values=-2"],
        ],
    )
    def test_horizon_below_one_is_usage_error(self, capsys, argv):
        assert _rejected(capsys, argv) == "invalid arguments: horizon must be at least 1\n"

    def test_no_horizons_is_an_empty_chain(self, capsys):
        code, out = _run(capsys, ["solve", "--problem", "toy", "--y0", "15", "--T="])
        assert code == 0
        result = json.loads(out)
        assert result["chain"] == [] and result["V_T"] == {}
        code, out = _run(
            capsys, ["solve", "--problem", "toy", "--y0", "15", "--T=", "--format", "csv"]
        )
        assert code == 0
        assert out == "T,lower,V_T,upper,lower_ok,upper_ok\n"

    def test_problem_directory_is_usage_error(self, capsys, tmp_path):
        err = _rejected(capsys, ["solve", "--problem", str(tmp_path), "--y0", "0"])
        assert err.startswith(f"problem input rejected: {tmp_path}: cannot read"), err

    def test_problem_not_utf8_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        err = _rejected(capsys, ["solve", "--problem", str(path), "--y0", "0"])
        assert err.startswith(f"problem input rejected: {path}: not UTF-8 text"), err

    def test_out_directory_is_output_error(self, capsys, tmp_path):
        err = _rejected(capsys, ["solve", "--problem", "toy", "--y0", "0", "--out", str(tmp_path)])
        assert err.startswith("output rejected: "), err

    def test_out_missing_directory_is_output_error(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "x.json")
        err = _rejected(capsys, ["solve", "--problem", "toy", "--y0", "0", "--out", out])
        assert err.startswith("output rejected: "), err

    def test_measure_program_gate_exits_three(self, capsys, monkeypatch):
        # duals that miss their constraints fail solve_primal's optimality gate
        real = lrac.simplex.solve

        def perturbed(lp, *args, **kwargs):
            sol = real(lp, *args, **kwargs)
            sol.y[0] += 1e-6
            return sol

        monkeypatch.setattr(lrac.simplex, "solve", perturbed)
        assert main(["verify", "--problem", "threestate", "--y0", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith(
            "solver failed: InaccurateSolution: measure program's optimum exceeds"
        ), captured.err

    def test_solver_failure_exits_three(self, capsys, monkeypatch):
        def give_up(graph, y0, reach, theta):
            raise IterationLimit("simplex exceeded 10 pivots on a 3x4 tableau")

        monkeypatch.setattr(lrac.cli, "_solve_primal_reached", give_up)
        assert main(["verify", "--problem", "toy", "--y0", "15"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "solver failed: IterationLimit: "
            "simplex exceeded 10 pivots on a 3x4 tableau\n"
        )

    @pytest.mark.parametrize(
        "argv, program",
        [
            (["verify", "--problem", "toy", "--y0", "15"], "measure program for y0=15, theta=0.0"),
            (
                ["sweep", "--problem", "toy", "--y0", "0", "--sweep", "T", "--values", "16"],
                "projection program",
            ),
        ],
    )
    def test_impossible_status_is_a_solver_failure(self, capsys, monkeypatch, argv, program):
        # both programs are feasible and bounded by construction, so any
        # other status is the solver's failure, named with its pivots and shape
        def unbounded(lp, *args, **kwargs):
            return lrac.simplex.LpSolution(
                status="unbounded", objective=None, x=None, y=None, iterations=7
            )

        monkeypatch.setattr(lrac.simplex, "solve", unbounded)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"solver failed: InaccurateSolution: {program} returned unbounded after 7 pivots on a "
        ), captured.err

    def test_table_too_large_exits_three(self, capsys, monkeypatch):
        # `solve --T 99999999999` asks for a 1e11-row table; the stand-in
        # raises what numpy raises there without allocating anything
        def too_large(graph, T):
            raise MemoryError(f"Unable to allocate a table with {T + 1} rows")

        monkeypatch.setattr(lrac.cli, "_horizon_table", too_large)
        assert main(["solve", "--problem", "toy", "--y0", "0", "--T", "99999999999"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "solver failed: MemoryError: Unable to allocate a table with 100000000000 rows\n"
        )

    def test_measure_roundoff_exits_three(self, capsys, monkeypatch):
        real = lrac.simplex.solve

        def drift(lp, *args, **kwargs):
            sol = real(lp, *args, **kwargs)
            sol.x[(lp.n_vars - 1) // 2] = -1e-9  # the measure program's last gamma weight
            return sol

        monkeypatch.setattr(lrac.simplex, "solve", drift)
        assert main(["verify", "--problem", "threestate", "--y0", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failed: InaccurateSolution:"), err

    def test_perturbed_certificate_exits_three(self, capsys, monkeypatch):
        # solve proves its optimum by residuals and a duality gap; a
        # certificate that misses them is a solver failure, not an answer
        real = lrac.cli.v_per

        def perturbed(graph, y0):
            res = real(graph, y0)
            assert res.process.period >= 2  # the cycle pair into start_state is tight
            eta = res.cert.eta.copy()
            eta[res.process.start_state] -= 1e-6
            return dataclasses.replace(res, cert=dataclasses.replace(res.cert, eta=eta))

        monkeypatch.setattr(lrac.cli, "v_per", perturbed)
        assert main(["solve", "--problem", "threestate", "--y0", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failed: InaccurateSolution:"), captured.err


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


class TestSimplexCalls:
    """solve reads both optima off the cycle recursion and runs no program;
    verify solves the theta = 0 measure program once, as its independent
    cross-check; every k*(theta), theta = 0 included, comes off the cycle
    recursion.  A sweep's only LPs are its projections onto W, and each
    row's projection hands the simplex the last row's final basis, so a
    sweep solves cold once per change of basis.  A row that keeps that
    basis does not call simplex.solve, so only cold solves are counted.
    A second program for any of them shows up here as an extra cold
    solve."""

    def test_toy_T_sweep_factors_nothing(self, capsys, monkeypatch):
        # the T = 16 row solves cold, and the four rows after it read their
        # values off the inverse that solve ended with
        real = lrac.simplex._factor
        seen = []

        def counting(A_ext, b, cols):
            seen.append(cols.shape)
            return real(A_ext, b, cols)

        monkeypatch.setattr(lrac.simplex, "_factor", counting)
        argv = ["sweep", "--problem", "toy", "--y0", "0", "--sweep", "T"]
        code, out = _run(capsys, [*argv, "--values", "16,64,256,1024,4096"])
        assert code == 0
        assert len(out.splitlines()) == 6
        assert seen == []

    @pytest.mark.parametrize(
        "argv, calls",
        [
            # the certificate, the primal point and the upper link per
            # default T all read minimum mean cycles
            (["solve", "--problem", "toy", "--y0", "15"], 0),
            # the measure program; the upper links at T = 10, 100 and the
            # membership check read minimum mean cycles
            (["verify", "--problem", "toy", "--y0", "15"], 1),
            (["verify", "--problem", "threestate", "--y0", "0"], 1),
            # d* and every row read cycles, and a uniform cycle measure is
            # stationary, so no projection runs
            (
                [
                    "sweep", "--problem", "threestate", "--y0", "0",
                    "--sweep", "theta", "--values", "0,0.05",
                ],
                0,
            ),
            # both discounted measures are off the cycle; the alpha = 0.9
            # basis stays optimal at 0.99
            (
                [
                    "sweep", "--problem", "threestate", "--y0", "0",
                    "--sweep", "alpha", "--values", "0.9,0.99",
                ],
                1,
            ),
            # both horizon measures are stationary
            (["sweep", "--problem", "toy", "--y0", "15", "--sweep", "T", "--values", "3,5"], 0),
            # five horizon measures off W; the T = 16 basis holds for the rest
            (
                [
                    "sweep", "--problem", "toy", "--y0", "0",
                    "--sweep", "T", "--values", "16,64,256,1024,4096",
                ],
                1,
            ),
            # three discounted measures off W; the alpha = 0.99 basis stays
            # optimal at 0.999, the alpha = 0.9 one does not at 0.99
            (
                [
                    "sweep", "--problem", "random", "--states", "10", "--seed", "0",
                    "--y0", "0", "--sweep", "alpha", "--values", "0.9,0.99,0.999",
                ],
                2,
            ),
            # at n = 320 the measure program took seconds; the cycle
            # recursion still answers without one
            (["solve", "--problem", "random", "--states", "320", "--seed", "0", "--y0", "0"], 0),
        ],
    )
    def test_call_count(self, capsys, monkeypatch, argv, calls):
        real = lrac.simplex.solve
        seen = []

        def counting(lp, *args, **kwargs):
            seen.append(lp.A.shape)
            return real(lp, *args, **kwargs)

        monkeypatch.setattr(lrac.simplex, "solve", counting)
        code, _ = _run(capsys, argv)
        assert code == 0
        assert len(seen) == calls, seen


class TestReducedTableau:
    """verify's measure program has one stationarity and one transfer row
    per state reachable from y0, and a (gamma, xi) column pair per pair of
    those states, so a start that reaches few states solves a small
    tableau however large the graph."""

    def _shapes(self, capsys, monkeypatch, argv):
        real = lrac.simplex.solve
        seen = []

        def recording(lp, *args, **kwargs):
            seen.append(lp.A.shape)
            return real(lp, *args, **kwargs)

        monkeypatch.setattr(lrac.simplex, "solve", recording)
        code, out = _run(capsys, argv)
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 7 and all(r.startswith("PASS") for r in rows), out
        return seen

    def test_random_320_reaches_one_cycle(self, capsys, monkeypatch):
        # the full program was 641 x 1498 here
        argv = ["verify", "--problem", "random", "--states", "320", "--seed", "1", "--y0", "160"]
        assert self._shapes(capsys, monkeypatch, argv) == [(3, 2)]

    def test_toy_starts(self, capsys, monkeypatch):
        # the full program is 43 x 84; 2 of 21 toy states are reachable from any start
        for y0 in range(toy_problem().n_states):
            argv = ["verify", "--problem", "toy", "--y0", str(y0)]
            [(rows, cols)] = self._shapes(capsys, monkeypatch, argv)
            assert rows <= 5 and cols <= 8, (y0, rows, cols)

    def test_random_160_largest_reached_set(self, capsys, monkeypatch):
        # the largest measure program of the random n = 10..160 verify panel
        argv = ["verify", "--problem", "random", "--states", "160", "--seed", "2", "--y0", "80"]
        assert self._shapes(capsys, monkeypatch, argv) == [(187, 448)]


_CROSS_PANEL = [
    *(["--problem", "toy", "--y0", str(y0)] for y0 in range(toy_problem().n_states)),
    *(["--problem", "threestate", "--y0", str(y0)] for y0 in range(3)),
    *(
        ["--problem", "random", "--states", str(n), "--seed", str(seed), "--y0", str(y0)]
        for n in (10, 20, 40)
        for seed in range(4)
        for y0 in (0, n - 1)
    ),
]


class TestSweepMatchesSolve:
    """sweep reads d* off k_star_theta's cycle recursion, solve off
    v_per's certificate; every sweep row's value - gap_to_dstar must be
    solve's d_star."""

    @pytest.mark.parametrize("instance", _CROSS_PANEL, ids=" ".join)
    def test_dstar_agrees(self, capsys, instance):
        code, out = _run(capsys, ["solve", *instance])
        assert code == 0
        solved = json.loads(out)
        tol = 1e-9 * (1.0 + solved["cost_bound"])
        for sweep in (["theta", "--values", "0,0.05"], ["alpha", "--values", "0.9"]):
            argv = ["sweep", *instance, "--sweep", *sweep, "--format", "json"]
            code, out = _run(capsys, argv)
            assert code == 0
            for row in json.loads(out):
                gap = row["value"] - row["gap_to_dstar"] - solved["d_star"]
                assert abs(gap) <= tol, (sweep, row, solved["d_star"])


class TestOneSearchPerCommand:
    """The breadth-first search from y0 runs once, in v_per; the bracket's
    eta span and every k*(theta) of solve and verify reuse it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "threestate", "--y0", "0", "--theta", "0,0.5"],
            ["verify", "--problem", "threestate", "--y0", "0"],
        ],
    )
    def test_search_count(self, capsys, monkeypatch, argv):
        real = lrac.programs.reachable_states
        seen = []

        def counting(graph, y0):
            seen.append(y0)
            return real(graph, y0)

        monkeypatch.setattr(lrac.programs, "reachable_states", counting)
        code, _ = _run(capsys, argv)
        assert code == 0
        assert seen == [0]


class TestReachedSubgraph:
    """Every per-start layer runs on the one sub-graph of the states
    reachable from y0: the discounted values, their greedy policy and its
    run, and the cycle recursion's tables inside v_per.  v_per builds that
    sub-graph once and the commands do not rebuild it.  toy joined to an
    unreachable random component reaches 2 of 221 states."""

    @pytest.mark.parametrize(
        "command",
        [["solve"], ["verify"], ["sweep", "--sweep", "alpha", "--values", "0.5,0.9,0.99"]],
        ids=["solve", "verify", "sweep"],
    )
    def test_layers_see_only_reached_states(self, capsys, monkeypatch, tmp_path, command):
        path = tmp_path / "joined.json"
        save_problem(disjoint_union(toy_problem(), random_problem(200, 3, 7)), str(path))
        y0 = 8
        graph = build_graph(lrac.cli.load_problem(str(path)))
        reached = lrac.programs.reachable_states(graph, y0)[0].size
        sizes = {name: [] for name in ("discounted", "greedy", "rollout", "karp", "subgraph")}
        in_v_per = []

        def recording(module, name, key, inside=False):
            real = getattr(module, name)

            def wrapper(g, *args, **kwargs):
                if not inside or in_v_per:
                    sizes[key].append(g.n_states)
                return real(g, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        recording(lrac.cli, "value_iteration_discounted", "discounted")
        recording(lrac.cli, "greedy_policy", "greedy")
        recording(lrac.cli, "rollout", "rollout")
        recording(lrac.programs, "_horizon_table", "karp", inside=True)
        recording(lrac.programs, "_closed_subgraph", "subgraph")
        recording(lrac.cli, "_closed_subgraph", "subgraph")
        real_v_per = lrac.cli.v_per

        def v_per(g, start):
            in_v_per.append(start)
            try:
                return real_v_per(g, start)
            finally:
                in_v_per.pop()

        monkeypatch.setattr(lrac.cli, "v_per", v_per)
        argv = [command[0], "--problem", str(path), "--y0", str(y0), *command[1:]]
        code, _ = _run(capsys, argv)
        assert code == 0
        assert reached == 2 < graph.n_states
        assert sizes["subgraph"] == [graph.n_states]
        assert sizes["discounted"]
        assert (len(sizes["karp"]) == 1) == (command[0] != "sweep")
        if command[0] != "solve":
            assert sizes["greedy"] and sizes["rollout"]
        for key in ("discounted", "greedy", "rollout", "karp"):
            assert all(n == reached for n in sizes[key]), (key, sizes[key])

    def test_solve_memory(self):
        # random n = 1280, seed 0 reaches 643 states from 0; the per-start
        # layers' whole-graph arrays took the peak to about 26 MB
        tracemalloc.start()
        try:
            code = main(
                "solve --problem random --states 1280 --seed 0 --y0 0 --out".split()
                + [os.devnull]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 18e6, peak


# The dp-horizon benchmark workload's starts, and its random n = 20 solves.
_HORIZON_STARTS = (
    [["--problem", "toy", "--y0", str(y0)] for y0 in (0, 4, 8, 15, 20)]
    + [["--problem", "threestate", "--y0", str(y0)] for y0 in (0, 1, 2)]
    + [["--problem", "random", "--states", "20", "--seed", str(s), "--y0", "0"] for s in range(4)]
)


class TestReachedHorizonTable:
    """solve and sweep --sweep T read V_T and the horizon trajectories off
    one table over the states reachable from y0, filled in blocks; every
    printed number must be what the plain full-graph recursion gives."""

    @pytest.mark.parametrize("start", _HORIZON_STARTS, ids=" ".join)
    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "--T", "16,256,4096"],
            ["sweep", "--sweep", "T", "--values", "1,16,64,256,1024,4096", "--format", "json"],
        ],
        ids=["solve", "sweep"],
    )
    def test_plain_full_table_rows(self, capsys, monkeypatch, start, command):
        argv = command[:1] + start + command[1:]
        code, got = _run(capsys, argv)
        assert code == 0
        args = lrac.cli._build_parser().parse_args(argv)
        graph = build_graph(lrac.cli._resolve_problem(args))
        states = lrac.programs.reachable_states(graph, args.y0)[0]
        full = plain_horizon_table(graph, 4096)

        def plain(sub, T):
            assert sub.n_states == states.size
            return full[: T + 1, states]

        monkeypatch.setattr(lrac.cli, "_horizon_table", plain)
        assert _run(capsys, argv) == (0, got)
        data = json.loads(got)
        if command[0] == "solve":
            values = {int(T): v for T, v in data["V_T"].items()}
        else:
            values = {int(row["parameter"]): row["value"] for row in data}
        assert values and all(v == full[T, args.y0] / T for T, v in values.items())


class TestOneHorizonTable:
    """A command's V_T values and horizon trajectories come from one
    horizon table, run up to its largest horizon, and no command builds
    the (T, n) horizon policy table.  The cycle recursion's own tables
    (Karp's, inside programs) are not counted here."""

    @pytest.mark.parametrize(
        "argv, longest",
        [
            ("solve --problem toy --y0 15 --T 4,16,64", 64),
            ("solve --problem threestate --y0 0 --T 64,4,16,4", 64),
            ("sweep --problem toy --y0 15 --sweep T --values 2,4,8,16,32", 32),
            ("sweep --problem threestate --y0 0 --sweep T --values 300,1,257", 300),
            ("verify --problem threestate --y0 0", 100),
        ],
    )
    def test_table_count(self, capsys, monkeypatch, argv, longest):
        real_table, real_policy = lrac.cli._horizon_table, lrac.dp._horizon_policy
        tables, policies = [], []

        def table(graph, T):
            tables.append(T)
            return real_table(graph, T)

        def policy(graph, S):
            policies.append(S.shape[0] - 1)
            return real_policy(graph, S)

        monkeypatch.setattr(lrac.cli, "_horizon_table", table)
        monkeypatch.setattr(lrac.dp, "_horizon_policy", policy)
        code, _ = _run(capsys, argv.split())
        assert code == 0
        assert tables == [longest]
        assert policies == []


_LARGE = [
    ["--problem", "random", "--states", str(n), "--seed", "0", "--y0", "0"] for n in (80, 160)
]


def _graph_and_start(instance):
    args = lrac.cli._build_parser().parse_args(["solve", *instance])
    return build_graph(lrac.cli._resolve_problem(args)), args.y0


class TestCycleOptimum:
    """solve's certificate and primal point come off the cycle recursion.
    Each must be feasible and their objectives equal, to roundoff, and the
    level must be the measure program's d*."""

    @pytest.mark.parametrize("instance", [*_CROSS_PANEL, *_LARGE], ids=" ".join)
    def test_matches_measure_program(self, capsys, instance):
        code, out = _run(capsys, ["solve", *instance])
        assert code == 0
        data = json.loads(out)
        tol = 1e-12 * (1.0 + data["cost_bound"])
        assert max(data["residuals"].values()) <= tol, data["residuals"]
        assert data["gap"] <= tol
        graph, y0 = _graph_and_start(instance)
        cert = data["certificate"]
        cert = DualCertificate(mu=cert["mu"], psi=np.array(cert["psi"]), eta=np.array(cert["eta"]))
        assert max(certificate_residuals(graph, y0, cert).values()) <= tol
        assert abs(data["d_star"] - solve_primal(graph, y0).cert.mu) <= tol

    def test_scale(self, capsys):
        # the measure program took seconds here; no time is asserted, only
        # that the answer still proves itself (TestSimplexCalls counts 0 calls)
        argv = ["solve", "--problem", "random", "--states", "320", "--seed", "0", "--y0", "0"]
        code, out = _run(capsys, argv)
        assert code == 0
        data = json.loads(out)
        tol = 1e-12 * (1.0 + data["cost_bound"])
        assert max(data["residuals"].values()) <= tol, data["residuals"]
        assert data["gap"] <= tol


_ALPHAS = "0.9,0.99,0.999"
_THETAS = "0,0.05,0.1"


class TestProjectionSweeps:
    """Sweeps whose projection onto W used to fail: IterationLimit or
    "phase 1 reported unbounded" on the degenerate projection program, or a
    drifted nearest measure read as bad input.  theta rows and alpha rows
    whose measure sits on a cycle are members of W; toy alpha from
    y0 = 11, 12, 17 and the random T sweep run the program."""

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                f"--problem random --states 20 --seed {seed} --y0 0"
                f" --sweep theta --values {_THETAS}"
                for seed in range(6)
            ),
            f"--problem toy --y0 15 --sweep theta --values {_THETAS}",
            *(
                f"--problem toy --y0 {y0} --sweep alpha --values {_ALPHAS}"
                for y0 in (1, 5, 10, 11, 12, 17)
            ),
            "--problem random --states 9 --seed 7 --y0 0 --sweep T --values 3,5,7,9",
            *(
                f"--problem random --states 30 --seed {seed} --y0 1 --sweep {sweep}"
                for seed in (1, 5)
                for sweep in ("T --values 4,16,64", f"alpha --values {_ALPHAS}")
            ),
        ],
    )
    def test_sweep_projects(self, capsys, argv):
        argv = ["sweep", *argv.split()]
        code, out = _run(capsys, argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "parameter,value,gap_to_dstar,distance_to_W"
        assert len(lines) - 1 == len(argv[-1].split(","))
        for line in lines[1:]:
            assert float(line.split(",")[-1]) >= -1e-9

    @pytest.mark.parametrize(
        "seed, sweep, values",
        [(2, "T", "3,16,64"), (4, "alpha", _ALPHAS)],
    )
    def test_n80_sweeps_match_highs(self, capsys, seed, sweep, values):
        # both exited 3 with IterationLimit while the lexicographic rule
        # still switched to Bland's
        argv = f"sweep --problem random --states 80 --seed {seed} --y0 40"
        code, out = _run(capsys, [*argv.split(), "--sweep", sweep, "--values", values])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        graph = build_graph(random_problem(80, 3, seed))
        basis = chebyshev_basis(graph)
        for row in rows:
            if sweep == "T":
                m = occupational_measure(policy_trajectory(graph, 40, int(row[0])))
            else:
                m = discounted_measure(graph, 40, float(row[0]))
            assert abs(float(row[3]) - box_distance(m, basis)) <= 1e-9

    @pytest.mark.parametrize(
        "seed, perm_seed, draws, y0, sweep, values",
        [
            (2, 102, (80, 80, 80), 40, "T", "16"),
            (2, 102, (80, 80, 80), 79, "T", "3"),
            (2, 102, (80, 80, 80), 1, "alpha", "0.9,0.99"),
            (0, 0, (21, 3, *[10] * 4, *[20] * 4, *[40] * 4, 80), 71, "alpha", "0.9"),
        ],
    )
    def test_relabelled_n80_sweeps_match_highs(
        self, capsys, tmp_path, seed, perm_seed, draws, y0, sweep, values
    ):
        # random n = 80 with its states relabelled: new state i is old
        # state perm[i], perm the last of the permutations that
        # default_rng(perm_seed) draws for the sizes in draws.  The first
        # three ended in InaccurateSolution (a negative re-read basic
        # value), the last in IterationLimit, while reduced costs carried
        # the roundoff of every earlier pivot
        rng = np.random.default_rng(perm_seed)
        perm = [rng.permutation(size) for size in draws][-1]
        old = random_problem(80, 3, seed)
        succ = old.successor[perm]
        problem = dataclasses.replace(
            old,
            states=old.states[perm],
            successor=np.where(succ >= 0, np.argsort(perm)[np.maximum(succ, 0)], -1),
            cost=old.cost[perm],
        )
        path = tmp_path / "relabelled.json"
        save_problem(problem, str(path))
        argv = ["sweep", "--problem", str(path), "--y0", str(y0), "--sweep", sweep]
        code, out = _run(capsys, [*argv, "--values", values])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == len(values.split(","))
        graph = build_graph(problem)
        basis = chebyshev_basis(graph)
        for row in rows:
            if sweep == "T":
                m = occupational_measure(policy_trajectory(graph, y0, int(row[0])))
            else:
                m = discounted_measure(graph, y0, float(row[0]))
            assert abs(float(row[3]) - box_distance(m, basis)) <= 1e-9

    def test_drift_is_a_solver_failure(self, capsys):
        code = main(
            "sweep --problem random --states 30 --seed 1 --y0 1"
            " --sweep T --values 4,16,64".split()
        )
        err = capsys.readouterr().err
        assert code in (0, 3), err
        if code == 3:
            assert err.startswith("solver failed:"), err


_SOLVE = ["solve", "--problem", "threestate", "--y0", "0"]
_SWEEP = ["sweep", "--problem", "toy", "--y0", "15", "--sweep", "alpha", "--values", "0.9,0.99"]
_VERIFY = ["verify", "--problem", "threestate", "--y0", "1"]


class TestOutMatchesStdout:
    """--out writes byte for byte what stdout prints, final newline included."""

    @pytest.mark.parametrize(
        "argv", [_SOLVE, [*_SOLVE, "--format", "csv"], _SWEEP, _VERIFY], ids=" ".join
    )
    def test_file_equals_stdout(self, capsys, tmp_path, argv):
        code, out = _run(capsys, argv)
        assert code == 0 and out.endswith("\n")
        target = tmp_path / "report"
        code, rest = _run(capsys, [*argv, "--out", str(target)])
        assert code == 0 and rest == ""
        assert target.read_bytes() == out.encode()


def _alone(argv):
    """(exit code, stdout, stderr) of argv run in a fresh interpreter."""
    src = str(pathlib.Path(lrac.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "lrac.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """main builds its parser once per process and finds the command
    function by name when it is called."""

    def test_sequence_matches_fresh_runs(self, capsys):
        usage = ["sweep", "--problem", "toy", "--y0", "0", "--sweep", "bogus", "--values", "1"]
        for argv in (_SOLVE, _SWEEP, _VERIFY, usage, _SOLVE):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == _alone(argv), argv
        assert lrac.cli._build_parser.cache_info().misses <= 1

    def test_dispatch_sees_rebound_command(self, capsys, monkeypatch):
        assert main(_SOLVE) == 0
        capsys.readouterr()
        seen = []

        def fake(args):
            seen.append(args.y0)
            return 7

        monkeypatch.setattr(lrac.cli, "cmd_verify", fake)
        assert main(_VERIFY) == 7
        assert seen == [1]
        assert capsys.readouterr().out == ""


class TestOtherPackageName:
    """Every import inside the package is relative, so a copy of it loads
    under another name next to lrac, as comparing two trees in one
    interpreter needs."""

    def test_copy_prints_what_lrac_prints(self, tmp_path, capsys, monkeypatch):
        argv = ["solve", "--problem", "toy", "--y0", "15"]
        _, expected = _run(capsys, argv)
        src = pathlib.Path(lrac.cli.__file__).parent
        shutil.copytree(src, tmp_path / "lrac_copy", ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.syspath_prepend(str(tmp_path))
        # an absolute import of lrac inside the copy now fails
        for name in [m for m in sys.modules if m == "lrac" or m.startswith("lrac.")]:
            monkeypatch.setitem(sys.modules, name, None)
        try:
            code = importlib.import_module("lrac_copy.cli").main(argv)
        finally:
            for name in [m for m in sys.modules if m.split(".")[0] == "lrac_copy"]:
                del sys.modules[name]
        assert code == 0
        assert capsys.readouterr().out == expected


class TestBasisOnlyWhenProjecting:
    """sweep builds the test-function basis the first time a row's measure
    is off W, and never when every row is a member."""

    @pytest.mark.parametrize(
        "argv, builds",
        [
            ("--problem toy --y0 15 --sweep theta --values 0,0.05,0.1", 0),
            ("--problem threestate --y0 0 --sweep theta --values 0,0.05,0.1", 0),
            ("--problem random --states 20 --seed 0 --y0 0 --sweep theta --values 0,0.05,0.1", 0),
            ("--problem toy --y0 0 --sweep alpha --values 0.9,0.99,0.999", 0),
            ("--problem toy --y0 15 --sweep alpha --values 0.9,0.99,0.999", 1),
        ],
    )
    def test_build_count(self, capsys, monkeypatch, argv, builds):
        real = lrac.cli.chebyshev_basis
        calls = []

        def counting(graph, *args, **kwargs):
            calls.append(graph.n_states)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(lrac.cli, "chebyshev_basis", counting)
        code, _ = _run(capsys, ["sweep", *argv.split()])
        assert code == 0
        assert len(calls) == builds

    def test_projected_rows_unchanged(self, capsys):
        # all three rows are off W; these distances are the ones printed
        # when the basis was built up front for every sweep, but for the
        # last digit, which the 23 test functions the projection drops
        # (a tail of at most 2^-40) moved
        code, out = _run(capsys, ["sweep", *_SWEEP[1:-1], "0.9,0.99,0.999"])
        assert code == 0
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == [
            "0.00705738705738",
            "0.000705738705738",
            "7.05738705738e-05",
        ]



def _readme_commands():
    """The `lrac ...` lines of README's CLI code block."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("lrac ")]


class TestReadmeExamples:
    """Every command of README's CLI block runs, in-process, and exits 0."""

    def test_block_has_every_example(self):
        assert len(_readme_commands()) == 6

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_runs(self, capsys, argv):
        code = main(argv)
        assert code == 0, capsys.readouterr().err
