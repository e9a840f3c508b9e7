"""Command line behavior: payload shapes, output files, exit codes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import qeffort
import qeffort.cli as cli_module
from qeffort import (
    evolve,
    exp_i,
    export_state_trace_csv,
    matrix_from_json,
    matrix_to_json,
    state_to_json,
    state_trajectory,
)
from qeffort.cli import main


INF = float("inf")  # json.dumps writes it as Infinity


def report_validator():
    text = (
        resources.files("qeffort") / "schemas" / "report.schema.json"
    ).read_text(encoding="utf-8")
    return Draft202012Validator(json.loads(text))


def write_problem(tmp_path, name, problem):
    path = tmp_path / name
    path.write_text(json.dumps(problem))
    return str(path)


def diag_h(*vals):
    return {"kind": "constant", "matrix": matrix_to_json(np.diag(vals))}


def plus_state():
    return state_to_json(np.array([1.0, 1.0]) / np.sqrt(2.0))


def run_json(tmp_path, capsys, problem, argv_extra=()):
    path = write_problem(tmp_path, "problem.json", problem)
    code = main([path, *argv_extra])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestEvolveTask:
    def test_stdout_payload(self, tmp_path, capsys):
        payload = run_json(
            tmp_path,
            capsys,
            {"task": "evolve", "hamiltonian": diag_h(1.0, 0.0), "t_end": 0.1},
        )
        assert payload["task"] == "evolve"
        got = matrix_from_json(payload["final_unitary"])
        np.testing.assert_allclose(
            got, exp_i(np.diag([1.0, 0.0]) * 0.1), atol=1e-10
        )
        assert "final_state" not in payload

    def test_initial_state_adds_final_state(self, tmp_path, capsys):
        payload = run_json(
            tmp_path,
            capsys,
            {
                "task": "evolve",
                "hamiltonian": diag_h(1.0, 0.0),
                "t_end": 0.1,
                "initial_state": plus_state(),
            },
        )
        assert "final_state" in payload

    def test_csv_requires_initial_state(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "problem.json",
            {
                "task": "evolve",
                "hamiltonian": diag_h(1.0, 0.0),
                "t_end": 0.1,
                "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
            },
        )
        assert main([path]) == 2
        assert "requires initial_state" in capsys.readouterr().err

    def test_csv_trace_written(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        path = write_problem(
            tmp_path,
            "problem.json",
            {
                "task": "evolve",
                "hamiltonian": diag_h(1.0, 0.0),
                "t_end": 0.05,
                "initial_state": plus_state(),
                "output": {"format": "csv", "path": str(out)},
            },
        )
        assert main([path]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        assert out.read_text().startswith("time,basis_index,re,im\n")


class TestAllTaskPayloadsValidate:
    def test_every_task_round_trips_through_the_report_schema(
        self, tmp_path, capsys
    ):
        validator = report_validator()
        problems = [
            {"task": "evolve", "hamiltonian": diag_h(1.0, 0.0), "t_end": 0.05},
            {
                "task": "effort",
                "hamiltonian": diag_h(1.0, 0.0),
                "t_end": 0.05,
                "initial_state": plus_state(),
            },
            {
                "task": "area",
                "hamiltonian": diag_h(1.0, 0.0),
                "t_end": 0.05,
                "initial_state": plus_state(),
            },
            {
                "task": "difficulty",
                "unitary": matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]])),
                "verify": True,
                "samples": 50,
            },
            {
                "task": "controlled",
                "unitary": matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]])),
                "n_controls": 1,
            },
            {"task": "infidelity", "target_infidelity": 0.5, "energy": 1.0},
            {
                "task": "ml-check",
                "hamiltonian": diag_h(1.0, 0.0),
                "initial_state": plus_state(),
                "t_max": 4.0,
            },
            {"task": "berry", "hamiltonian": diag_h(1.0, 0.0), "tau": 0.1},
            {"task": "gate-table"},
            {"task": "levitin", "theta": 0.7},
        ]
        for problem in problems:
            payload = run_json(tmp_path, capsys, problem)
            errors = list(validator.iter_errors(payload))
            assert not errors, f"{problem['task']}: {errors[0].message}"

    def test_ml_check_without_orthogonalization_reports_null(
        self, tmp_path, capsys
    ):
        payload = run_json(
            tmp_path,
            capsys,
            {
                "task": "ml-check",
                "hamiltonian": diag_h(1.0, 1.0),
                "initial_state": plus_state(),
                "t_max": 2.0,
            },
        )
        assert payload["orthogonalization_time"] is None
        assert payload["satisfied"] is True


class TestDifficultyTask:
    def test_seed_flag_reaches_the_minimality_check(self, tmp_path, capsys):
        problem = {
            "task": "difficulty",
            "unitary": matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]])),
            "verify": True,
            "samples": 40,
        }
        payload = run_json(tmp_path, capsys, problem, argv_extra=["--seed", "5"])
        assert payload["minimality"]["seed"] == 5
        assert payload["minimality"]["n_samples"] == 40
        assert payload["value"] == pytest.approx(np.pi, abs=1e-12)
        assert payload["minimality"]["best_found"] >= np.pi - 1e-9

    def test_area_custom_basis(self, tmp_path, capsys):
        w = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        payload = run_json(
            tmp_path,
            capsys,
            {
                "task": "area",
                "hamiltonian": diag_h(1.0, 0.0),
                "t_end": 0.05,
                "initial_state": plus_state(),
                "basis": matrix_to_json(w),
            },
        )
        assert payload["basis_used"] == "custom"


class TestDeterminism:
    def test_identical_runs_write_identical_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        base = {
            "task": "effort",
            "hamiltonian": diag_h(1.0, 0.0),
            "t_end": 0.05,
            "initial_state": plus_state(),
        }
        p1 = write_problem(
            tmp_path, "p1.json", {**base, "output": {"format": "json", "path": str(out1)}}
        )
        p2 = write_problem(
            tmp_path, "p2.json", {**base, "output": {"format": "json", "path": str(out2)}}
        )
        assert main([p1, "--quiet"]) == 0
        assert main([p2, "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert out1.read_bytes() == out2.read_bytes()


class TestFailureExitCodes:
    def test_missing_file(self, capsys):
        assert main(["/nonexistent/problem.json"]) == 2
        assert "cannot read problem file" in capsys.readouterr().err

    def test_invalid_json_text(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main([str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_schema_violation_names_the_location(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "bad.json",
            {"task": "evolve", "hamiltonian": diag_h(1.0, 0.0), "t_end": -1.0},
        )
        assert main([path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "at t_end" in err

    def test_non_hermitian_matrix(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "bad.json",
            {
                "task": "evolve",
                "hamiltonian": {
                    "kind": "constant",
                    "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                },
                "t_end": 0.1,
            },
        )
        assert main([path]) == 2
        assert "entry" in capsys.readouterr().err

    def test_csv_for_json_only_task(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "bad.json",
            {
                "task": "levitin",
                "theta": 0.5,
                "output": {"format": "csv", "path": str(tmp_path / "x.csv")},
            },
        )
        assert main([path]) == 2
        assert "no csv output form" in capsys.readouterr().err

    def test_step_underflow_is_a_numerical_failure(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "bad.json",
            {"task": "evolve", "hamiltonian": diag_h(1.0, 0.0), "t_end": 0.1},
        )
        assert main([path, "--step", "1e-13"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    # Both durations ask for petabytes; the planners refuse before allocating.
    @pytest.mark.parametrize(
        "problem, needs",
        [
            (
                {"task": "effort", "t_end": 1e12, "initial_state": plus_state()},
                "evolving to t_end = 1000000000000.0 needs 4000000000000001 samples",
            ),
            (
                {"task": "ml-check", "t_max": 1e12, "initial_state": plus_state()},
                "orthogonality scan to t_max = 1000000000000.0 needs",
            ),
        ],
        ids=["effort-t_end", "ml-check-t_max"],
    )
    def test_duration_beyond_physical_memory(self, tmp_path, capsys, problem, needs):
        path = write_problem(tmp_path, "big.json", {"hamiltonian": diag_h(1.0, 0.0), **problem})
        assert main([path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {needs}")
        assert "bytes), more than the" in err and "bytes of physical memory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("task, field", [("effort", "t_end"), ("ml-check", "t_max")])
    def test_infinite_duration(self, tmp_path, capsys, task, field):
        problem = {"task": task, "hamiltonian": diag_h(1.0, 0.0), "initial_state": plus_state()}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({**problem, field: float("inf")}))  # written as Infinity
        assert main([str(path)]) == 2
        assert f"{field} must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem, message",
        [
            (
                {
                    "task": "evolve",
                    "t_end": 1.0,
                    "hamiltonian": {
                        "kind": "piecewise",
                        "segments": [{"duration": INF, "matrix": diag_h(1.0, 0.0)["matrix"]}],
                    },
                },
                "segment 0 duration must be finite, got inf",
            ),
            (
                {"task": "difficulty", "unitary": diag_h(1.0, 1.0)["matrix"], "duration": INF},
                "duration must be finite, got inf",
            ),
        ],
        ids=["segment", "difficulty"],
    )
    def test_infinite_drive_duration(self, tmp_path, capsys, problem, message):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(problem))
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_bad_basis_is_refused_before_tracking(self, tmp_path, capsys):
        # At this step the tracker fails (exit 3); the bases are checked first.
        problem = {
            "task": "effort",
            "hamiltonian": diag_h(3.0, 0.0),
            "initial_state": state_to_json(np.array([1.0, 0.0])),
            "t_end": 2.0,
            "bases": [matrix_to_json(np.eye(2)), matrix_to_json(2.0 * np.eye(2))],
        }
        path = write_problem(tmp_path, "bases.json", problem)
        assert main([path, "--step", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: bases[1] is not unitary")


class TestCsvTasks:
    def test_effort_csv_evolves_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(cli_module, "evolve", counted)
        out = tmp_path / "trace.csv"
        problem = {
            "task": "effort",
            "hamiltonian": diag_h(1.0, 0.0),
            "t_end": 0.05,
            "initial_state": plus_state(),
        }
        path = write_problem(
            tmp_path, "problem.json", {**problem, "output": {"format": "csv", "path": str(out)}}
        )
        assert main([path, "--quiet"]) == 0
        assert len(calls) == 1
        expected = tmp_path / "expected.csv"
        states = state_trajectory(evolve(*calls[0]), np.array([1.0, 1.0]) / np.sqrt(2.0))
        export_state_trace_csv(expected, states)
        assert out.read_bytes() == expected.read_bytes()

    def test_berry_csv(self, tmp_path, capsys):
        out = tmp_path / "berry.csv"
        path = write_problem(
            tmp_path,
            "problem.json",
            {
                "task": "berry",
                "hamiltonian": diag_h(1.0, 0.0),
                "tau": 0.1,
                "output": {"format": "csv", "path": str(out)},
            },
        )
        assert main([path, "--quiet"]) == 0
        assert out.read_text().startswith("channel,phi,alpha,beta_residual\n")

    def test_gate_table_csv(self, tmp_path, capsys):
        out = tmp_path / "gates.csv"
        path = write_problem(
            tmp_path,
            "problem.json",
            {
                "task": "gate-table",
                "phase_angle": 0.9,
                "output": {"format": "csv", "path": str(out)},
            },
        )
        assert main([path, "--quiet"]) == 0
        lines = [ln for ln in out.read_text().split("\n") if ln]
        assert lines[0] == "gate,difficulty"
        assert lines[-1].startswith("ph(0.9)")

def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the tracker's rarely taken assignment fallback,
    # which imports it on first use.
    src = str(Path(qeffort.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, qeffort.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
