"""Self-test of the benchmark: its checks can fail, and every workload runs.

    python3 -m pytest perfbench/test_perfbench.py -q

The first group perturbs real qeffort outputs and expects the checks to
count them as failed. The second runs one round of every workload, traced
and untraced, and the benchmark in a directory without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from run import CLI_CODE, another_round

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qeffort as qe  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _effort_output(problem):
    if problem["kind"] == "constant":
        h = qe.constant_hamiltonian(problem["segments"][0][1])
    else:
        h = qe.piecewise_hamiltonian(problem["segments"])
    return qe.effort_report(h, problem["psi0"], problem["t_end"]).to_json()


@pytest.fixture(scope="module")
def effort_case():
    problem = next(p for p in workloads.effort_round(3, 0) if p["dim"] == 2 and p["kind"] == "constant")
    return problem, _effort_output(problem)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = workloads.effort_round(5, 1), workloads.effort_round(5, 1), workloads.effort_round(6, 1)
    assert [p["t_end"] for p in a] == [p["t_end"] for p in b]
    assert [p["t_end"] for p in a] != [p["t_end"] for p in c]
    for d in workloads.EFFORT_DIMS:
        pair = [p["t_end"] for p in a if p["dim"] == d]
        assert abs(sum(pair) - sum(workloads.EFFORT_T[d])) < 1e-12
    assert workloads.cli_mix(5)[1]["problem"] == workloads.cli_mix(5)[1]["problem"]


def test_rounds_stop_nearest_to_the_requested_time():
    assert another_round(0.0, 0, 0.0)  # a run always completes one round
    assert not another_round(5.0, 1, 0.0)
    assert another_round(20.0, 2, 30.0)  # 30 s after a third round: nearer
    assert not another_round(25.0, 2, 30.0)  # 37.5 s is farther than 25 s


@pytest.mark.parametrize(
    "key", ["alpha_line_integral", "alpha_energy_integral", "area_swept", "alpha_action_expectation"]
)
def test_effort_off_by_1e_3_fails(effort_case, key):
    problem, out = effort_case
    fails, accuracy = checks.check_effort(problem, out)
    assert fails == [] and accuracy["line_err_rad"] < checks.EFFORT_TOL
    fails, _ = checks.check_effort(problem, {**out, key: out[key] + 1e-3})
    assert len(fails) == 1 and "reference" in fails[0]


def test_wrong_action_operator_fails(effort_case):
    problem, _ = effort_case
    h = qe.constant_hamiltonian(problem["segments"][0][1])
    a = qe.action_at(qe.track_action(qe.evolve(h, problem["t_end"])), problem["t_end"]).matrix
    assert checks.check_action(problem, a) == []
    assert checks.check_action(problem, a + 1e-6 * np.eye(2)) != []


def test_berry_spin_and_sum_rules_fail_when_perturbed():
    spin = next(p for p in workloads.berry_round(3, 0) if p["kind"] == "spin")
    result = qe.aa_phase_check(qe.interpolated_hamiltonian(spin["knots"]), spin["tau"])
    out = {"alphas": result.alphas, "beta_residuals": result.beta_residuals}
    fails, accuracy = checks.check_berry(spin, out)
    assert fails == [] and accuracy["spin_err_rad"] < checks.SPIN_TOL
    bumped = result.beta_residuals + np.array([1e-4, 0.0])
    assert checks.check_berry(spin, {**out, "beta_residuals": bumped})[0] != []
    assert checks.check_berry(spin, {**out, "alphas": result.alphas + 1e-6})[0] != []


def _cli_case(case_id, tmp_path):
    case = next(c for c in workloads.cli_mix(3) if c["id"] == case_id)
    (tmp_path / "p.json").write_text(json.dumps(case["problem"]), "utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CODE, "p.json", "--quiet"],
        cwd=tmp_path, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    schema = json.loads((ROOT / "src/qeffort/schemas/report.schema.json").read_text("utf-8"))
    from jsonschema import Draft202012Validator

    return case, proc, Draft202012Validator(schema)


def test_cli_wrong_exit_code_or_value_fails(tmp_path):
    case, proc, validator = _cli_case("effort-readme", tmp_path)
    ok = checks.check_cli(case, proc.returncode, proc.stdout, proc.stderr, tmp_path, validator)
    assert ok == []
    assert checks.check_cli(case, 3, proc.stdout, proc.stderr, tmp_path, validator) != []
    report = json.loads(proc.stdout)
    report["alpha_line_integral"] += 1e-3
    assert checks.check_cli(case, 0, json.dumps(report), "", tmp_path, validator) != []
    report["unexpected"] = 1
    assert "schema" in checks.check_cli(case, 0, json.dumps(report), "", tmp_path, validator)[0]


def test_cli_refused_problem_must_exit_2(tmp_path):
    case, proc, validator = _cli_case("schema-invalid", tmp_path)
    assert proc.returncode == 2
    assert checks.check_cli(case, 2, proc.stdout, proc.stderr, tmp_path, validator) == []
    assert checks.check_cli(case, 0, "", "", tmp_path, validator) != []


def test_cli_truncated_csv_fails(tmp_path):
    case, proc, validator = _cli_case("evolve-csv", tmp_path)
    assert checks.check_cli(case, proc.returncode, proc.stdout, proc.stderr, tmp_path, validator) == []
    csv_path = tmp_path / case["csv"]
    lines = csv_path.read_text("utf-8").splitlines(keepends=True)
    csv_path.write_text("".join(lines[:-2]), "utf-8")
    assert checks.check_cli(case, 0, "", "", tmp_path, validator) != []


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_round_of_every_workload(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "effort-track", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
