"""Independent references and the correctness checks built on them.

Nothing here imports qeffort. The references use scipy's expm, closed
forms and the trapezoid rule; each check returns a list of failure
messages (empty when the output is correct), so a perturbed output shows
up as a failed problem rather than as an exception.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from workloads import SIGMA_X, SIGMA_Y, SIGMA_Z

EFFORT_TOL = 1e-6
UNITARY_TOL = 1e-8
TRACE_TOL = 1e-9
SPIN_TOL = 1e-5
EXACT_TOL = 1e-9

TRACE_CSV_HEADER = ["time", "basis_index", "re", "im"]
BERRY_CSV_HEADER = ["channel", "phi", "alpha", "beta_residual"]
GATE_CSV_HEADER = ["gate", "difficulty"]


def fold(x: float) -> float:
    """Fold an angle into (-pi, pi]."""
    y = math.remainder(x, 2.0 * math.pi)
    return math.pi if y == -math.pi else y


def piecewise_reference(segments, psi0):
    """Exact segment-by-segment evolution of a piecewise-constant drive.

    Returns (alpha, U(t_end), psi(t_end)) with U = prod expm(i H_k dur_k)
    and alpha = sum_k dur_k <phi_k|H_k|phi_k>: the energy is conserved
    inside a constant segment, so this sum is the exact effort.
    """
    d = psi0.shape[0]
    u = np.eye(d, dtype=complex)
    phi = np.asarray(psi0, dtype=complex)
    alpha = 0.0
    for dur, h in segments:
        alpha += dur * float(np.vdot(phi, h @ phi).real)
        step = expm(1j * dur * h)
        phi = step @ phi
        u = step @ u
    return alpha, u, phi


def trace_integral(knots) -> float:
    """Trapezoid integral of Tr H(t): exact for a linearly interpolated drive."""
    times = np.array([t for t, _ in knots])
    traces = np.array([np.trace(h).real for _, h in knots])
    return float(np.sum(np.diff(times) * (traces[:-1] + traces[1:]) / 2.0))


def spin_residual(a: float, b: float, omega: float) -> float:
    """pi (1 - cos Theta) for the precessing spin's cyclic states."""
    detuning = b - omega / 2.0
    return math.pi * (1.0 - detuning / math.hypot(a, detuning))


def u2_difficulty(u) -> float:
    """Rotation angle of a 2x2 unitary: 2 arccos(|Tr U| / 2), in [0, pi]."""
    return 2.0 * math.acos(min(1.0, abs(np.trace(u)) / 2.0))


def _far(name: str, got: float, want: float, tol: float) -> list[str]:
    if not math.isfinite(got) or abs(got - want) > tol:
        return [f"{name} = {got!r}, reference {want!r} (tol {tol:g})"]
    return []


def check_effort(problem: dict, out: dict) -> tuple[list[str], dict]:
    """effort_report against the exact piecewise reference.

    out holds the report fields. Line, energy and 2*area must match the
    reference; the action expectation joins them for constant drives only.
    Returns (failures, accuracy) with the largest estimator spread and
    the line-integral error.
    """
    alpha, _, _ = piecewise_reference(problem["segments"], problem["psi0"])
    line, energy = out["alpha_line_integral"], out["alpha_energy_integral"]
    area2 = 2.0 * out["area_swept"]
    fails = (
        _far("line integral", line, alpha, EFFORT_TOL)
        + _far("energy integral", energy, alpha, EFFORT_TOL)
        + _far("2 * area", area2, alpha, EFFORT_TOL)
    )
    if problem["kind"] == "constant":
        fails += _far("action expectation", out["alpha_action_expectation"], alpha, EFFORT_TOL)
    if out["basis_used"] != "standard" or out["area_basis_variation"] != 0.0:
        fails.append("single standard-basis report expected")
    values = (line, energy, area2)
    accuracy = {"max_gap_rad": max(values) - min(values), "line_err_rad": abs(line - alpha)}
    return fails, accuracy


def check_action(problem: dict, a_matrix) -> list[str]:
    """expm(i A(t_end)) must rebuild the reference U(t_end)."""
    _, u_ref, _ = piecewise_reference(problem["segments"], problem["psi0"])
    a = np.asarray(a_matrix, dtype=complex)
    if np.abs(a - a.conj().T).max() > EXACT_TOL:
        return ["A(t_end) is not Hermitian"]
    err = float(np.abs(expm(1j * a) - u_ref).max())
    return [] if err <= UNITARY_TOL else [f"expm(iA(t_end)) misses U(t_end) by {err:.3e}"]


def check_berry(problem: dict, out: dict) -> tuple[list[str], dict]:
    """aa_phase_check: channel count, trace sum rule, folded total, spin residuals."""
    alphas = np.asarray(out["alphas"], dtype=float)
    betas = np.asarray(out["beta_residuals"], dtype=float)
    fails = []
    if alphas.shape != (problem["dim"],) or betas.shape != (problem["dim"],):
        return [f"expected {problem['dim']} channels, got {alphas.shape}"], {}
    fails += _far("sum of alphas", float(alphas.sum()), trace_integral(problem["knots"]), TRACE_TOL)
    fails += _far("fold(sum of betas)", fold(float(betas.sum())), 0.0, TRACE_TOL)
    accuracy = {}
    if problem["kind"] == "spin":
        want = spin_residual(*problem["spin"])
        err = float(np.abs(np.sort(betas) - np.array([-want, want])).max())
        accuracy["spin_err_rad"] = err
        if not err <= SPIN_TOL:
            fails.append(f"spin residuals {sorted(betas)} miss +-{want!r} by {err:.3e}")
    return fails, accuracy


# ----------------------------------------------------------------- CLI mix


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _complex_matrix(obj) -> np.ndarray:
    m = np.asarray(obj, dtype=float)
    return m[..., 0] + 1j * m[..., 1]


def _check_trace_csv(rows, t_end, coeffs_first, coeffs_last) -> list[str]:
    """time,basis_index,re,im: d rows per sample, 0 to t_end, end points exact."""
    if not rows or rows[0] != TRACE_CSV_HEADER:
        return [f"trace CSV header {rows[:1]!r}"]
    body = np.array([[float(x) for x in r] for r in rows[1:]])
    d = coeffs_first.shape[0]
    if body.shape[0] < 3 * d or body.shape[0] % d:
        return [f"trace CSV has {body.shape[0]} rows for d = {d}"]
    times = body[::d, 0]
    fails = []
    if not np.array_equal(body[:, 1].reshape(-1, d), np.tile(np.arange(d), (times.size, 1))):
        fails.append("trace CSV basis_index column is not 0..d-1 per sample")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0.0) or abs(times[-1] - t_end) > EXACT_TOL:
        fails.append("trace CSV times do not run from 0 to t_end")
    if np.any(body[:, 0].reshape(-1, d) != times[:, None]):
        fails.append("trace CSV time differs inside one sample")
    first = body[:d, 2] + 1j * body[:d, 3]
    last = body[-d:, 2] + 1j * body[-d:, 3]
    fails += _far("trace CSV first sample", float(np.abs(first - coeffs_first).max()), 0.0, EXACT_TOL)
    fails += _far("trace CSV last sample", float(np.abs(last - coeffs_last).max()), 0.0, UNITARY_TOL)
    return fails


def _gate_reference(angle: float) -> list[tuple[str, float]]:
    gates = [
        ("X", SIGMA_X),
        ("Y", SIGMA_Y),
        ("Z", SIGMA_Z),
        ("sqrt-NOT", np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2.0),
        ("Hadamard", (SIGMA_X + SIGMA_Z) / math.sqrt(2.0)),
        ("S", np.diag([1.0, 1.0j])),
        ("T", np.diag([1.0, np.exp(0.25j * math.pi)])),
        (f"ph({angle:.6g})", np.diag([1.0, np.exp(1j * angle)])),
    ]
    return [(name, u2_difficulty(u)) for name, u in gates]


def _check_gates(pairs, angle: float) -> list[str]:
    want = _gate_reference(angle)
    if [p[0] for p in pairs] != [w[0] for w in want]:
        return [f"gate names {[p[0] for p in pairs]!r}"]
    fails = []
    for (name, got), (_, value) in zip(pairs, want):
        fails += _far(f"difficulty of {name}", float(got), value, EXACT_TOL)
    return fails


def _check_payload(case: dict, report: dict) -> list[str]:
    """Task-specific values of a JSON report against their references."""
    task, expect = case["problem"]["task"], case["expect"]
    if task == "effort":
        return [
            msg
            for key in ("alpha_line_integral", "alpha_energy_integral", "alpha_action_expectation")
            for msg in _far(key, report[key], math.pi / 2.0, EFFORT_TOL)
        ] + _far("2 * area_swept", 2.0 * report["area_swept"], math.pi / 2.0, EFFORT_TOL)
    if task == "evolve":
        _, u_ref, psi_ref = piecewise_reference(expect["segments"], expect["psi0"])
        u_err = float(np.abs(_complex_matrix(report["final_unitary"]) - u_ref).max())
        psi_err = float(np.abs(_complex_matrix(report["final_state"]) - psi_ref).max())
        return _far("final unitary", u_err, 0.0, UNITARY_TOL) + (
            _far("final state", psi_err, 0.0, UNITARY_TOL)
        )
    if task == "area":
        alpha, _, _ = piecewise_reference(expect["segments"], expect["psi0"])
        return _far("2 * area_swept", 2.0 * report["area_swept"], alpha, EFFORT_TOL) + (
            [] if report["basis_used"] == "custom" else ["area basis_used is not custom"]
        )
    if task == "difficulty":
        fails = _far("difficulty of X", report["value"], math.pi, EXACT_TOL)
        if report["minimality"]["best_found"] < math.pi - EXACT_TOL:
            fails.append(f"minimality search undercut pi: {report['minimality']['best_found']!r}")
        return fails
    if task == "controlled":
        dim = 2 ** (expect["n_controls"] + 1)
        want = u2_difficulty(expect["unitary"])
        fails = _far("controlled difficulty", report["value"], want, EXACT_TOL)
        if np.asarray(report["optimal_hamiltonian"]).shape[:2] != (dim, dim):
            fails.append(f"controlled generator is not {dim}x{dim}")
        return fails
    if task == "infidelity":
        a = math.asin(expect["target"])
        t_min = report["min_time_at_state_energy"]
        return (
            _far("state_effort", report["state_effort"], a, EXACT_TOL)
            + _far("worst_case_effort", report["worst_case_effort"], 2.0 * a, EXACT_TOL)
            + _far("min_time_at_state_energy", t_min, a / expect["energy"], EXACT_TOL)
        )
    if task == "ml-check":
        t = report["orthogonalization_time"]
        fails = [] if report["satisfied"] is True else ["Margolus-Levitin check not satisfied"]
        if t is None:
            return fails + ["no orthogonalization time found"]
        return fails + _far("orthogonalization_time", t, math.pi / expect["gap"], 1e-8)
    if task == "berry":
        alphas = [c["alpha"] for c in report["channels"]]
        betas = [c["beta_residual"] for c in report["channels"]]
        if len(alphas) != 2:
            return [f"berry report has {len(alphas)} channels"]
        return _far("sum of alphas", sum(alphas), trace_integral(expect["knots"]), TRACE_TOL) + (
            _far("fold(sum of betas)", fold(sum(betas)), 0.0, TRACE_TOL)
        )
    if task == "gate-table":
        return _check_gates([(g["gate"], g["difficulty"]) for g in report["gates"]], expect["angle"])
    if task == "levitin":
        specific = report["specific_state_effort"]
        return _far("specific_state_effort", specific, math.pi / 2.0 + expect["theta"], EFFORT_TOL) + (
            _far("worst_case_effort", report["worst_case_effort"], math.pi, EFFORT_TOL)
        )
    return [f"no reference for task {task!r}"]


def _check_csv(case: dict, rows: list[list[str]]) -> list[str]:
    task, expect = case["problem"]["task"], case["expect"]
    if task == "evolve":
        _, _, psi_ref = piecewise_reference(expect["segments"], expect["psi0"])
        return _check_trace_csv(rows, case["problem"]["t_end"], expect["psi0"], psi_ref)
    if task == "area":
        _, _, psi_ref = piecewise_reference(expect["segments"], expect["psi0"])
        b = expect["basis"].conj().T
        return _check_trace_csv(rows, case["problem"]["t_end"], b @ expect["psi0"], b @ psi_ref)
    if task == "berry":
        if not rows or rows[0] != BERRY_CSV_HEADER or len(rows) != 3:
            return [f"berry CSV {rows[:1]!r} with {len(rows) - 1} rows (want 2)"]
        alphas = [float(r[2]) for r in rows[1:]]
        return _far("CSV sum of alphas", sum(alphas), trace_integral(expect["knots"]), TRACE_TOL)
    if task == "gate-table":
        if not rows or rows[0] != GATE_CSV_HEADER:
            return [f"gate CSV header {rows[:1]!r}"]
        return _check_gates([(r[0], float(r[1])) for r in rows[1:]], expect["angle"])
    return [f"no CSV reference for task {task!r}"]


def check_cli(case: dict, code: int, stdout: str, stderr: str, workdir: Path, validator) -> list[str]:
    """One CLI run: exit code, report schema, CSV layout and the task's values.

    validator: a jsonschema validator for report.schema.json.
    """
    if code != case["exit"]:
        return [f"exit code {code}, expected {case['exit']}: {stderr.strip()[-300:]}"]
    if code != 0:
        if stdout or not stderr.startswith("error:"):
            return ["a refused problem must print only an error message on stderr"]
        return []
    try:
        if "csv" in case:
            if stdout:
                return ["a quiet run with CSV output must print nothing"]
            return _check_csv(case, _read_csv(workdir / case["csv"]))
        report = json.loads(stdout)
        errors = [e.message for e in validator.iter_errors(report)]
        if errors:
            return [f"report violates report.schema.json: {errors[0]}"]
        return _check_payload(case, report)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
