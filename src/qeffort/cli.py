"""Command line front end: run one task described by a problem JSON file.

Exit codes: 0 on success, 2 for validation failures (bad file, bad
payload, bad flags), 3 for numerical failures (drift, ambiguous
eigenvector matching, step underflow).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from importlib import resources

from .berry import aa_phase_check, export_berry_csv
from .difficulty import (
    bloch_decompose,
    difficulty_controlled,
    difficulty_u2,
    export_gate_table_csv,
    gate_table,
    levitin_comparison,
    optimal_hamiltonian,
    verify_minimality,
)
from .effort import _report, area_swept, export_state_trace_csv
from .errors import NumericalError, ValidationError
from .evolution import StepPolicy, evolve, state_trajectory
from .infidelity import ml_check, plan_infidelity
from .serialize import (
    dump_json,
    hamiltonian_from_json,
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    state_to_json,
    write_json,
)

# Tasks whose output has a tabular form; everything else is JSON-only.
_CSV_TASKS = frozenset({"evolve", "effort", "area", "berry", "gate-table"})


@functools.cache
def _problem_schema() -> dict:
    text = (
        resources.files("qeffort") / "schemas" / "problem.schema.json"
    ).read_text(encoding="utf-8")
    return json.loads(text)


def _is_type(instance, name: str) -> bool:
    if isinstance(instance, bool):
        return name == "boolean"
    if name in ("number", "integer"):
        return isinstance(instance, (int, float)) and (
            name == "number" or isinstance(instance, int) or instance.is_integer()
        )
    return isinstance(instance, {"object": dict, "array": list, "string": str}.get(name, ()))


def _conforms(instance, schema, root: dict) -> bool:
    """Whether `instance` meets `schema` (a part of `root`) under Draft 2020-12.

    Covers exactly the keywords problem.schema.json uses, with string
    enum and const values. Each keyword is jsonschema's own failure test,
    so NaN passes the numeric bounds. Any other keyword, type or `$ref`
    reads as a failure, which leaves the verdict to jsonschema.
    """
    if isinstance(schema, bool):
        return schema
    is_object, is_array = isinstance(instance, dict), isinstance(instance, list)
    is_number = _is_type(instance, "number")
    for key, value in schema.items():
        if key in ("$schema", "$id", "title", "$defs", "then"):
            continue
        if key == "$ref" and value.startswith("#/$defs/"):
            ok = _conforms(instance, root["$defs"][value[len("#/$defs/"):]], root)
        elif key == "type":
            ok = _is_type(instance, value)
        elif key == "enum":
            ok = instance in value
        elif key == "const":
            ok = instance == value
        elif key == "allOf":
            ok = all(_conforms(instance, s, root) for s in value)
        elif key == "if":
            ok = not _conforms(instance, value, root) or _conforms(
                instance, schema.get("then", True), root
            )
        elif key == "minimum":
            ok = not (is_number and instance < value)
        elif key == "maximum":
            ok = not (is_number and instance > value)
        elif key == "exclusiveMinimum":
            ok = not (is_number and instance <= value)
        elif key == "minLength":
            ok = not (isinstance(instance, str) and len(instance) < value)
        elif key == "required":
            ok = not is_object or all(k in instance for k in value)
        elif key == "properties":
            ok = not is_object or all(
                _conforms(instance[k], s, root) for k, s in value.items() if k in instance
            )
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            ok = not is_object or all(
                _conforms(v, value, root) for k, v in instance.items() if k not in known
            )
        elif key == "prefixItems":
            ok = not is_array or all(_conforms(x, s, root) for x, s in zip(instance, value))
        elif key == "items":
            skip = len(schema.get("prefixItems", []))
            ok = not is_array or all(_conforms(x, value, root) for x in instance[skip:])
        elif key == "minItems":
            ok = not (is_array and len(instance) < value)
        elif key == "maxItems":
            ok = not (is_array and len(instance) > value)
        else:
            return False
        if not ok:
            return False
    return True


def _load_problem(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read problem file {path!r}: {exc}") from exc
    try:
        problem = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"problem file {path!r} is not valid JSON: {exc}") from exc
    schema = _problem_schema()
    if _conforms(problem, schema, schema):
        return problem

    # Only a file the check above refuses pays for importing jsonschema:
    # it words the refusal, or accepts what the check does not cover.
    from jsonschema import Draft202012Validator

    errors = sorted(
        Draft202012Validator(schema).iter_errors(problem),
        key=lambda e: list(e.absolute_path),
    )
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.absolute_path) or "<root>"
        raise ValidationError(f"problem file {path!r}: at {where}: {first.message}")
    return problem


def _policy_from_args(args) -> StepPolicy | None:
    if args.step is None and args.tolerance is None:
        return None
    kwargs = {}
    if args.step is not None:
        kwargs["max_step"] = args.step
    if args.tolerance is not None:
        kwargs["tolerance"] = args.tolerance
    return StepPolicy(**kwargs)


def _wants_csv(problem: dict) -> bool:
    out = problem.get("output")
    return out is not None and out["format"] == "csv"


def _task_evolve(problem, policy, args):
    h = hamiltonian_from_json(problem["hamiltonian"])
    t_end = float(problem["t_end"])
    if _wants_csv(problem) and "initial_state" not in problem:
        raise ValidationError("csv output for task 'evolve' requires initial_state")
    traj = evolve(h, t_end, policy)
    payload = {
        "task": "evolve",
        "t_end": t_end,
        "final_unitary": matrix_to_json(traj.unitaries[-1]),
    }
    csv_writer = None
    if "initial_state" in problem:
        psi0 = state_from_json(problem["initial_state"])
        states = state_trajectory(traj, psi0)
        payload["final_state"] = state_to_json(states.states[-1])
        csv_writer = lambda path: export_state_trace_csv(path, states)
    return payload, csv_writer


def _effort_bases(problem):
    if "bases" in problem:
        return [
            matrix_from_json(b, name=f"bases[{i}]")
            for i, b in enumerate(problem["bases"])
        ]
    if "basis" in problem:
        return [matrix_from_json(problem["basis"], name="basis")]
    return None


def _task_effort(problem, policy, args):
    h = hamiltonian_from_json(problem["hamiltonian"])
    psi0 = state_from_json(problem["initial_state"])
    t_end = float(problem["t_end"])
    bases = _effort_bases(problem)
    report, states = _report(evolve(h, t_end, policy), psi0, bases)
    payload = {"task": "effort", **report.to_json()}
    basis = bases[0] if bases else None
    return payload, lambda path: export_state_trace_csv(path, states, basis=basis)


def _task_area(problem, policy, args):
    h = hamiltonian_from_json(problem["hamiltonian"])
    psi0 = state_from_json(problem["initial_state"])
    t_end = float(problem["t_end"])
    basis = (
        matrix_from_json(problem["basis"], name="basis") if "basis" in problem else None
    )
    states = state_trajectory(evolve(h, t_end, policy), psi0)
    payload = {
        "task": "area",
        "area_swept": area_swept(states, basis),
        "basis_used": "standard" if basis is None else "custom",
    }
    return payload, lambda path: export_state_trace_csv(path, states, basis=basis)


def _task_difficulty(problem, policy, args):
    u = matrix_from_json(problem["unitary"], name="unitary")
    result = difficulty_u2(u)
    b = bloch_decompose(u)
    duration = float(problem.get("duration", result.duration))
    payload = {
        "task": "difficulty",
        "value": result.value,
        "duration": duration,
        "convention": result.convention,
        "optimal_hamiltonian": matrix_to_json(optimal_hamiltonian(u, duration)),
        "bloch": {"alpha": b.alpha, "theta": b.theta, "axis": b.axis.tolist()},
    }
    if problem.get("verify"):
        check = verify_minimality(
            u, n_samples=int(problem.get("samples", 10000)), seed=args.seed
        )
        payload["minimality"] = {
            "best_found": check.best_found,
            "n_samples": check.n_samples,
            "seed": check.seed,
        }
    return payload, None


def _task_controlled(problem, policy, args):
    u = matrix_from_json(problem["unitary"], name="unitary")
    result = difficulty_controlled(u, int(problem["n_controls"]))
    payload = {
        "task": "controlled",
        "value": result.value,
        "n_controls": int(problem["n_controls"]),
        "duration": result.duration,
        "convention": result.convention,
        "optimal_hamiltonian": matrix_to_json(result.optimal_hamiltonian),
    }
    return payload, None


def _task_infidelity(problem, policy, args):
    plan = plan_infidelity(problem["target_infidelity"], problem["energy"])
    return {"task": "infidelity", **plan.to_json()}, None


def _task_ml_check(problem, policy, args):
    h = hamiltonian_from_json(problem["hamiltonian"])
    psi0 = state_from_json(problem["initial_state"])
    check = ml_check(h, psi0, float(problem["t_max"]))
    return {"task": "ml-check", **asdict(check)}, None


def _task_berry(problem, policy, args):
    h = hamiltonian_from_json(problem["hamiltonian"])
    tau = float(problem["tau"])
    result = aa_phase_check(h, tau, policy)
    channels = [
        {
            "channel": j,
            "phi": float(result.phases[j]),
            "alpha": float(result.alphas[j]),
            "beta_residual": float(result.beta_residuals[j]),
            "degenerate": bool(result.degenerate[j]),
        }
        for j in range(result.phases.shape[0])
    ]
    payload = {
        "task": "berry",
        "tau": tau,
        "max_residual": result.max_residual,
        "channels": channels,
    }
    return payload, lambda path: export_berry_csv(path, result)


def _task_gate_table(problem, policy, args):
    angle = float(problem.get("phase_angle", math.pi / 3.0))
    rows = gate_table(angle)
    payload = {
        "task": "gate-table",
        "gates": [{"gate": name, "difficulty": value} for name, value in rows],
    }
    return payload, lambda path: export_gate_table_csv(path, angle)


def _task_levitin(problem, policy, args):
    comp = levitin_comparison(float(problem["theta"]))
    return {"task": "levitin", **asdict(comp)}, None


_TASKS = {
    "evolve": _task_evolve,
    "effort": _task_effort,
    "area": _task_area,
    "difficulty": _task_difficulty,
    "controlled": _task_controlled,
    "infidelity": _task_infidelity,
    "ml-check": _task_ml_check,
    "berry": _task_berry,
    "gate-table": _task_gate_table,
    "levitin": _task_levitin,
}


def _emit(problem: dict, payload: dict, csv_writer, quiet: bool) -> None:
    out = problem.get("output")
    if out is None:
        sys.stdout.write(dump_json(payload))
        return
    path = out["path"]
    if out["format"] == "json":
        write_json(path, payload)
    else:
        csv_writer(path)
    if not quiet:
        print(f"wrote {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeffort",
        description="Evolve quantum states and price the effort of the trip.",
    )
    parser.add_argument("problem", help="path to a problem description JSON file")
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized checks (default 0)"
    )
    parser.add_argument(
        "--step", type=float, default=None, help="override the maximum time step"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the unitarity drift tolerance",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the output-path confirmation"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = _load_problem(args.problem)
        task = problem["task"]
        if _wants_csv(problem) and task not in _CSV_TASKS:
            raise ValidationError(f"task {task!r} has no csv output form")
        policy = _policy_from_args(args)
        payload, csv_writer = _TASKS[task](problem, policy, args)
        _emit(problem, payload, csv_writer, args.quiet)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
