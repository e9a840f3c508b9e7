"""One round of an in-process workload, run in a fresh interpreter.

    python3 perfbench/worker.py <effort-track|berry-interp> <seed> <round> <trace 0|1>

Imports qeffort before anything else and times it (one setup sample).
Runs one small untimed warm-up problem, then the round's problems one at
a time; with trace 1 each problem runs untraced and traced, in an order
that alternates between problems. Only then checks every output against
its reference, and prints one JSON line: the per-call records, the peak
RSS before the checks, accuracy maxima, and with trace 1 the per-layer
sums and the spans.

A fresh process per round keeps one round's allocations from shaping the
next round's peak memory.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
_t0 = time.perf_counter()
import qeffort as qe  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_sums  # noqa: E402

# Problems of round 0 (the smallest ones: both drive kinds at d = 2) whose
# action operator is rebuilt after the timed calls, to check
# expm(i A(t_end)) against the reference U(t_end).
ACTION_CHECKS = 2


def effort_hamiltonian(problem):
    if problem["kind"] == "constant":
        return qe.constant_hamiltonian(problem["segments"][0][1])
    return qe.piecewise_hamiltonian(problem["segments"])


def run_effort(problem) -> dict:
    h = effort_hamiltonian(problem)
    return qe.effort_report(h, problem["psi0"], problem["t_end"]).to_json()


def run_berry(problem) -> dict:
    result = qe.aa_phase_check(qe.interpolated_hamiltonian(problem["knots"]), problem["tau"])
    return {"alphas": result.alphas, "beta_residuals": result.beta_residuals}


RUNNERS = {
    "effort-track": (workloads.effort_round, run_effort, checks.check_effort),
    "berry-interp": (workloads.berry_round, run_berry, checks.check_berry),
}


def timed_call(problem, run_one, tracer) -> dict:
    rec = {"id": problem["id"], "mode": "timed" if tracer is None else "traced", "failures": []}
    scope = contextlib.nullcontext() if tracer is None else tracer.tracing(problem["id"])
    t0 = time.perf_counter()
    try:
        with scope:
            rec["output"] = run_one(problem)
    except Exception as exc:  # a raising problem is a failed problem, not a crash
        rec["failures"].append("raised " + traceback.format_exception_only(exc)[-1].strip())
    rec["seconds"] = time.perf_counter() - t0
    return rec


def check_action(problem) -> list[str]:
    try:
        track = qe.track_action(qe.evolve(effort_hamiltonian(problem), problem["t_end"]))
        return checks.check_action(problem, qe.action_at(track, problem["t_end"]).matrix)
    except Exception as exc:  # the rebuild is part of this problem's check
        return [f"action rebuild raised {exc!r}"]


def main(argv) -> int:
    workload, seed, round_index, trace = argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    if Path(qe.__file__).resolve().parent != SRC / "qeffort":
        print(f"worker: imported qeffort from {qe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    make_round, run_one, check = RUNNERS[workload]
    problems = make_round(seed, round_index)
    tracer = Tracer() if trace else None
    run_one(workloads.warmup_problem(workload))

    records = []
    for i, problem in enumerate(problems):
        order = (None,) if tracer is None else ((None, tracer) if i % 2 == 0 else (tracer, None))
        for t in order:
            records.append((problem, timed_call(problem, run_one, t)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    accuracy = {}
    for problem, rec in records:
        if "output" not in rec:
            continue
        fails, acc = check(problem, rec.pop("output"))
        rec["failures"] += fails
        for key, value in acc.items():
            accuracy[key] = max(accuracy.get(key, 0.0), value)
    if workload == "effort-track" and round_index == 0:
        timed = [r for r in records if r[1]["mode"] == "timed"]
        for problem, rec in sorted(timed, key=lambda r: r[0]["dim"])[:ACTION_CHECKS]:
            rec["failures"] += check_action(problem)

    out = {
        "setup_s": SETUP_S,
        "rss_mb": rss_mb,
        "records": [rec for _, rec in records],
        "accuracy": accuracy,
    }
    if tracer is not None:
        out["layers"] = layer_sums(tracer)
        out["spans"] = tracer.to_json()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
