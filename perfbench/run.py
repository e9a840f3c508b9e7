"""qeffort benchmark: seeded workloads, reference-checked, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload effort-track --seed 1 --seconds 30 --trace 0

Workloads (the rationale for each is also in BENCHMARK.json):

  effort-track  effort_report on constant and piecewise drives, d in
                {2, 4, 8, 16}, t_end between 1 and pi (longer for smaller d,
                so that every problem costs about the same). Dominated by
                the eigenphase tracker (action.track_action); bypasses the
                stepped integrator.
  berry-interp  aa_phase_check on linearly interpolated drives, d in
                {4, 8, 16}, tau between 1 and pi (longer for smaller d, so
                that every problem costs about the same), plus the
                precessing spin of acceptance criterion 11. Dominated by
                the midpoint-rule integrator in evolve; no tracking runs.
  cli-cold      one fresh `qeffort problem.json` process per file over a
                fixed mix: every task once at d = 2, four CSV outputs and
                one schema-invalid file (expected exit code 2).

Load is a closed loop with one client: the next problem starts when the
last one returns. A run repeats whole rounds of its workload (see
workloads.py) until the summed problem time is as near to --seconds as
whole rounds allow. Each round of effort-track and berry-interp runs in a
fresh worker interpreter (worker.py), which first runs one small untimed
warm-up problem; cli-cold starts one process per problem. Only the calls
into qeffort are timed; building inputs and checking outputs are not.
Every process runs with one BLAS thread.

With --trace 0 the last stdout line holds the end-to-end metrics:
setup_s (median import time of qeffort, plus qeffort.cli for cli-cold, in
fresh interpreters: the workers' own imports, topped up with probes to
SETUP_PROBES samples), problems_per_s (the median over whole rounds of
each round's problems per second), problem_p50_s and peak_rss_mb (the
median over a run's workers of each worker's peak, so that it does not
grow with the number of rounds a run completes; the largest child for
cli-cold). The share of failed problems is the result's failed /
attempted: a problem fails when it raises, exits with an unexpected code,
or misses its reference (checks.py).

With --trace 1 every problem runs untraced and traced, in alternating
order, and the last line holds the per-layer metrics: seconds and counts
per traced problem from spans around qeffort's public calls (tracing.py),
cold-import times from `python -X importtime`, and the tracing overhead
(traced over untraced time of the same problems, minus one). Layers a
workload does not touch read 0.

Each run also writes .perfbench/result-<workload>-s<seed>-t<trace>.json
with the environment (commit, CPUs, library versions, BLAS threads), the
raw samples and any failures; a traced run writes its spans to
.perfbench/spans-<workload>-s<seed>.json.

Seed 7919 is held out: baseline.json records results on it beside the
default seed 1, and it is not used while tuning a change.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One client, one thread: no idle BLAS threads contend for the few CPUs of
# a shared host (at d <= 16 OpenBLAS would not split the work anyway). Set
# before numpy loads; every child process inherits it.
os.environ.update({key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import MAXIMA, Tracer, layer_sums, merge_sums  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 1
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150

SETUP_CODE = (
    "import time; t = time.perf_counter(); import qeffort{extra}; "
    "print(time.perf_counter() - t)"
)
# What the installed `qeffort` console script runs.
CLI_CODE = "import sys; from qeffort.cli import main; sys.exit(main())"
IMPORTTIME_MODULES = {
    "import.qeffort_s": "qeffort",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.jsonschema_s": "jsonschema",
}

WORKLOADS = ("effort-track", "berry-interp", "cli-cold")

END_TO_END = {"setup_s": "s", "problems_per_s": "1/s", "problem_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.qeffort_s": "s",
    "import.scipy_optimize_s": "s",
    "import.jsonschema_s": "s",
    "cli.main_warm_s": "s",
    "cli.startup_s": "s",
    "serialize.decode_s": "s",
    "serialize.emit_s": "s",
    "serialize.csv_bytes": "B",
    "evolution.evolve_s": "s",
    "evolution.state_map_s": "s",
    "evolution.samples": "count",
    "evolution.unitaries_mb": "MB",
    "linalg.eigenphase_stack_s": "s",
    "linalg.eigendecomps": "count",
    "action.track_s": "s",
    "action.match_loop_s": "s",
    "action.expectation_s": "s",
    "effort.line_s": "s",
    "effort.energy_s": "s",
    "effort.area_s": "s",
    "effort.energy_channels_s": "s",
    "effort.max_gap_rad": "rad",
    "effort.line_err_rad": "rad",
    "berry.check_s": "s",
    "berry.self_s": "s",
    "berry.spin_err_rad": "rad",
    "difficulty.verify_s": "s",
    "infidelity.ml_check_s": "s",
    "trace.overhead_frac": "frac",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, cwd=ROOT):
    """Run one child process to completion; returns (code, stdout, stderr, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def setup_probes(count: int, with_cli: bool) -> list[float]:
    """Import time of qeffort in `count` fresh interpreters."""
    code = SETUP_CODE.format(extra=", qeffort.cli" if with_cli else "")
    samples = []
    for _ in range(count):
        rc, out, err, _ = run_child([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"import probe failed: {err.strip()[-2000:]}")
        samples.append(float(out.strip()))
    return samples


def import_breakdown() -> dict:
    """Cumulative cold-import times from `python -X importtime`, medians."""
    samples = {key: [] for key in IMPORTTIME_MODULES}
    for _ in range(IMPORT_PROBES):
        argv = [sys.executable, "-X", "importtime", "-c", "import qeffort.cli; import jsonschema"]
        rc, _, err, _ = run_child(argv)
        if rc != 0:
            raise RuntimeError(f"importtime probe failed: {err.strip()[-2000:]}")
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        for key, module in IMPORTTIME_MODULES.items():
            samples[key].append(cumulative.get(module, 0.0))
    return {key: statistics.median(v) for key, v in samples.items()}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        rc, out, _, _ = run_child(["git", "rev-parse", "HEAD"])
    except OSError:
        return "unknown (git not found)"
    return out.strip() if rc == 0 else "unknown"


def blas_threads(numpy) -> int | str:
    """Thread count of numpy's bundled OpenBLAS, asked through its C API."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def another_round(busy: float, rounds: int, seconds: float) -> bool:
    """Run a first round, then another while it would end nearer to
    `seconds` of summed problem time than stopping now does."""
    return rounds == 0 or busy + busy / rounds / 2.0 < seconds


# ------------------------------------------------------------ in-process


def in_process(workload, seed, seconds, trace) -> dict:
    """effort-track and berry-interp: whole rounds, each in a fresh worker."""
    parts, busy = [], 0.0
    while another_round(busy, len(parts), seconds):
        worker = [sys.executable, str(HERE / "worker.py")]
        rc, out, err, _ = run_child(worker + [workload, str(seed), str(len(parts)), str(trace)])
        if rc != 0:
            raise RuntimeError(f"worker for round {len(parts)} failed:\n{err.strip()[-3000:]}")
        parts.append(json.loads(out.strip().splitlines()[-1]))
        busy += sum(rec["seconds"] for rec in parts[-1]["records"])

    spans = []
    for part in parts:
        offset = len(spans)
        spans += [
            {**s, "parent": None if s["parent"] is None else s["parent"] + offset}
            for s in part.get("spans", [])
        ]
    accuracy = {}
    for part in parts:
        for key, value in part["accuracy"].items():
            accuracy[key] = max(accuracy.get(key, 0.0), value)
    return {
        "records": [{**rec, "round": i} for i, part in enumerate(parts) for rec in part["records"]],
        "setup": [part["setup_s"] for part in parts],
        "rss_mb": statistics.median(part["rss_mb"] for part in parts),
        "accuracy": accuracy,
        "layers": merge_sums([part["layers"] for part in parts]) if trace else {},
        "spans": spans,
        "extra": {},
    }


# ---------------------------------------------------------------- CLI


def run_warm(cli, case, workdir):
    """In-process qeffort.cli.main on one problem file; returns (code, out, err, s)."""
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main([f"{case['id']}.json", "--quiet"])
            seconds = time.perf_counter() - t0
    finally:
        os.chdir(old)
    return code, out.getvalue(), err.getvalue(), seconds


def cli_cold(seed, seconds, trace) -> dict:
    """cli-cold: one child process per problem file; traced runs add in-process calls."""
    from jsonschema import Draft202012Validator

    schema = json.loads((SRC / "qeffort" / "schemas" / "report.schema.json").read_text("utf-8"))
    validator = Draft202012Validator(schema)
    cases = workloads.cli_mix(seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    tracer = Tracer() if trace else None
    try:
        for case in cases:
            (workdir / f"{case['id']}.json").write_text(json.dumps(case["problem"]), "utf-8")

        def record(case, mode, result, round_index):
            code, out, err, dt = result
            fails = checks.check_cli(case, code, out, err, workdir, validator)
            return {"id": case["id"], "mode": mode, "seconds": dt, "failures": fails,
                    "round": round_index}

        def cold(case, round_index):
            if "csv" in case:  # a stale file must not pass for this run's output
                (workdir / case["csv"]).unlink(missing_ok=True)
            argv = [sys.executable, "-c", CLI_CODE, f"{case['id']}.json", "--quiet"]
            try:
                return record(case, "timed", run_child(argv, cwd=workdir), round_index)
            except subprocess.TimeoutExpired:
                return {"id": case["id"], "mode": "timed", "seconds": float(CHILD_TIMEOUT_S),
                        "failures": ["timed out"], "round": round_index}

        if tracer is not None:
            sys.path.insert(0, str(SRC))
            import qeffort.cli as cli

            for case in cases:  # warm-up: lazy imports and the schema cache
                run_warm(cli, case, workdir)

        records, busy, rounds = [], 0.0, 0
        while another_round(busy, rounds, seconds):
            for i, case in enumerate(cases):
                records.append(cold(case, rounds))
                busy += records[-1]["seconds"]
                if tracer is None:
                    continue
                for mode in ("warm", "traced") if i % 2 == 0 else ("traced", "warm"):
                    if "csv" in case:
                        (workdir / case["csv"]).unlink(missing_ok=True)
                    scope = tracer.tracing(case["id"]) if mode == "traced" else contextlib.nullcontext()
                    with scope:
                        result = run_warm(cli, case, workdir)
                    records.append(record(case, mode, result, rounds))
                    busy += records[-1]["seconds"]
            rounds += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra = {}
    if tracer is not None:
        cold_s = [r["seconds"] for r in records if r["mode"] == "timed"]
        warm_s = [r["seconds"] for r in records if r["mode"] == "warm"]
        extra = {
            "cli.main_warm_s": statistics.median(warm_s),
            "cli.startup_s": statistics.median(c - w for c, w in zip(cold_s, warm_s)),
        }
    return {
        "records": records,
        "setup": [],
        "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "accuracy": {},
        "layers": layer_sums(tracer) if tracer is not None else {},
        "spans": tracer.to_json() if tracer is not None else [],
        "extra": extra,
    }


# ----------------------------------------------------------------- metrics


def end_to_end(run: dict) -> dict:
    timed = [rec for rec in run["records"] if rec["mode"] == "timed"]
    per_round = {}
    for rec in timed:
        per_round.setdefault(rec["round"], []).append(rec["seconds"])
    return {
        "setup_s": statistics.median(run["setup"]),
        # Median over whole rounds, so that a slow spell of the host moves
        # one round's rate rather than the run's.
        "problems_per_s": statistics.median(len(s) / sum(s) for s in per_round.values()),
        "problem_p50_s": statistics.median(rec["seconds"] for rec in timed),
        "peak_rss_mb": run["rss_mb"],
    }


def per_layer(run: dict) -> dict:
    records = run["records"]
    traced_s = sum(rec["seconds"] for rec in records if rec["mode"] == "traced")
    # Each traced call has an untraced twin: "warm" for the CLI, else "timed".
    twin = "warm" if any(rec["mode"] == "warm" for rec in records) else "timed"
    untraced_s = sum(rec["seconds"] for rec in records if rec["mode"] == twin)
    n = sum(rec["mode"] == "traced" for rec in records)
    accuracy = run["accuracy"]
    values = {name: v if name in MAXIMA else v / n for name, v in run["layers"].items()}
    values.update({
        "effort.max_gap_rad": accuracy.get("max_gap_rad", 0.0),
        "effort.line_err_rad": accuracy.get("line_err_rad", 0.0),
        "berry.spin_err_rad": accuracy.get("spin_err_rad", 0.0),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "cli.main_warm_s": 0.0,
        "cli.startup_s": 0.0,
    })
    values.update(run["extra"])
    values.update(import_breakdown())
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qeffort" / "__init__.py").is_file():
        print(f"perfbench: no qeffort sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload == "cli-cold":
        run = cli_cold(args.seed, args.seconds, args.trace)
    else:
        run = in_process(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        metrics, units = per_layer(run), PER_LAYER
    else:
        missing = max(0, SETUP_PROBES - len(run["setup"]))
        run["setup"] += setup_probes(missing, with_cli=args.workload == "cli-cold")
        metrics, units = end_to_end(run), END_TO_END

    records = run["records"]
    failed = [rec for rec in records if rec["failures"]]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    write_report(args, run, result)
    n_timed = sum(rec["mode"] == "timed" for rec in records)
    for name in units:
        print(f"{name:28s} {metrics[name]:<14.6g} {units[name]}")
    print(f"{'failed_frac':28s} {len(failed) / len(records):<14.6g} frac "
          f"({len(failed)} of {len(records)} calls failed; {n_timed} timed samples)")
    for rec in failed[:10]:
        print(f"FAILED {rec['id']}: {'; '.join(rec['failures'])[:400]}")
    print(json.dumps(result))
    return 0


def write_report(args, run, result) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "result": result,
        "setup_samples_s": run["setup"],
        "samples": [{k: rec[k] for k in ("id", "round", "mode", "seconds")} for rec in run["records"]],
        "failures": [rec for rec in run["records"] if rec["failures"]],
    }
    (OUT / f"result-{stem}-t{args.trace}.json").write_text(json.dumps(report, indent=1), "utf-8")
    if run["spans"]:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(run["spans"]), "utf-8")


if __name__ == "__main__":
    sys.exit(main())
