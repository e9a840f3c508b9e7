"""Spans and counts around qeffort's public calls, recorded from outside.

Tracer.installed() swaps each traced qeffort function for a wrapper in
every qeffort module that binds it, so calls between modules (effort ->
evolution, berry -> linalg, cli -> serialize) are seen without changing
the package. Spans are kept in memory: name, start, end, parent and
problem id. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    problem: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _evolve_counts(args, result):
    n, d = result.unitaries.shape[0], result.unitaries.shape[1]
    return {"samples": n, "unitaries_mb": n * d * d * 16 / 1e6}


def _stack_counts(args, result):
    return {"eigendecomps": len(args[0])}


def _csv_counts(args, result):
    return {"csv_bytes": len(result.encode("utf-8"))}


def _energy_name(args):
    states = args[1]
    return "effort.energy_channels" if getattr(states, "ndim", 2) == 3 else "effort.energy"


# (module, function, span name or callable naming the span, count function).
TARGETS = (
    ("qeffort.evolution", "evolve", "evolution.evolve", _evolve_counts),
    ("qeffort.evolution", "state_trajectory", "evolution.state_map", None),
    ("qeffort.linalg", "unitary_eigenphases_stack", "linalg.eigenphase_stack", _stack_counts),
    ("qeffort.linalg", "unitary_eigenphases", "linalg.eigenphases", lambda a, r: {"eigendecomps": 1}),
    ("qeffort.action", "track_action", "action.track", None),
    ("qeffort.action", "action_expectation", "action.expectation", None),
    ("qeffort.effort", "effort_report", "effort.report", None),
    ("qeffort.effort", "effort_line_integral", "effort.line", None),
    ("qeffort.effort", "blockwise_energy_integral", _energy_name, None),
    ("qeffort.effort", "area_swept", "effort.area", None),
    ("qeffort.berry", "aa_phase_check", "berry.check", None),
    ("qeffort.difficulty", "verify_minimality", "difficulty.verify", None),
    ("qeffort.infidelity", "ml_check", "infidelity.ml_check", None),
    ("qeffort.serialize", "hamiltonian_from_json", "serialize.decode", None),
    ("qeffort.serialize", "matrix_from_json", "serialize.decode", None),
    ("qeffort.serialize", "state_from_json", "serialize.decode", None),
    ("qeffort.serialize", "dump_json", "serialize.emit", None),
    ("qeffort.serialize", "write_json", "serialize.emit", None),
    ("qeffort.serialize", "write_csv", "serialize.emit", None),
    ("qeffort.serialize", "csv_text", "serialize.csv_text", _csv_counts),
    ("qeffort.cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.problem = ""

    @contextlib.contextmanager
    def tracing(self, problem_id: str):
        """Trace one problem: install the wrappers under a root "problem" span."""
        self.problem = problem_id
        with self.installed():
            rec = self._begin("problem")
            try:
                yield rec
            finally:
                self._end(rec)

    def _begin(self, name: str) -> Span:
        rec = Span(
            name=name,
            start=time.perf_counter(),
            parent=self._open[-1] if self._open else None,
            problem=self.problem,
        )
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        return rec

    def _end(self, rec: Span) -> None:
        rec.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if count is not None:
                rec.counts = count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every TARGETS function in every loaded qeffort module."""
        patches = []
        modules = [m for k, m in list(sys.modules.items()) if k == "qeffort" or k.startswith("qeffort.")]
        for mod_name, fn_name, name, count in TARGETS:
            home = sys.modules.get(mod_name)
            if home is None:
                continue
            original = getattr(home, fn_name)
            wrapper = self._wrap(original, name, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    # ------------------------------------------------------------ analysis

    def _outermost(self, name: str) -> list[int]:
        """Indices of spans called `name` with no enclosing span of that name."""
        out = []
        for i, rec in enumerate(self.spans):
            if rec.name != name:
                continue
            p = rec.parent
            while p is not None and self.spans[p].name != name:
                p = self.spans[p].parent
            if p is None:
                out.append(i)
        return out

    def self_times(self) -> list[float]:
        own = [rec.duration for rec in self.spans]
        for rec in self.spans:
            if rec.parent is not None:
                own[rec.parent] -= rec.duration
        return own

    def total(self, name: str) -> float:
        return sum(self.spans[i].duration for i in self._outermost(name))

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(own[i] for i in self._outermost(name))

    def count(self, name: str, key: str, reduce=sum) -> float:
        values = [self.spans[i].counts.get(key, 0) for i in self._outermost(name)]
        return reduce(values) if values else 0

    def child_total(self, parent_name: str, child_name: str) -> float:
        """Time in `child_name` spans directly under outermost `parent_name` spans."""
        parents = set(self._outermost(parent_name))
        return sum(
            rec.duration for rec in self.spans if rec.name == child_name and rec.parent in parents
        )

    def to_json(self) -> list[dict]:
        own = self.self_times()
        return [
            {
                "name": rec.name,
                "start": rec.start,
                "end": rec.end,
                "parent": rec.parent,
                "problem": rec.problem,
                "self": own[i],
                **({"counts": rec.counts} if rec.counts else {}),
            }
            for i, rec in enumerate(self.spans)
        ]


def layer_sums(tr: Tracer) -> dict:
    """Per-layer totals over all traced problems: seconds, counts, maxima."""
    return {
        "serialize.decode_s": tr.total("serialize.decode"),
        "serialize.emit_s": tr.total("serialize.emit"),
        "serialize.csv_bytes": tr.count("serialize.csv_text", "csv_bytes"),
        "evolution.evolve_s": tr.total("evolution.evolve"),
        "evolution.state_map_s": tr.total("evolution.state_map"),
        "evolution.samples": tr.count("evolution.evolve", "samples"),
        "evolution.unitaries_mb": tr.count("evolution.evolve", "unitaries_mb", max),
        "linalg.eigenphase_stack_s": tr.total("linalg.eigenphase_stack"),
        "linalg.eigendecomps": tr.count("linalg.eigenphase_stack", "eigendecomps")
        + tr.count("linalg.eigenphases", "eigendecomps"),
        "action.track_s": tr.total("action.track"),
        "action.match_loop_s": tr.self_total("action.track"),
        "action.expectation_s": tr.total("action.expectation"),
        "effort.line_s": tr.total("effort.line"),
        "effort.energy_s": tr.total("effort.energy"),
        "effort.area_s": tr.total("effort.area"),
        "effort.energy_channels_s": tr.total("effort.energy_channels"),
        "berry.check_s": tr.total("berry.check"),
        "berry.self_s": tr.total("berry.check") - tr.child_total("berry.check", "evolution.evolve"),
        "difficulty.verify_s": tr.total("difficulty.verify"),
        "infidelity.ml_check_s": tr.total("infidelity.ml_check"),
    }


# Sums that combine across rounds by maximum rather than by addition.
MAXIMA = {"evolution.unitaries_mb"}


def merge_sums(parts: list[dict]) -> dict:
    out = {}
    for part in parts:
        for key, value in part.items():
            out[key] = max(out.get(key, 0), value) if key in MAXIMA else out.get(key, 0) + value
    return out
