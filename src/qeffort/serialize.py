"""JSON and CSV codecs shared by the library and the CLI.

Matrices serialize as row-major nested lists of [re, im] pairs. CSV output
uses a header row, comma delimiter, LF line endings, and floats printed
with 17 significant digits, so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError
from .evolution import (
    HamiltonianTrajectory,
    constant_hamiltonian,
    interpolated_hamiltonian,
    piecewise_hamiltonian,
)


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    try:
        m = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: malformed complex matrix: {exc}") from None
    if m.ndim != 3 or m.shape[2] != 2:
        raise ValidationError(
            f"{name}: expected rows of [re, im] pairs, got shape {m.shape}"
        )
    return m[:, :, 0] + 1j * m[:, :, 1]


def state_to_json(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in v]


def state_from_json(obj, name: str = "state") -> np.ndarray:
    try:
        v = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: malformed state vector: {exc}") from None
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValidationError(f"{name}: expected a list of [re, im] pairs")
    return v[:, 0] + 1j * v[:, 1]


def hamiltonian_to_json(h: HamiltonianTrajectory) -> dict:
    out = {"dim": h.dim, "kind": h.kind}
    if h.kind == "constant":
        out["matrix"] = matrix_to_json(h.at(0.0))
    elif h.kind == "piecewise":
        out["segments"] = [
            {"duration": t1 - t0, "matrix": matrix_to_json(desc[1])} for t0, t1, desc in h.blocks
        ]
    else:
        # Each "lin" block's opening knot (a0, H0), then the last one's (a1, H1).
        knots = [desc[1:3] for *_, desc in h.blocks] + [h.blocks[-1][2][3:]]
        out["samples"] = [{"time": t, "matrix": matrix_to_json(m)} for t, m in knots]
    return out


def _entries(items, what: str, scalar: str):
    """(item[scalar], matrix) per JSON object of items; errors name the entry."""
    for k, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValidationError(f"hamiltonian: {what} {k} must be a JSON object")
        yield item.get(scalar), matrix_from_json(item.get("matrix"), f"{what} {k}")


def hamiltonian_from_json(obj) -> HamiltonianTrajectory:
    if not isinstance(obj, dict):
        raise ValidationError("hamiltonian: expected a JSON object")
    kind = obj.get("kind")
    if kind == "constant":
        h = constant_hamiltonian(matrix_from_json(obj.get("matrix"), "matrix"))
    elif kind == "piecewise":
        segs = obj.get("segments")
        if not isinstance(segs, list) or not segs:
            raise ValidationError("hamiltonian: 'segments' must be a non-empty list")
        h = piecewise_hamiltonian(_entries(segs, "segment", "duration"))
    elif kind == "interpolated":
        pts = obj.get("samples")
        if not isinstance(pts, list) or len(pts) < 2:
            raise ValidationError("hamiltonian: 'samples' must list at least two points")
        h = interpolated_hamiltonian(_entries(pts, "sample", "time"))
    else:
        raise ValidationError(f"hamiltonian: unknown kind {kind!r}")
    declared = obj.get("dim")
    if declared is not None and declared != h.dim:
        raise ValidationError(
            f"hamiltonian: declared dim {declared!r} but matrices are {h.dim}x{h.dim}"
        )
    return h


def _json_default(x):
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    raise TypeError(f"not JSON serializable: {type(x).__name__}")


def dump_json(payload) -> str:
    """Deterministic JSON text: stable key order, repr floats, LF newline."""
    return json.dumps(payload, indent=2, default=_json_default) + "\n"


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(dump_json(payload))


def _cell_format(tp) -> str:
    """%-format of a CSV cell of type tp: bools as 1/0, integers in full,
    floats with 17 significant digits, anything else as str."""
    if issubclass(tp, (bool, np.bool_, int, np.integer)):
        return "%d"
    if issubclass(tp, (float, np.floating)):
        return "%.17g"
    return "%s"


def csv_text(header, rows) -> str:
    """CSV text; each row is formatted whole, by one format per row signature."""
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        key = tuple(map(type, row))
        fmt = formats.get(key)
        if fmt is None:
            fmt = formats[key] = ",".join(map(_cell_format, key))
        lines.append(fmt % row)
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(csv_text(header, rows))
