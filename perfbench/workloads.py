"""Seeded inputs for the three benchmark workloads.

Everything here is plain numpy: qeffort only ever sees the arrays and JSON
problem files built below. A (seed, workload, round) triple fully fixes a
round's inputs.

Rounds are the unit of measurement. Every round of a workload has the
same shape: the same dimensions and drive kinds in the same order, each
dimension with the same duration range. The seed draws the matrices,
states, segment splits and where each duration falls in its range. The
two problems of one dimension take mirrored durations, whose sum is fixed.
That keeps the cost, the median problem and the largest trajectory of a
round nearly independent of the seed and of how many rounds a run
completes.
"""

from __future__ import annotations

import math

import numpy as np

T_LO, T_HI = 1.0, math.pi

EFFORT_DIMS = (2, 4, 8, 16)
BERRY_DIMS = (4, 8, 16)
# Fixed so that the seed moves no array sizes beyond the durations.
PIECEWISE_SEGMENTS = 3
BERRY_KNOTS = 11
# tau range per dimension, chosen so that every berry-interp problem costs
# about as much as the others (longer drives for cheaper steps). With one
# cluster of problem times the median problem time is well defined, rather
# than sitting in a gap between the times of different dimensions.
BERRY_TAU = {4: (2.8, math.pi), 8: (2.2, 2.8), 16: (1.0, 1.25)}
# The same for effort-track's t_end: longer for the cheaper small d.
EFFORT_T = {2: (2.6, math.pi), 4: (2.0, 2.6), 8: (1.4, 2.0), 16: (1.0, 1.2)}

# Precessing spin of acceptance criterion 11: H(t) = b sz + a (cos wt sx -
# sin wt sy), sampled at SPIN_KNOTS knots over one period tau = 2 pi / w.
SPIN_A, SPIN_B, SPIN_OMEGA, SPIN_KNOTS = 1.0, 1.3, 2.0, 2001

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_WORKLOAD_KEYS = {"effort-track": 1, "berry-interp": 2, "cli-cold": 3}


def rng_for(workload: str, seed: int, round_index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_KEYS[workload], round_index])


def random_hermitian(rng, dim: int, scale: float) -> np.ndarray:
    """Random Hermitian matrix with spectral norm exactly `scale`."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (z + z.conj().T) / 2.0
    return h * (scale / np.linalg.norm(h, 2))


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def mirrored(lo: float, hi: float, first: float) -> tuple[float, float]:
    """A duration and its mirror image in [lo, hi]: they sum to lo + hi."""
    return first, lo + hi - first


def _split(rng, total: float, n_parts: int) -> list[float]:
    parts = rng.uniform(0.5, 1.5, n_parts)
    parts *= total / parts.sum()
    return [float(p) for p in parts]


def effort_round(seed: int, round_index: int) -> list[dict]:
    """Eight effort problems: d in EFFORT_DIMS, one constant and one piecewise each."""
    rng = rng_for("effort-track", seed, round_index)
    problems = []
    for d in EFFORT_DIMS:
        lo, hi = EFFORT_T[d]
        t_const, t_piece = mirrored(lo, hi, float(rng.uniform(lo, hi)))
        h = random_hermitian(rng, d, 2.0)
        problems.append({
            "id": f"r{round_index}-d{d}-constant",
            "dim": d,
            "kind": "constant",
            "t_end": t_const,
            "segments": [(t_const, h)],
            "psi0": random_state(rng, d),
        })
        durs = _split(rng, t_piece, PIECEWISE_SEGMENTS)
        problems.append({
            "id": f"r{round_index}-d{d}-piecewise",
            "dim": d,
            "kind": "piecewise",
            "t_end": t_piece,
            "segments": [(dur, random_hermitian(rng, d, 2.0)) for dur in durs],
            "psi0": random_state(rng, d),
        })
    return _largest_first(problems)


def _largest_first(problems: list[dict]) -> list[dict]:
    """Run the largest trajectory first, on a fresh heap, so peak memory
    is set by that problem rather than by what earlier ones left behind."""
    return sorted(problems, key=lambda p: (p["dim"], p.get("t_end", p.get("tau"))), reverse=True)


def spin_hamiltonian(a: float, b: float, omega: float, t: float) -> np.ndarray:
    return b * SIGMA_Z + a * (np.cos(omega * t) * SIGMA_X - np.sin(omega * t) * SIGMA_Y)


def berry_round(seed: int, round_index: int) -> list[dict]:
    """Six interpolated drives (d in BERRY_DIMS, mirrored tau pairs) and one spin."""
    rng = rng_for("berry-interp", seed, round_index)
    problems = []
    for d in BERRY_DIMS:
        lo, hi = BERRY_TAU[d]
        for j, tau in enumerate(mirrored(lo, hi, float(rng.uniform(lo, hi)))):
            knots = np.linspace(0.0, tau, BERRY_KNOTS)
            problems.append({
                "id": f"r{round_index}-d{d}-{j}",
                "dim": d,
                "kind": "interpolated",
                "tau": tau,
                "knots": [(float(t), random_hermitian(rng, d, 1.5)) for t in knots],
            })
    a = SPIN_A * float(rng.uniform(0.9, 1.1))
    b = SPIN_B * float(rng.uniform(0.9, 1.1))
    tau = 2.0 * math.pi / SPIN_OMEGA
    problems.append({
        "id": f"r{round_index}-spin",
        "dim": 2,
        "kind": "spin",
        "tau": tau,
        "spin": (a, b, SPIN_OMEGA),
        "knots": [
            (float(t), spin_hamiltonian(a, b, SPIN_OMEGA, t))
            for t in np.linspace(0.0, tau, SPIN_KNOTS)
        ],
    })
    return _largest_first(problems)


def warmup_problem(workload: str) -> dict:
    """A small untimed problem that a fresh worker runs first, so that
    first-call costs (library loading, caches) fall outside the timed calls."""
    rng = np.random.default_rng([0, _WORKLOAD_KEYS[workload]])
    if workload == "effort-track":
        h = random_hermitian(rng, 2, 2.0)
        return {"id": "warmup", "dim": 2, "kind": "constant", "t_end": 1.0,
                "segments": [(1.0, h)], "psi0": random_state(rng, 2)}
    tau = 0.5
    return {"id": "warmup", "dim": 4, "kind": "interpolated", "tau": tau,
            "knots": [(float(t), random_hermitian(rng, 4, 1.5)) for t in np.linspace(0.0, tau, 3)]}


# ----------------------------------------------------------------- CLI mix


def matrix_json(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def state_json(v) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def _constant_json(h) -> dict:
    return {"kind": "constant", "dim": int(h.shape[0]), "matrix": matrix_json(h)}


def _interpolated_json(knots) -> dict:
    return {
        "kind": "interpolated",
        "dim": int(knots[0][1].shape[0]),
        "samples": [{"time": t, "matrix": matrix_json(h)} for t, h in knots],
    }


README_EFFORT = {
    "task": "effort",
    "hamiltonian": {
        "kind": "constant",
        "dim": 2,
        "matrix": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
    },
    "initial_state": [[1.0, 0.0], [0.0, 0.0]],
    "t_end": math.pi,
}


def cli_mix(seed: int) -> list[dict]:
    """One problem file per case: every task once at d = 2, t_end <= pi.

    Each case is {"id", "problem", "exit", "csv"?, "expect"}: the problem
    JSON, the expected exit code, the CSV file the problem writes (if any)
    and the inputs the reference check needs.
    """
    rng = rng_for("cli-cold", seed)

    def t_draw():
        return float(rng.uniform(T_LO, T_HI))

    cases = [{"id": "effort-readme", "problem": README_EFFORT, "exit": 0, "expect": {}}]

    h_seg = [random_hermitian(rng, 2, 1.5) for _ in range(2)]
    durs = _split(rng, t_draw(), 2)
    psi = random_state(rng, 2)
    cases.append({
        "id": "evolve-json",
        "problem": {
            "task": "evolve",
            "hamiltonian": {
                "kind": "piecewise",
                "dim": 2,
                "segments": [
                    {"duration": d, "matrix": matrix_json(h)} for d, h in zip(durs, h_seg)
                ],
            },
            "initial_state": state_json(psi),
            "t_end": sum(durs),
        },
        "exit": 0,
        "expect": {"segments": list(zip(durs, h_seg)), "psi0": psi},
    })

    h = random_hermitian(rng, 2, 1.5)
    psi = random_state(rng, 2)
    t = t_draw()
    cases.append({
        "id": "evolve-csv",
        "problem": {
            "task": "evolve",
            "hamiltonian": _constant_json(h),
            "initial_state": state_json(psi),
            "t_end": t,
            "output": {"format": "csv", "path": "evolve.csv"},
        },
        "exit": 0,
        "csv": "evolve.csv",
        "expect": {"segments": [(t, h)], "psi0": psi},
    })

    for fmt in ("json", "csv"):
        h = random_hermitian(rng, 2, 1.5)
        psi = random_state(rng, 2)
        basis = haar_unitary(rng, 2)
        t = t_draw()
        problem = {
            "task": "area",
            "hamiltonian": _constant_json(h),
            "initial_state": state_json(psi),
            "t_end": t,
            "basis": matrix_json(basis),
        }
        case = {
            "id": f"area-{fmt}",
            "problem": problem,
            "exit": 0,
            "expect": {"segments": [(t, h)], "psi0": psi, "basis": basis},
        }
        if fmt == "csv":
            problem["output"] = {"format": "csv", "path": "area.csv"}
            case["csv"] = "area.csv"
        cases.append(case)

    cases.append({
        "id": "difficulty-x",
        "problem": {
            "task": "difficulty",
            "unitary": matrix_json(SIGMA_X),
            "verify": True,
            "samples": 20000,
        },
        "exit": 0,
        "expect": {"unitary": SIGMA_X},
    })

    u = haar_unitary(rng, 2)
    n_controls = int(rng.integers(1, 4))
    cases.append({
        "id": "controlled",
        "problem": {"task": "controlled", "unitary": matrix_json(u), "n_controls": n_controls},
        "exit": 0,
        "expect": {"unitary": u, "n_controls": n_controls},
    })

    target, energy = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.5, 2.0))
    cases.append({
        "id": "infidelity",
        "problem": {"task": "infidelity", "target_infidelity": target, "energy": energy},
        "exit": 0,
        "expect": {"target": target, "energy": energy},
    })

    # An equal superposition of the two energy eigenstates reaches an
    # orthogonal state at t = pi / gap, exactly the Margolus-Levitin time.
    h = random_hermitian(rng, 2, 1.5)
    w, v = np.linalg.eigh(h)
    psi = (v[:, 0] + np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * v[:, 1]) / math.sqrt(2.0)
    gap = float(w[1] - w[0])
    cases.append({
        "id": "ml-check",
        "problem": {
            "task": "ml-check",
            "hamiltonian": _constant_json(h),
            "initial_state": state_json(psi),
            "t_max": 1.5 * math.pi / gap,
        },
        "exit": 0,
        "expect": {"gap": gap},
    })

    for fmt in ("json", "csv"):
        tau = t_draw()
        knots = [
            (float(t), random_hermitian(rng, 2, 1.5))
            for t in np.linspace(0.0, tau, int(rng.integers(4, 9)))
        ]
        problem = {"task": "berry", "hamiltonian": _interpolated_json(knots), "tau": tau}
        case = {"id": f"berry-{fmt}", "problem": problem, "exit": 0, "expect": {"knots": knots}}
        if fmt == "csv":
            problem["output"] = {"format": "csv", "path": "berry.csv"}
            case["csv"] = "berry.csv"
        cases.append(case)

    for fmt in ("json", "csv"):
        angle = float(rng.uniform(0.1, 3.0))
        problem = {"task": "gate-table", "phase_angle": angle}
        case = {"id": f"gate-table-{fmt}", "problem": problem, "exit": 0, "expect": {"angle": angle}}
        if fmt == "csv":
            problem["output"] = {"format": "csv", "path": "gates.csv"}
            case["csv"] = "gates.csv"
        cases.append(case)

    theta = float(rng.uniform(0.0, math.pi))
    cases.append({
        "id": "levitin",
        "problem": {"task": "levitin", "theta": theta},
        "exit": 0,
        "expect": {"theta": theta},
    })

    cases.append({
        "id": "schema-invalid",
        "problem": {"task": "effort", "t_end": -float(rng.uniform(0.5, 2.0))},
        "exit": 2,
        "expect": {},
    })
    return cases
