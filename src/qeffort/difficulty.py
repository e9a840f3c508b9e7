"""Difficulty of unitaries: the worst-case minimum effort to implement them.

For dimension 2 the answer is closed-form: write U = e^{i alpha} R_n(theta)
with R_n(theta) = exp_i((theta/2) n.sigma); under the ground-zero convention
(least Hamiltonian eigenvalue shifted to 0) the difficulty is |theta|, and
the steady rotation H = (theta/2t)(I + n.sigma) attains it. Controlled
versions embed that 2x2 block in an otherwise zero Hamiltonian, which is
why adding controls costs nothing in this model.

The optimality of the steady rotation is a conjecture, not a theorem;
verify_minimality returns theta or more and cannot go below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .evolution import constant_hamiltonian
from .effort import effort_energy_integral
from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_unitary,
    fold_angle,
    spectral_decompose,
)

GATE_X = SIGMA_X
GATE_Y = SIGMA_Y
GATE_Z = SIGMA_Z
HADAMARD = (SIGMA_X + SIGMA_Z) / math.sqrt(2.0)
SQRT_NOT = np.array([[1.0 + 1.0j, 1.0 - 1.0j], [1.0 - 1.0j, 1.0 + 1.0j]]) / 2.0
S_GATE = np.diag([1.0, 1.0j])
T_GATE = np.diag([1.0, np.exp(0.25j * np.pi)])

#: Wires each classical gate touches, and its effort price in radians.
#: SWAP is priced as its standard three-CNOT construction; that is a
#: documented convention, not a derived value.
CLASSICAL_GATES = {
    "NOT": (1, math.pi),
    "CNOT": (2, math.pi),
    "CCNOT": (3, math.pi),
    "SWAP": (2, 3.0 * math.pi),
}

DIM_CAP = 2**10

GATE_TABLE_CSV_COLUMNS = ("gate", "difficulty")


def phase_gate(theta: float) -> np.ndarray:
    """diag(1, e^{i theta}): phase the second basis state by theta."""
    return np.diag([1.0, np.exp(1j * float(theta))])


@dataclass(frozen=True, eq=False)
class BlochDecomposition:
    """U = e^{i alpha} exp_i((theta/2) axis.sigma), theta in [0, pi]."""

    alpha: float
    theta: float
    axis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        half = self.theta / 2.0
        n_dot_sigma = (
            self.axis[0] * SIGMA_X + self.axis[1] * SIGMA_Y + self.axis[2] * SIGMA_Z
        )
        return np.exp(1j * self.alpha) * (
            math.cos(half) * np.eye(2) + 1j * math.sin(half) * n_dot_sigma
        )


@dataclass(frozen=True, eq=False)
class DifficultyResult:
    value: float
    optimal_hamiltonian: np.ndarray
    duration: float
    convention: str = "ground-zero"


@dataclass(frozen=True)
class LevitinComparison:
    theta: float
    specific_state_effort: float
    worst_case_effort: float


@dataclass(frozen=True)
class MinimalityCheck:
    theta: float
    best_found: float
    n_samples: int
    seed: int


def _require_u2(u) -> np.ndarray:
    u = check_unitary(u, name="unitary")
    if u.shape[0] != 2:
        raise ValidationError(f"need a 2x2 unitary, got dimension {u.shape[0]}")
    return u


def bloch_decompose(u) -> BlochDecomposition:
    """Split a 2x2 unitary into global phase, rotation angle, and axis.

    alpha comes from det U = e^{2i alpha}, with the branch flipped when
    needed so that cos(theta/2) >= 0, i.e. theta lands in [0, pi]. A
    rotation by a negative angle is reported as |theta| about the flipped
    axis. theta = 0 defaults the axis to (0, 0, 1); theta = pi fixes the
    axis sign by the first nonzero of (n_z, n_x, n_y) made positive.
    """
    u = _require_u2(u)
    alpha = 0.5 * float(np.angle(np.linalg.det(u)))
    v = np.exp(-1j * alpha) * u
    c = float((v[0, 0] + v[1, 1]).real) / 2.0
    if c < 0.0:
        c, v, alpha = -c, -v, fold_angle(alpha + math.pi)
    c = min(c, 1.0)
    theta = 2.0 * math.acos(c)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    if s < 1e-10:
        axis = np.array([0.0, 0.0, 1.0])
    else:
        w = v - c * np.eye(2)
        axis = np.array([w[0, 1].imag, w[0, 1].real, w[0, 0].imag]) / s
        axis = axis / np.linalg.norm(axis)
    if abs(theta - math.pi) < 1e-12:
        # R_n(pi) = -R_{-n}(pi): both signs reproduce U, so pick one rule.
        lead = next((x for x in (axis[2], axis[0], axis[1]) if abs(x) > 1e-12), 1.0)
        if lead < 0.0:
            axis = -axis
            alpha = fold_angle(alpha + math.pi)
    return BlochDecomposition(alpha=alpha, theta=theta, axis=axis)


def axis_eigenvectors(axis) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvectors of axis.sigma for eigenvalues +1 and -1.

    Chart chosen by the sign of n_z to stay away from the formula's pole.
    At n_z = 0 the -1 eigenvector's components obey amp1 = (-n_x - i n_y)
    * amp0, the obtuse-phase relation of the equatorial case.
    """
    nx, ny, nz = (float(x) for x in axis)
    if nz >= 0.0:
        norm = math.sqrt(2.0 * (1.0 + nz))
        v_plus = np.array([1.0 + nz, nx + 1j * ny]) / norm
        v_minus = np.array([-(nx - 1j * ny), 1.0 + nz]) / norm
    else:
        norm = math.sqrt(2.0 * (1.0 - nz))
        v_plus = np.array([nx - 1j * ny, 1.0 - nz]) / norm
        v_minus = np.array([nz - 1.0, nx + 1j * ny]) / norm
    return v_plus, v_minus


def optimal_hamiltonian(u, duration: float = 1.0) -> np.ndarray:
    """Ground-zeroed steady-rotation generator for a 2x2 unitary.

    H = (theta/2t)(I + n.sigma): spectrum {0, theta/t}, and exp_i(Ht) =
    e^{i(theta/2 - alpha)} U, i.e. the target up to global phase. The
    identity (theta = 0) maps to the zero matrix.
    """
    if not duration > 0.0:
        raise ValidationError("duration must be positive")
    if not math.isfinite(duration):
        raise ValidationError(f"duration must be finite, got {duration!r}")
    b = bloch_decompose(u)
    n_dot_sigma = b.axis[0] * SIGMA_X + b.axis[1] * SIGMA_Y + b.axis[2] * SIGMA_Z
    return (b.theta / (2.0 * duration)) * (np.eye(2) + n_dot_sigma)


def difficulty_u2(u) -> DifficultyResult:
    """Worst-case minimum effort of a 2x2 unitary: the rotation angle."""
    b = bloch_decompose(u)
    return DifficultyResult(
        value=b.theta,
        optimal_hamiltonian=optimal_hamiltonian(u, 1.0),
        duration=1.0,
    )


def controlled_unitary(u, n_controls: int) -> np.ndarray:
    """The (n_controls)-controlled version of a 2x2 unitary."""
    u = _require_u2(u)
    dim = 2 ** (n_controls + 1)
    out = np.eye(dim, dtype=complex)
    out[-2:, -2:] = u
    return out


def difficulty_controlled(u, n_controls: int) -> DifficultyResult:
    """Difficulty of controlled-U: equal to difficulty_u2(U), any control count.

    The optimal generator is zero everywhere except the 2x2 optimal block
    in the lower-right corner (the all-controls-set subspace), so control
    qubits ride along for free in the unrestricted-Hamiltonian model.
    exp_i of the block generator reproduces controlled-U up to a phase on
    the active block only.
    """
    if not isinstance(n_controls, int) or n_controls < 1:
        raise ValidationError("n_controls must be a positive integer")
    dim = 2 ** (n_controls + 1)
    if dim > DIM_CAP:
        raise ValidationError(
            f"controlled-U on {n_controls} controls needs dimension {dim} > cap {DIM_CAP}"
        )
    base = difficulty_u2(u)
    block = np.zeros((dim, dim), dtype=complex)
    block[-2:, -2:] = base.optimal_hamiltonian
    return DifficultyResult(
        value=base.value, optimal_hamiltonian=block, duration=base.duration
    )


def unitary_distance(u1, u2) -> float:
    """Metric on 2x2 unitaries: difficulty of the relative unitary."""
    u1 = _require_u2(u1)
    u2 = _require_u2(u2)
    return difficulty_u2(u2 @ u1.conj().T).value


def gate_table(phase_angle: float = math.pi / 3.0) -> list[tuple[str, float]]:
    """Named-gate difficulties, computed live from the decomposition."""
    entries = [
        ("X", GATE_X),
        ("Y", GATE_Y),
        ("Z", GATE_Z),
        ("sqrt-NOT", SQRT_NOT),
        ("Hadamard", HADAMARD),
        ("S", S_GATE),
        ("T", T_GATE),
        (f"ph({phase_angle:.6g})", phase_gate(phase_angle)),
    ]
    return [(name, difficulty_u2(gate).value) for name, gate in entries]


def export_gate_table_csv(path, phase_angle: float = math.pi / 3.0) -> None:
    from .serialize import write_csv

    write_csv(path, GATE_TABLE_CSV_COLUMNS, gate_table(phase_angle))


def levitin_comparison(theta: float) -> LevitinComparison:
    """Specific-state vs worst-case effort for the phased NOT gate.

    The generator (pi/2)(I - sigma_x) + theta*I implements e^{i theta} X
    exactly in unit time with spectrum {theta, theta + pi}. The specific
    state |0> (an equal superposition of the two energy eigenstates, mean
    energy pi/2 + theta before the ground-zero shift) accumulates effort
    pi/2 + theta, while the worst case after the shift is the top
    eigenstate's pi, independent of theta. Both numbers are measured by
    evolving the states and integrating, not substituted from formulas.
    """
    theta = float(theta)
    if not 0.0 <= theta <= math.pi:
        raise ValidationError("theta must lie in [0, pi]")
    h_ground = (math.pi / 2.0) * (np.eye(2) - SIGMA_X)
    h_exact = h_ground + theta * np.eye(2)
    specific = effort_energy_integral(
        constant_hamiltonian(h_exact), np.array([1.0, 0.0]), 1.0
    )
    top_state = np.array([1.0, -1.0]) / math.sqrt(2.0)
    worst = effort_energy_integral(constant_hamiltonian(h_ground), top_state, 1.0)
    return LevitinComparison(
        theta=theta, specific_state_effort=specific, worst_case_effort=worst
    )


def classical_circuit_effort_bound(circuit) -> float:
    """Upper bound on a classical reversible circuit's effort, in radians.

    circuit: iterable of {"gate": name, "wires": [ints]} dicts or
    (name, wires) pairs, gates from NOT/CNOT/CCNOT/SWAP. The bound is the
    plain sum of per-gate difficulties and excludes any inter-gate control
    overhead.
    """
    total = 0.0
    for k, item in enumerate(circuit):
        if isinstance(item, dict):
            name, wires = item.get("gate"), item.get("wires", [])
        else:
            name, wires = item
        if name not in CLASSICAL_GATES:
            raise ValidationError(f"gate {k}: unknown gate {name!r}")
        n_wires, cost = CLASSICAL_GATES[name]
        wires = list(wires)
        if len(wires) != n_wires or len(set(wires)) != n_wires:
            raise ValidationError(
                f"gate {k}: {name} needs {n_wires} distinct wires, got {wires!r}"
            )
        total += cost
    return total


def verify_minimality(u, n_samples: int = 10000, seed: int = 0) -> MinimalityCheck:
    """Random search over the generators of U that share its eigenvectors.

    Every Hamiltonian implementing U up to global phase at t = 1 shares
    U's eigenvectors and has eigenvalues Arg(u_j) + phi + 2 pi n_j; after
    the ground-zero shift its worst-case effort is the eigenvalue spread.
    Samples (phi, n_j) and reports the smallest spread found: theta, or
    more when no sample draws the right n_j. It cannot go below theta.
    """
    u = _require_u2(u)
    b = bloch_decompose(u)
    lam = np.angle(spectral_decompose(u, "unitary").eigenvalues)
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    n = rng.integers(-2, 3, size=(n_samples, 2))
    top = lam[1] + phi + 2.0 * math.pi * n[:, 1]
    bottom = lam[0] + phi + 2.0 * math.pi * n[:, 0]
    best = float(np.abs(top - bottom).min())
    return MinimalityCheck(theta=b.theta, best_found=best, n_samples=n_samples, seed=seed)
