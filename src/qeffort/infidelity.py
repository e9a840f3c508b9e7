"""Fidelity, infidelity, and speed limits for reaching a target.

arcsin(I) = arccos(F), the Fubini-Study distance, bounds the path length
(the time integral of the energy spread) of any drive that reaches
infidelity I, not its effort: H = diag(0, 1) takes (sqrt 0.9, sqrt 0.1)
to I = 0.3 at t = pi/3 with effort 0.105 < arcsin(0.3) = 0.305. A steady
rotation through 2*arcsin(I) about an axis whose eigenstates the state
straddles equally spends exactly arcsin(I). The Margolus-Levitin
orthogonalization bound and its N-state cycle refinement live here too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .evolution import HamiltonianTrajectory, check_memory, constant_hamiltonian
from .linalg import as_state, check_hermitian

#: Overlap magnitude below which two states count as orthogonal.
ORTHOGONALITY_TOL = 1e-9

#: Time resolution of the orthogonalization-time bisection.
_TIME_RESOLUTION = 1e-10


def fidelity(u, v) -> float:
    """F = |<u|v>| for normalized pure states."""
    f = abs(np.vdot(as_state(u), as_state(v)))
    return min(f, 1.0)


def infidelity(u, v) -> float:
    """Inf = sqrt(1 - F^2): the probability amplitude of telling u from v."""
    f = fidelity(u, v)
    return math.sqrt(max(0.0, 1.0 - f * f))


@dataclass(frozen=True, eq=False)
class InfidelityRealization:
    """A concrete evolution achieving the planned infidelity.

    In the basis where the initial state is (1, 1)/sqrt(2), a ground-zeroed
    z-rotation at state mean energy E: H = diag(0, 2E) for the planned
    duration rotates the relative phase by 2*arcsin(I).
    """

    hamiltonian: np.ndarray
    initial_state: np.ndarray
    duration: float


@dataclass(frozen=True, eq=False)
class InfidelityPlan:
    target_infidelity: float
    rotation_angle: float
    state_effort: float
    worst_case_effort: float
    min_time_at_state_energy: float
    min_time_at_max_energy: float
    realization: InfidelityRealization

    def to_json(self) -> dict:
        from .serialize import matrix_to_json, state_to_json

        r = self.realization
        return {
            **asdict(self),
            "realization": {
                "hamiltonian": matrix_to_json(r.hamiltonian),
                "initial_state": state_to_json(r.initial_state),
                "duration": r.duration,
            },
        }


def plan_infidelity(target: float, energy: float) -> InfidelityPlan:
    """Steady-rotation plan for reaching infidelity `target`.

    energy is the evolving state's mean energy above ground. Its state
    effort arcsin(target) is the least path length, not the least effort
    (see the module docstring). The worst case over initial states doubles
    the effort, and the two time bounds price the effort at the state's
    energy and at the realization's top energy 2E respectively.
    """
    target = float(target)
    if not 0.0 <= target <= 1.0:
        raise ValidationError(f"infidelity must lie in [0, 1], got {target!r}")
    if not energy > 0.0:
        raise ValidationError("energy must be positive")
    a = math.asin(target)
    realization = InfidelityRealization(
        hamiltonian=np.diag([0.0, 2.0 * energy]).astype(complex),
        initial_state=np.array([1.0, 1.0]) / math.sqrt(2.0),
        duration=a / energy,
    )
    return InfidelityPlan(
        target_infidelity=target,
        rotation_angle=2.0 * a,
        state_effort=a,
        worst_case_effort=2.0 * a,
        min_time_at_state_energy=a / energy,
        min_time_at_max_energy=2.0 * a / energy,
        realization=realization,
    )


def _overlap_magnitude(weights, omegas, t):
    return abs(np.sum(weights * np.exp(1j * omegas * t)))


def orthogonalization_time(h: HamiltonianTrajectory, psi0, t_max: float):
    """First time the evolving state becomes orthogonal to where it began.

    Constant Hamiltonians only: the overlap <psi0|psi(t)> is then the
    almost-periodic sum of p_j e^{i w_j t}, which is scanned on a grid
    fine enough that no orthogonality dip fits between points, refined by
    ternary search, and finished by bisection to 1e-10 time resolution.
    Returns None when no overlap magnitude falls below 1e-9 by t_max.
    """
    if h.kind != "constant":
        raise ValidationError("orthogonalization_time needs a constant Hamiltonian")
    if not t_max > 0.0:
        raise ValidationError("t_max must be positive")
    if not math.isfinite(t_max):
        raise ValidationError(f"t_max must be finite, got {t_max!r}")
    psi0 = as_state(psi0)
    w, v = np.linalg.eigh(h.at(0.0))
    p = np.abs(v.conj().T @ psi0) ** 2
    live = p > 1e-14
    spread = float(w[live].max() - w[live].min()) if live.any() else 0.0
    if spread < 1e-12:
        return None  # one energy level: the overlap magnitude never moves

    dt = math.pi / (16.0 * spread)
    n_pts = max(2, math.ceil(t_max / dt)) + 1
    # The scan holds times, phases, their exponentials and the overlaps.
    check_memory(n_pts, n_pts * (32 + 24 * w.size), f"orthogonality scan to t_max = {t_max!r}")
    ts = np.linspace(0.0, t_max, n_pts)
    f = np.abs(np.exp(1j * np.outer(ts, w)) @ p.astype(complex))

    interior = (f[1:-1] <= f[:-2]) & (f[1:-1] <= f[2:]) & (f[1:-1] < 0.25)
    candidates = list(np.flatnonzero(interior) + 1)
    if f[-1] < 0.25 and f[-1] <= f[-2]:
        candidates.append(n_pts - 1)

    for i in candidates:
        lo = ts[max(i - 1, 0)]
        hi = ts[min(i + 1, n_pts - 1)]
        while hi - lo > 1e-12:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if _overlap_magnitude(p, w, m1) <= _overlap_magnitude(p, w, m2):
                hi = m2
            else:
                lo = m1
        t_min = (lo + hi) / 2.0
        if _overlap_magnitude(p, w, t_min) >= ORTHOGONALITY_TOL:
            continue
        # Walk the threshold crossing down to the left of the minimum.
        left = ts[max(i - 1, 0)]
        if _overlap_magnitude(p, w, left) < ORTHOGONALITY_TOL:
            return float(left)
        a, b = left, t_min
        while b - a > _TIME_RESOLUTION:
            mid = (a + b) / 2.0
            if _overlap_magnitude(p, w, mid) < ORTHOGONALITY_TOL:
                b = mid
            else:
                a = mid
        return float(b)
    return None


@dataclass(frozen=True)
class MLCheck:
    """Margolus-Levitin audit: t * E_above_ground >= pi/2 for orthogonalization."""

    orthogonalization_time: float | None
    mean_energy_above_ground: float
    min_time_bound: float | None
    satisfied: bool


def ml_check(h: HamiltonianTrajectory, psi0, t_max: float, slack: float = 1e-6) -> MLCheck:
    """Measure the orthogonalization time and compare it to the ML bound."""
    t = orthogonalization_time(h, psi0, t_max)
    psi0 = as_state(psi0)
    h_mat = h.at(0.0)
    w = np.linalg.eigvalsh(h_mat)
    e_bar = float(np.vdot(psi0, h_mat @ psi0).real - w[0])
    bound = (math.pi / (2.0 * e_bar)) if e_bar > 0.0 else None
    ok = t is None or bound is None or t >= bound - slack
    return MLCheck(
        orthogonalization_time=t,
        mean_energy_above_ground=e_bar,
        min_time_bound=bound,
        satisfied=ok,
    )


def cycle_hamiltonian(n: int, tau: float = 1.0):
    """Natural generator of the N-state cyclic shift.

    Returns (h, c) where c maps |k> to |k+1 mod n> and exp_i(H tau) = c.
    H shares the Fourier eigenvectors with c and is ground-zeroed: mode m
    has energy 2 pi ((n - m) mod n) / (n tau).
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError("cycle needs at least two states")
    if not tau > 0.0:
        raise ValidationError("tau must be positive")
    k = np.arange(n)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)
    omega = 2.0 * np.pi * ((n - k) % n) / (n * tau)
    h = (fourier * omega) @ fourier.conj().T
    h = check_hermitian((h + h.conj().T) / 2.0, name="cycle generator")
    c = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    return constant_hamiltonian(h), c
