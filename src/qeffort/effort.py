"""The effort functional, computed four ways.

For a trajectory psi(t) = U(t) psi0 the accumulated average phase angle
alpha equals the overlap line integral, the time integral of <H>, the
expectation of the action operator, and twice the complex-plane area swept
by the coefficients in any fixed basis. The line integral and the area are
arg and Im of the same step overlaps <psi_k|psi_k+1>, so their gap
measures the step size; the energy integral is the independent check. The
area is the same in every unitary basis by algebra, so it is computed once.

Signed values throughout: clockwise coefficient motion contributes
negative area and negative effort. The ground-zero shift that makes
efforts nonnegative is a convention applied by the difficulty module.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .action import ActionOperator, _track_knots, action_expectation
from .errors import ValidationError
from .evolution import StateTrajectory, evolve, state_trajectory
from .infidelity import fidelity
from .linalg import as_state, check_hermitian, check_unitary, stack_chunks
from .serialize import write_csv

TRACE_CSV_COLUMNS = ("time", "basis_index", "re", "im")


@dataclass(frozen=True, eq=False)
class EffortReport:
    """The four effort estimates and their mutual discrepancy.

    2 * area_swept is the alpha-comparable quantity; the three alphas and
    it agree within max_pairwise_discrepancy. area_basis_variation stays
    in the report format and is always 0.0: the area is the same in every
    unitary basis.
    """

    alpha_line_integral: float
    alpha_energy_integral: float
    alpha_action_expectation: float
    area_swept: float
    basis_used: str
    max_pairwise_discrepancy: float
    area_basis_variation: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EffortBounds:
    min: float
    max: float
    expected: float


def _state_samples(states) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a StateTrajectory or (time, state) sequence to flat arrays."""
    if isinstance(states, StateTrajectory):
        return np.asarray(states.times, dtype=float), np.asarray(states.states, dtype=complex)
    pairs = list(states)
    if not pairs:
        raise ValidationError("empty state sequence")
    times = np.array([float(t) for t, _ in pairs])
    mat = np.array([np.asarray(v, dtype=complex).reshape(-1) for _, v in pairs])
    return times, mat


def _check_basis(basis, dim: int, name: str = "basis") -> np.ndarray:
    """A unitary basis of the dim-dimensional state space, as a complex array."""
    basis = check_unitary(basis, name=name)
    if basis.shape[0] != dim:
        raise ValidationError(f"{name} has dimension {basis.shape[0]}, the states {dim}")
    return basis


def effort_line_integral(states) -> float:
    """Sum of arg<psi_k|psi_k+1> along the sampled trajectory (radians).

    arg rather than Im of the step overlap: the two agree to third order
    per step, and arg stays exact for a pure phase rotation however large
    the step. Refuses sparse sampling (any step overlap magnitude <= 0.9).
    """
    _, psi = _state_samples(states)
    if psi.shape[0] < 2:
        raise ValidationError("line integral needs at least two samples")
    overlaps = np.einsum("ti,ti->t", psi[:-1].conj(), psi[1:])
    low = np.abs(overlaps).min()
    if low <= 0.9:
        raise ValidationError(
            f"sampling too sparse for the line integral: a step overlap "
            f"magnitude fell to {low:.4f} (need > 0.9)"
        )
    return float(np.angle(overlaps).sum())


def area_swept(states, basis=None) -> float:
    """Total signed complex-plane area swept by the coefficients.

    basis: unitary matrix whose columns are the expansion vectors; None
    means the standard basis. Each coefficient c_j(t) = <b_j|psi(t)> traces
    a curve; the swept area is sum_j (1/2) integral Im(conj(c_j) dc_j).
    Clockwise motion counts negative. sum_j conj(c_j(k)) c_j(k+1) is
    <psi_k|psi_k+1> in every unitary basis, so basis is only validated.

    The base estimate is the triangle sum (1/2) Im(conj(c_k) c_k+1), whose
    chord bias is O(step^2). Wherever two consecutive steps are equal the
    pair is Richardson-refined against the stride-2 triangle, which drops
    the bias to O(step^4); trajectories from evolve() qualify throughout.
    """
    times, psi = _state_samples(states)
    if psi.shape[0] < 2:
        raise ValidationError("area needs at least two samples")
    if basis is not None:
        _check_basis(basis, psi.shape[1])
    cross = np.einsum("kj,kj->k", psi[:-1].conj(), psi[1:]).imag
    n = cross.shape[0]
    if n < 2 or n % 2 != 0:
        return float(0.5 * cross.sum())
    dt = np.diff(times)
    uniform = np.abs(dt[0::2] - dt[1::2]) <= 1e-9 * np.abs(dt[0::2])
    fine = cross[0::2] + cross[1::2]
    coarse = np.einsum("kj,kj->k", psi[:-2:2].conj(), psi[2::2]).imag
    return float(0.5 * np.where(uniform, (4.0 * fine - coarse) / 3.0, fine).sum())


def _energy_integral(traj, states_at, channels: int) -> np.ndarray:
    """Blockwise Simpson integral of <psi| H(t) |psi> dt for each channel.

    states_at(samples) gives the (len(samples), d, channels) states there,
    one bounded chunk at a time. A boundary sample counts once per block, so
    jumps of H(t) never fall inside a panel. No H(t) is built: on a linear
    block <H(t)> = (1 - w) <H0> + w <H1>, one product per run of a block's
    states with [H0^T | H1^T]. The Simpson weights apply in one pass.
    """
    i0, i1, descs = zip(*traj.blocks)
    i0, i1 = np.array(i0), np.array(i1)
    n = i1 - i0
    if (n < 2).any() or (n % 2).any():
        raise ValidationError("Simpson rule needs an even, nonzero step count")
    block = np.repeat(np.arange(n.size), n + 1)
    sample = np.arange(block.size) - block
    k = sample - i0[block]
    simpson = np.where(k % 2, 4.0, np.where((k == 0) | (k == n[block]), 1.0, 2.0))
    weights = simpson * ((traj.times[i1] - traj.times[i0]) / n / 3.0)[block]
    # A constant block is the linear one from H to H over [0, inf): w = 0.
    t0, h0, t1, h1 = zip(*(c[1:] if c[0] == "lin" else (0.0, c[1], np.inf, c[1]) for c in descs))
    t0, t1 = np.array(t0), np.array(t1)
    w = ((traj.times[sample] - t0[block]) / (t1 - t0)[block])[:, None]
    pairs = [np.concatenate((a.T, b.T), axis=1) for a, b in zip(h0, h1)]
    d = traj.dim
    energies = np.empty((sample.size, channels))
    for part in stack_chunks(sample.size, d):
        rows = np.swapaxes(states_at(sample[part]), 1, 2).reshape(-1, d)
        h_rows = np.empty((rows.shape[0], 2 * d), dtype=complex)
        cuts = [0, *(np.flatnonzero(np.diff(block[part])) + 1) * channels, rows.shape[0]]
        for a, b in zip(cuts[:-1], cuts[1:]):
            np.matmul(rows[a:b], pairs[block[part][a // channels]], out=h_rows[a:b])
        e = np.einsum("ri,rji->rj", rows.conj(), h_rows.reshape(-1, 2, d)).real
        e = e.reshape(-1, channels, 2)
        energies[part] = (1.0 - w[part]) * e[..., 0] + w[part] * e[..., 1]
    return weights @ energies


def blockwise_energy_integral(traj, states: np.ndarray):
    """Integral of <state(t)| H(t) |state(t)> dt over the trajectory.

    states: (N, d) or (N, d, channels) array aligned with traj.times.
    Composite Simpson per uniform block, so piecewise discontinuities in
    H(t) fall on block boundaries and never inside a quadrature panel.
    Returns a scalar, or an array over the trailing channel axes.
    """
    states = np.asarray(states, dtype=complex)
    if states.shape[0] != traj.times.shape[0]:
        raise ValidationError("states are not aligned with the trajectory samples")
    flat = states.reshape(states.shape[:2] + (-1,))
    total = _energy_integral(traj, flat.__getitem__, flat.shape[2])
    return float(total[0]) if states.ndim == 2 else total.reshape(states.shape[2:])


def effort_energy_integral(h, psi0, t_end: float, policy=None) -> float:
    """Evolve psi0 under h and integrate the instantaneous <H> (radians)."""
    traj = evolve(h, t_end, policy)
    st = state_trajectory(traj, psi0)
    return blockwise_energy_integral(traj, st.states)


def effort_report(h, psi0, t_end: float, bases=None, policy=None) -> EffortReport:
    """Run all four effort estimators on one evolution and compare them.

    bases: optional unitary basis matrices, validated before anything is
    computed; the area is the same in all of them, so area_basis_variation
    is 0.0.

    The action estimator needs A(t_end) only, so it tracks the eigenphases
    on knots: every s-th sample and the last, with s the largest stride
    whose eigenphase motion per knot step stays within the pi/8 budget
    the step policy gives each sample. A knot step where two channels a
    winding apart come close enough to swap eigenvectors unseen is
    refined. A knot step that cannot be matched cleanly retries at a
    quarter of the stride, down to stride 1, which is track_action on
    every sample (with its errors). The unwound phases agree with
    track_action's to the rounding of its longer sum.
    """
    return _report(evolve(h, t_end, policy), psi0, bases)[0]


def _report(traj, psi0, bases=None) -> tuple[EffortReport, StateTrajectory]:
    """effort_report on an evolved trajectory; also returns psi0's states."""
    for i, b in enumerate(bases or ()):
        _check_basis(b, traj.dim, f"bases[{i}]")
    st = state_trajectory(traj, psi0)
    line = effort_line_integral(st)
    energy = blockwise_energy_integral(traj, st.states)
    track = _track_knots(traj)
    a_exp = action_expectation(track, psi0, float(traj.times[-1]))
    area = area_swept(st)
    values = [2.0 * area, line, energy, a_exp]
    disc = max(abs(x - y) for x in values for y in values)
    return EffortReport(
        alpha_line_integral=line,
        alpha_energy_integral=energy,
        alpha_action_expectation=a_exp,
        area_swept=area,
        basis_used="custom" if bases else "standard",
        max_pairwise_discrepancy=disc,
    ), st


def _bounds_from_listed(mat, states, probs) -> EffortBounds:
    vals = [float(np.vdot(s, mat @ s).real) for s in states]
    expected = float(np.dot(probs, vals))
    return EffortBounds(min=min(vals), max=max(vals), expected=expected)


def effort_bounds(a, ensemble="full-space") -> EffortBounds:
    """Extremes and expectation of an action operator over an ensemble.

    ensemble: "full-space" (min/max are extreme eigenvalues, expected is
    the uniform-density value Tr(A)/dim); a density matrix (expected =
    Tr(rho A), min/max over rho's eigenvectors with nonzero weight); or a
    list of (state, probability) pairs (min/max over the listed states).
    """
    mat = a.matrix if isinstance(a, ActionOperator) else None
    if mat is None:
        mat = check_hermitian(a, name="action operator")

    if isinstance(ensemble, str):
        if ensemble != "full-space":
            raise ValidationError(f"unknown ensemble {ensemble!r}")
        w = np.linalg.eigvalsh(mat)
        return EffortBounds(
            min=float(w[0]),
            max=float(w[-1]),
            expected=float(np.trace(mat).real / mat.shape[0]),
        )

    if isinstance(ensemble, np.ndarray) and ensemble.ndim == 2:
        rho = check_hermitian(ensemble, name="density operator")
        if rho.shape != mat.shape:
            raise ValidationError("density operator dimension mismatch")
        if abs(np.trace(rho).real - 1.0) >= 1e-10:
            raise ValidationError("density operator trace is not 1")
        w, v = np.linalg.eigh(rho)
        if w[0] < -1e-10:
            raise ValidationError("density operator is not positive semidefinite")
        keep = w > 1e-12
        states = [v[:, j] for j in np.flatnonzero(keep)]
        bounds = _bounds_from_listed(mat, states, w[keep] / w[keep].sum())
        # Tr(rho A) directly, so zero-weight eigenvectors cannot perturb it.
        return EffortBounds(
            min=bounds.min,
            max=bounds.max,
            expected=float(np.einsum("ij,ji->", rho, mat).real),
        )

    pairs = list(ensemble)
    if not pairs:
        raise ValidationError("empty ensemble")
    states = [as_state(s) for s, _ in pairs]
    probs = np.array([float(p) for _, p in pairs])
    if np.any(probs < 0.0):
        raise ValidationError("ensemble probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) >= 1e-12:
        raise ValidationError(f"ensemble probabilities sum to {probs.sum()!r}, not 1")
    return _bounds_from_listed(mat, states, probs)


def hilbert_distance(psi1, psi2) -> float:
    """arccos |<psi1|psi2>|: the unrestricted minimum effort between states."""
    return float(np.arccos(fidelity(psi1, psi2)))


def export_state_trace_csv(path, states, basis=None) -> None:
    """Per-coefficient complex-plane trace (time, basis_index, re, im)."""
    times, psi = _state_samples(states)
    coeffs = psi if basis is None else psi @ _check_basis(basis, psi.shape[1]).conj()
    rows = (
        (times[k], j, coeffs[k, j].real, coeffs[k, j].imag)
        for k in range(times.shape[0])
        for j in range(coeffs.shape[1])
    )
    write_csv(path, TRACE_CSV_COLUMNS, rows)
