"""Continuous action operator A(t) = -i ln U(t) by eigenphase tracking.

The principal matrix logarithm jumps by 2pi whenever an eigenphase crosses
the branch cut, so it cannot define a continuous A(t). This module pins
the branch by continuity instead: eigenvectors at each sample are matched
to the previous sample's by overlap, and each matched eigenphase is
unwound by the multiple of 2pi that keeps its motion small. A(0) = 0 and
per-channel winding integers make the logarithm single-valued along the
whole trajectory.

track_action decomposes U at every sample. effort_report needs only
A(t_end), so it tracks on knots: every s-th sample and the last one,
with s the largest stride that keeps each eigenphase's motion between
knots under the pi/8 per-step budget of the step policy. A knot step
where two eigenphases a winding apart come close enough to swap their
eigenvectors unseen is refined with samples at a quarter of its length,
down to single samples. A knot step whose argmax is not a permutation,
whose match is ambiguous, or whose phase moves by pi/2 or more makes it
retry at a quarter of the stride; at stride 1 it is track_action
itself, errors included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMatchError, NumericalError, ValidationError
from .evolution import UnitaryTrajectory, sample_index
from .linalg import (
    DEGENERACY_TOL,
    _cluster_ids,
    as_state,
    fold_angle,
    stack_chunks,
    unitary_eigenphases_stack,
)
from .serialize import write_csv

# Two candidate matches whose squared overlaps compete within this margin
# cannot be told apart reliably; unless they sit in a common degenerate
# eigenvalue cluster (where the choice is gauge), tracking must refuse.
_MATCH_MARGIN = 1e-6

TRACK_CSV_COLUMNS = ("time", "channel", "eigenphase", "winding", "degenerate_flag")


@dataclass(frozen=True, eq=False)
class ActionTrack:
    """Per-channel continuous eigenphase record of A(t).

    alphas[k, j] is the unwound eigenphase of channel j at times[k], with
    alphas[0] = 0; windings counts the accumulated branch crossings, so
    alphas - 2*pi*windings is the principal phase in (-pi, pi]. Channel
    identity is fixed by eigenvector continuity from the first step on;
    the eigenvectors at times[0] (where U = I is fully degenerate) are
    seeded from the first step's basis.
    """

    times: np.ndarray
    alphas: np.ndarray
    windings: np.ndarray
    eigenvectors: np.ndarray
    degenerate: np.ndarray

    @property
    def dim(self) -> int:
        return self.alphas.shape[1]

    def principal_phases(self) -> np.ndarray:
        return self.alphas - 2.0 * np.pi * self.windings

    def index_of(self, t: float) -> int:
        return sample_index(self.times, t, "track")


@dataclass(frozen=True, eq=False)
class ActionOperator:
    """A(t) at one instant: Hermitian, in radians, with exp_i(A) = U(t)."""

    matrix: np.ndarray
    time: float


def _is_ambiguous(overlap, cluster, assign) -> bool:
    """True for near-tied matches that are not resolved by degeneracy.

    For each previous-step channel, any candidate competing with the
    chosen column within _MATCH_MARGIN of squared overlap must belong to
    the same degenerate cluster (where the tie is pure gauge).
    """
    chosen = overlap[np.arange(overlap.shape[0]), assign][:, None]
    rival = (chosen - overlap < _MATCH_MARGIN) & (cluster[None, :] != cluster[assign][:, None])
    return bool(rival.any())


def _carry_degenerate_gauge(new_vecs, prev_vecs, raw_vecs, cluster, assign):
    """Propagate the previous eigenbasis through degenerate clusters.

    Inside a cluster the decomposition returns an arbitrary orthonormal
    basis. Projecting the previous step's matched vectors onto the cluster
    span and re-orthonormalizing keeps the channels analytic through exact
    crossings (e.g. a trajectory passing through a multiple of the
    identity) instead of jumping to whatever basis eigh happened to pick.
    """
    for c in np.unique(cluster):
        members = np.flatnonzero(cluster == c)
        if members.size < 2:
            continue
        rows = np.flatnonzero(np.isin(assign, members))
        if rows.size == 0:
            continue
        span = raw_vecs[:, members]
        proj = span @ (span.conj().T @ prev_vecs[:, rows])
        norms = np.linalg.norm(proj, axis=0)
        if norms.min() < 0.9:
            continue  # previous basis left the cluster span; keep raw vectors
        q, _ = np.linalg.qr(proj)
        z = np.einsum("ir,ir->r", q.conj(), prev_vecs[:, rows])
        q = q * (z / np.abs(z))
        new_vecs[:, rows] = q
    return new_vecs


def _raw_matches(vecs: np.ndarray):
    """Row-wise argmax matching of each raw eigenbasis to the one before it.

    Per consecutive pair: the argmax, whether it is a permutation, and
    whether a row has a rival within _MATCH_MARGIN of its maximum.
    """
    n, d = vecs.shape[0] - 1, vecs.shape[1]
    best = np.empty((n, d), dtype=int)
    injective = np.empty(n, dtype=bool)
    tied = np.empty(n, dtype=bool)
    for part in stack_chunks(n, d):
        prev = vecs[part.start : part.stop]
        cur = vecs[part.start + 1 : part.stop + 1]
        overlap = np.abs(np.swapaxes(prev.conj(), -1, -2) @ cur) ** 2
        best[part] = overlap.argmax(axis=-1)
        chosen = np.take_along_axis(overlap, best[part][..., None], axis=-1)
        # More than one close column per row: the chosen one counts itself.
        tied[part] = ((chosen - overlap < _MATCH_MARGIN).sum(axis=-1) > 1).any(axis=-1)
        injective[part] = (np.sort(best[part], axis=-1) == np.arange(d)).all(axis=-1)
    return best, injective, tied


def track_action(traj: UnitaryTrajectory) -> ActionTrack:
    """Track eigenvectors and unwound eigenphases along a trajectory.

    Matching is by maximal squared overlap with the previous step, found
    by row-wise argmax (which attains the upper bound sum-of-row-maxima,
    hence is the optimal assignment, whenever it is injective) with an
    exact assignment solve as fallback. Steps run as batched array
    operations, except a step where it or its predecessor has a degenerate
    cluster, or whose argmax is not injective: that step runs by itself
    and carries the previous basis through the cluster. Raises
    AmbiguousMatchError when the data cannot distinguish two matchings,
    and NumericalError when an eigenphase moves by pi/2 or more in one
    step, at the first step where either happens; both cures are the
    same: re-evolve with a smaller max_step.
    """
    if traj.unitaries.shape[0] < 2:
        raise ValidationError("tracking needs at least two trajectory samples")
    return _track(traj.times, traj.unitaries, strict=False)


def _track(times: np.ndarray, u: np.ndarray, strict: bool) -> ActionTrack:
    """track_action on the samples (times, u).

    strict refuses a step whose argmax is not a permutation, as an
    AmbiguousMatchError, instead of solving the assignment (which imports
    scipy).
    """
    n, d = u.shape[0], u.shape[1]
    # Row k - 1 of every per-step array below belongs to step k.
    phis_raw, vecs_raw, deg_raw = unitary_eigenphases_stack(u[1:])
    best, injective, tied = _raw_matches(vecs_raw)
    deg_any = deg_raw.any(axis=1)
    per_step = np.concatenate(([False], ~injective | deg_any[1:] | deg_any[:-1]))
    per_step_at, tied_at = per_step.tolist(), [False, *tied.tolist()]

    vectors = np.empty((n, d, d), dtype=complex)
    perms = np.empty((n - 1, d), dtype=int)  # channel -> raw column
    perms[0] = perm = np.arange(d)  # channel identity is born in sorted order
    stop = n  # the ambiguous step, if any
    for k in range(2, n):
        if not per_step_at[k - 1]:
            if tied_at[k - 1]:
                stop = k
                break
            perms[k - 1] = perm = best[k - 2][perm]
            continue
        prev_vecs = vectors[k - 1] if per_step_at[k - 2] else vecs_raw[k - 2][:, perm]
        rvecs = vecs_raw[k - 1]
        overlap = np.abs(prev_vecs.conj().T @ rvecs) ** 2
        assign = overlap.argmax(axis=1)
        if np.unique(assign).size != d:
            if strict:
                raise AmbiguousMatchError(k, times[k])
            from scipy.optimize import linear_sum_assignment

            _, assign = linear_sum_assignment(-overlap)
        cluster = _cluster_ids(phis_raw[k - 1], DEGENERACY_TOL, circular=True)
        if _is_ambiguous(overlap, cluster, assign):
            stop = k
            break
        vectors[k] = _carry_degenerate_gauge(rvecs[:, assign], prev_vecs, rvecs, cluster, assign)
        perms[k - 1] = perm = assign

    new_phi = np.zeros((stop, d))  # row 0 is t = 0, where U = I
    new_phi[1:] = np.take_along_axis(phis_raw[: stop - 1], perms[: stop - 1], axis=1)
    delta = fold_angle(np.diff(new_phi, axis=0))
    jumps = np.flatnonzero((np.abs(delta) >= np.pi / 2.0).any(axis=1))
    if jumps.size:
        k = int(jumps[0]) + 1
        worst = int(np.argmax(np.abs(delta[k - 1])))
        raise NumericalError(
            f"eigenphase of channel {worst} moved {delta[k - 1, worst]:+.4f} rad in one "
            f"step at step {k} (t = {times[k]:.6g}), exceeding the pi/2 "
            f"continuity budget; re-evolve with a smaller max_step"
        )
    if stop < n:
        raise AmbiguousMatchError(stop, times[stop])

    alphas = np.concatenate((np.zeros((1, d)), np.cumsum(delta, axis=0)))
    windings = np.rint((alphas - new_phi) / (2.0 * np.pi)).astype(int)
    degenerate = np.ones((n, d), dtype=bool)  # U(0) = I: one fully degenerate cluster
    degenerate[1:] = np.take_along_axis(deg_raw, perms, axis=1)
    for part in stack_chunks(n - 1, d):
        rows = np.flatnonzero(~per_step[part]) + part.start
        vectors[rows + 1] = np.take_along_axis(vecs_raw[rows], perms[rows][:, None, :], axis=-1)
    vectors[0] = vectors[1]  # gauge seed for the fully degenerate t = 0 record
    return ActionTrack(
        times=times,
        alphas=alphas,
        windings=windings,
        eigenvectors=vectors,
        degenerate=degenerate,
    )


def _track_knots(traj: UnitaryTrajectory) -> ActionTrack:
    """Track A(t) on every s-th sample and the last, refined where needed.

    Eigenphases of U move at most h_norm_max per unit time, so the first
    stride is the largest that keeps their motion between knots under
    pi/8 (the whole trajectory when H = 0). A knot step that could hide
    an eigenvector swap (_swap_risks) gets samples at a quarter of its
    length added, until no such step is longer than one sample. A failed
    knot step retries everything at a quarter of the stride; at stride 1
    this is track_action(traj).
    """
    last = traj.times.shape[0] - 1
    motion = 8.0 * traj.h_norm_max * float(np.diff(traj.times).max(initial=0.0))
    stride = last if motion * last <= np.pi else int(np.pi / motion)
    while stride > 1:
        knots = np.append(np.arange(0, last, stride), last)
        try:
            while True:
                track = _track(traj.times[knots], traj.unitaries[knots], strict=True)
                span = np.diff(knots)
                risky = np.flatnonzero(_swap_risks(track, traj.h_norm_max) & (span > 1))
                if risky.size == 0:
                    return track
                steps = np.maximum(span[risky] // 4, 1)
                added = [np.arange(knots[i], knots[i + 1], s) for i, s in zip(risky, steps)]
                knots = np.union1d(knots, np.concatenate(added))
        except NumericalError:
            stride //= 4
    return track_action(traj)


def _swap_risks(track: ActionTrack, h_norm_max: float) -> np.ndarray:
    """Flag the knot steps across which a missed eigenvector swap could change A.

    In a step of length dt each eigenphase moves at most mu = h_norm_max * dt
    and an eigenvector turns at most (pi / 2) * mu / gap, gap being its
    least distance to another eigenphase on the way. Two channels that stay
    4 mu apart at both ends keep gap >= 3 mu, so neither turns the pi/4 a
    swap needs. A swap between channels whose unwound phases differ by at
    most pi only trades equal branches; one between channels a winding
    apart moves A by 2 pi. So a step is flagged when two channels whose
    unwound phases differ by more than pi come within 4 mu at either end.
    """
    gap = np.empty(track.times.shape[0])
    for part in stack_chunks(gap.size, track.dim):
        diff = np.abs(track.alphas[part, :, None] - track.alphas[part, None, :])
        gap[part] = np.where(diff > np.pi, np.abs(fold_angle(diff)), np.inf).min(axis=(1, 2))
    reach = 4.0 * h_norm_max * np.diff(track.times)
    return np.minimum(gap[:-1], gap[1:]) < reach


def action_at(track: ActionTrack, t: float) -> ActionOperator:
    """A(t) = sum_j alpha_j(t) |v_j(t)><v_j(t)| at a sample time."""
    k = track.index_of(t)
    v = track.eigenvectors[k]
    a = (v * track.alphas[k]) @ v.conj().T
    return ActionOperator(matrix=(a + a.conj().T) / 2.0, time=float(track.times[k]))


def action_expectation(track: ActionTrack, psi0, t: float) -> float:
    """<psi0| A(t) |psi0>: the accumulated average phase angle for psi0."""
    psi0 = as_state(psi0)
    k = track.index_of(t)
    weights = np.abs(track.eigenvectors[k].conj().T @ psi0) ** 2
    return float(track.alphas[k] @ weights)


def action_derivative(track: ActionTrack, h, t: float) -> np.ndarray:
    """The conjugated generator U†(t) H(t) U(t).

    Equal to dA/dt whenever A(t) and H(t) commute (constant H, or any
    commuting family), and always equal on the diagonal in A's eigenbasis.
    For noncommuting evolutions the off-diagonal entries differ, so a
    finite difference of action_at need not reproduce this matrix.
    """
    k = track.index_of(t)
    v = track.eigenvectors[k]
    u = (v * np.exp(1j * track.alphas[k])) @ v.conj().T
    m = u.conj().T @ h.at(track.times[k]) @ u
    return (m + m.conj().T) / 2.0


def export_track_csv(path, track: ActionTrack) -> None:
    """Write the track as CSV rows (time, channel, eigenphase, winding, flag).

    The eigenphase column holds the principal phase; the unwound value is
    eigenphase + 2*pi*winding. The flag column is 0/1.
    """
    principal = track.principal_phases()
    rows = (
        (track.times[k], j, principal[k, j], track.windings[k, j], track.degenerate[k, j])
        for k in range(len(track.times))
        for j in range(track.dim)
    )
    write_csv(path, TRACK_CSV_COLUMNS, rows)
