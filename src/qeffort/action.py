"""Continuous action operator A(t) = -i ln U(t) by eigenphase tracking.

The principal matrix logarithm jumps by 2pi whenever an eigenphase crosses
the branch cut, so it cannot define a continuous A(t). This module pins
the branch by continuity instead: eigenvectors at each sample are matched
to the previous sample's by overlap, and each matched eigenphase is
unwound by the multiple of 2pi that keeps its motion small. A(0) = 0 and
per-channel winding integers make the logarithm single-valued along the
whole trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMatchError, NumericalError, ValidationError
from .evolution import UnitaryTrajectory, sample_index
from .linalg import DEGENERACY_TOL, as_state, fold_angle, stack_chunks, unitary_eigenphases_stack
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


def _cluster_ids(phi: np.ndarray) -> np.ndarray:
    """Label degenerate clusters of sorted principal phases.

    Neighbors closer than DEGENERACY_TOL share a label; the first and last
    clusters merge when they touch across the branch point.
    """
    ids = np.concatenate(([0], np.cumsum(np.diff(phi) >= DEGENERACY_TOL)))
    if ids[-1] != 0 and 2.0 * np.pi - (phi[-1] - phi[0]) < DEGENERACY_TOL:
        ids[ids == ids[-1]] = 0
    return ids


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
    times = traj.times
    u = traj.unitaries
    n, d = u.shape[0], u.shape[1]
    if n < 2:
        raise ValidationError("tracking needs at least two trajectory samples")

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
            from scipy.optimize import linear_sum_assignment

            _, assign = linear_sum_assignment(-overlap)
        cluster = _cluster_ids(phis_raw[k - 1])
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
