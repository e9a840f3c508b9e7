"""Time evolution: cumulative unitary trajectories from Hamiltonian trajectories.

The operator equation dU/dt = +iH(t)U(t) is integrated as a time-ordered
product of short exponentials. Constant and piecewise-constant generators
are propagated exactly (spectrally, block by block); time-interpolated
generators use the midpoint-exponential rule, which is unitary per step
and second-order accurate.

The midpoint rule runs as a batched stage over all linear blocks at once:
the midpoint Hamiltonians of a bounded chunk of steps are built as array
operations and exponentiated by one stacked Taylor polynomial, and
unitarity drift is checked in one batch per window of chained steps. Only
the chain product U <- step @ U (with its scheduled polishes) stays a
per-step loop. It gives the same numbers, bit for bit, as stepping the
same polynomial one exponential at a time.

Sample grids are built per uniform block (one block per constant span or
interpolation interval), with an even number of steps per block so that
downstream Simpson quadrature needs no special casing.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import _drift, _exp_i_taylor, as_state, check_hermitian, reunitarize, stack_chunks

#: Upper bound on the automatic step size. Chosen so that the four effort
#: estimators (each with an independent O(step^2) quadrature error) agree
#: to well under 1e-6 on unit-scale problems; see the effort module tests.
DEFAULT_MAX_STEP = 2.5e-4

#: Hard floor on a step; below this the grid builder has underflowed.
MIN_STEP = 1e-12


@dataclass(frozen=True)
class StepPolicy:
    """Step-size rule for evolve.

    max_step: explicit step bound, or None to use the density rule
        min(DEFAULT_MAX_STEP, pi / (8 * max spectral norm of H)). The rule
        keeps per-step eigenphase motion under pi/8, half the pi/4 budget
        the action tracker's unwinding assumes. An explicit max_step is
        honored verbatim; callers who exceed the density bound own the
        consequences (the tracker will refuse ambiguous matches).
    tolerance: unitarity drift above which a stepped integrator
        re-unitarizes immediately rather than waiting for the schedule.
    reunitarize_every: scheduled polar correction interval, in steps.
    """

    max_step: float | None = None
    tolerance: float = 1e-10
    reunitarize_every: int = 100

    def __post_init__(self):
        if self.max_step is not None and not self.max_step > 0.0:
            raise ValidationError("max_step must be positive")
        if not self.tolerance > 0.0:
            raise ValidationError("tolerance must be positive")
        if not isinstance(self.reunitarize_every, int) or self.reunitarize_every < 1:
            raise ValidationError("reunitarize_every must be a positive integer")


@dataclass(frozen=True, eq=False)
class HamiltonianTrajectory:
    """A time-parameterized Hermitian generator H(t), as a tuple of blocks.

    blocks: contiguous (t0, t1, descriptor) triples in time order. The
        descriptor is ("const", H), or ("lin", a0, H0, a1, H1) for the
        entrywise linear interpolant through the knots (a0, H0) and
        (a1, H1): the descriptors of UnitaryTrajectory.blocks. A boundary
        instant belongs to the block that starts there, the last block's
        end to the last block. H(t) is defined on [blocks[0][0],
        blocks[-1][1]].
    kind: the constructor that built the blocks, kept for the codec.
        "constant" is one block (0, inf); "piecewise" is one "const" block
        per segment, at cumulative times from 0; "interpolated" is one
        "lin" block per knot interval, with the knots at its ends.

    Energies are radians per unit time (hbar = 1).
    """

    dim: int
    kind: str
    blocks: tuple

    def at(self, t: float) -> np.ndarray:
        """H(t). A block boundary takes the block that starts there."""
        lo, hi = self.blocks[0][0], self.blocks[-1][1]
        if not lo <= t <= hi:
            raise ValidationError(f"t = {t!r} is outside the {self.kind} range [{lo!r}, {hi!r}]")
        _, _, desc = self.blocks[bisect.bisect_right(self.blocks, t, key=itemgetter(0)) - 1]
        if desc[0] == "const":
            return desc[1]
        _, a0, h0, a1, h1 = desc
        w = (t - a0) / (a1 - a0)
        return (1.0 - w) * h0 + w * h1

    def total_duration(self) -> float:
        if self.kind != "piecewise":
            raise ValidationError("total_duration is defined for piecewise trajectories")
        return self.blocks[-1][1]

    def spectral_norm_max(self) -> float:
        """Max spectral norm of H over its definition range.

        Exact: a linear interpolant's norm is bounded by the larger knot
        norm (convexity of the operator norm). Each block's closing matrix
        and the first block's opening one cover every knot once.
        """
        mats = [b[2][-1] for b in self.blocks]
        mats.append(next(m for m in self.blocks[0][2] if isinstance(m, np.ndarray)))
        return float(np.linalg.norm(np.stack(mats), 2, axis=(1, 2)).max())


def constant_hamiltonian(h) -> HamiltonianTrajectory:
    h = check_hermitian(h, name="Hamiltonian")
    return HamiltonianTrajectory(h.shape[0], "constant", ((0.0, math.inf, ("const", h)),))


def _checked_pairs(pairs, what: str, scalar: str) -> list[tuple[float, np.ndarray]]:
    """(float(x), H) of (x, H) pairs, each x finite, each H Hermitian, all of one dimension."""
    knots = []
    for k, (x, h) in enumerate(pairs):
        try:
            x = float(x)
        except (TypeError, ValueError):
            raise ValidationError(f"{what} {k} {scalar} must be a number, got {x!r}") from None
        if not math.isfinite(x):
            raise ValidationError(f"{what} {k} {scalar} must be finite, got {x!r}")
        h = check_hermitian(h, name=f"{what} {k} Hamiltonian")
        if knots and h.shape != knots[0][1].shape:
            raise ValidationError(f"{what} dimensions disagree")
        knots.append((x, h))
    return knots


def piecewise_hamiltonian(segments) -> HamiltonianTrajectory:
    """Build a piecewise-constant trajectory from (duration, H) pairs."""
    segs = _checked_pairs(segments, "segment", "duration")
    for k, (dur, _) in enumerate(segs):
        if not dur > 0.0:
            raise ValidationError(f"segment {k} has non-positive duration {dur!r}")
    if not segs:
        raise ValidationError("piecewise trajectory needs at least one segment")
    ends = list(accumulate((dur for dur, _ in segs), initial=0.0))
    if not math.isfinite(ends[-1]):
        raise ValidationError(f"segment durations sum to {ends[-1]!r}")
    blocks = tuple((t0, t1, ("const", h)) for t0, t1, (_, h) in zip(ends, ends[1:], segs))
    return HamiltonianTrajectory(segs[0][1].shape[0], "piecewise", blocks)


def interpolated_hamiltonian(samples) -> HamiltonianTrajectory:
    """Build a linearly interpolated trajectory from (time, H) pairs."""
    pts = _checked_pairs(samples, "sample", "time")
    if any(not t1 > t0 for (t0, _), (t1, _) in zip(pts, pts[1:])):
        raise ValidationError("sample times must be strictly increasing")
    if len(pts) < 2:
        raise ValidationError("interpolated trajectory needs at least two samples")
    blocks = tuple((a0, a1, ("lin", a0, h0, a1, h1)) for (a0, h0), (a1, h1) in zip(pts, pts[1:]))
    return HamiltonianTrajectory(pts[0][1].shape[0], "interpolated", blocks)


def sample_index(times: np.ndarray, t: float, owner: str) -> int:
    """Index of the sample time within 1e-9 of t; owner names the record in errors."""
    k = int(np.searchsorted(times, t))
    for j in (k - 1, k, k + 1):
        if 0 <= j < len(times) and abs(times[j] - t) <= 1e-9:
            return j
    raise ValidationError(
        f"t = {t!r} is not a sample time of this {owner} (range [0, {times[-1]!r}])"
    )


def check_memory(samples: int, nbytes: int, what: str) -> None:
    """Refuse, before allocating, nbytes for samples that exceed physical memory."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # no sysconf here: nothing to compare against
    if nbytes > physical:
        raise ValidationError(
            f"{what} needs {samples} samples ({nbytes} bytes), more than the "
            f"{physical} bytes of physical memory"
        )


@dataclass(frozen=True, eq=False)
class UnitaryTrajectory:
    """Sampled cumulative evolution U(t_k), with U(0) = I.

    blocks: per uniform block, (start_index, stop_index, descriptor) where
    descriptor is ("const", H) or ("lin", t0, H0, t1, H1); stop_index is
    the index of the block's last sample. Consecutive blocks share their
    boundary sample. The block structure is what quadrature code needs to
    integrate across piecewise discontinuities correctly.
    """

    times: np.ndarray
    unitaries: np.ndarray
    step_policy: StepPolicy
    kind: str
    blocks: tuple
    h_norm_max: float

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]

    def index_of(self, t: float) -> int:
        return sample_index(self.times, t, "trajectory")


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    """States at trajectory sample times; states[k] pairs with times[k]."""

    times: np.ndarray
    states: np.ndarray


def _effective_max_step(hmax: float, policy: StepPolicy) -> float:
    if policy.max_step is not None:
        return float(policy.max_step)
    if hmax <= 0.0:
        return DEFAULT_MAX_STEP
    return min(DEFAULT_MAX_STEP, math.pi / (8.0 * hmax))


def _spectral_samples(h_mat, local_times, u_start):
    """U(t0 + s) = e^{iHs} U(t0) for every offset s in local_times, batched."""
    w, v = np.linalg.eigh(h_mat)
    phases = np.exp(1j * np.outer(local_times, w))
    props = np.einsum("ij,tj,kj->tik", v, phases, v.conj())
    return props @ u_start


def _first_drift(us, tol: float, checked):
    """Index of the first checked matrix of the stack whose _drift exceeds tol.

    Returns None when there is none. The drift of the whole stack is
    estimated in one batch; only matrices whose estimate comes within its
    rounding margin of tol are rechecked with _drift itself, so the verdict
    is exactly _drift's.
    """
    d = us.shape[1]
    g = np.swapaxes(us.conj(), -1, -2) @ us - np.eye(d)
    est = np.sqrt((g.real**2 + g.imag**2).sum(axis=(1, 2)))
    margin = 8.0 * d * d * np.finfo(float).eps * (1.0 + est)
    for i in np.flatnonzero(checked & (est + margin > tol)):
        if _drift(us[i]) > tol:
            return int(i)
    return None


class _Block(NamedTuple):
    """A uniform block of the sample grid: n steps of dur / n from t0."""

    start: int  # index of the block's first sample (its left boundary)
    n: int
    t0: float
    dur: float
    desc: tuple


def _midpoint_blocks(blocks, unitaries, policy: StepPolicy) -> None:
    """Midpoint rule over the linear blocks of a plan, written into unitaries.

    unitaries[0] must already hold the identity. The step propagators
    exp_i(H(t0 + (k + 1/2) dt) dt) of a bounded chunk of steps (which may
    span blocks) come from one stacked Taylor polynomial, of a degree fixed
    by the largest knot 1-norm times the largest step: by convexity, a bound
    on every midpoint exponent. Every step's product is
    drift-checked; a polish fires at the first step over tolerance, or when
    the schedule, restarted at each block, comes due.
    """
    d = unitaries.shape[1]
    every, tol = policy.reunitarize_every, policy.tolerance
    counts = np.array([b.n for b in blocks])
    ends = np.cumsum(counts)
    starts = ends - counts
    t0, dt, a0, a1 = map(
        np.array, zip(*((b.t0, b.dur / b.n, b.desc[1], b.desc[3]) for b in blocks))
    )
    h0 = np.stack([b.desc[2] for b in blocks])
    h1 = np.stack([b.desc[4] for b in blocks])
    bound = float(np.abs(np.concatenate((h0, h1))).sum(axis=1).max() * dt.max())

    u = unitaries[0]
    since = 0
    window = every
    for part in stack_chunks(int(ends[-1]), d):
        # Block and in-block index k of every step of the chunk, then the
        # same arithmetic, operation for operation, as H(t) at one midpoint.
        steps_at = np.arange(part.start, part.stop)
        blk = np.searchsorted(ends, steps_at, side="right")
        k = steps_at - starts[blk]
        w = (t0[blk] + (k + 0.5) * dt[blk] - a0[blk]) / (a1[blk] - a0[blk])
        w = w[:, None, None]
        h_mid = (1.0 - w) * h0[blk] + w * h1[blk]
        steps = _exp_i_taylor(h_mid * dt[blk, None, None], bound)
        first_step = (k == 0).tolist()
        g = part.start
        while g < part.stop:
            # Chain a window of steps with the scheduled polishes in line,
            # then drift-check it in one batch. At the first step over
            # tolerance, polish and go on from the next step; the window
            # adapts so that frequent drift polishes waste few products.
            stop = min(part.stop, g + window)
            scheduled = np.zeros(stop - g, dtype=bool)
            for j in range(g, stop):
                if first_step[j - part.start]:
                    since = 0
                u = steps[j - part.start] @ u
                since += 1
                if since == every:
                    u = reunitarize(u)
                    since = 0
                    scheduled[j - g] = True
                unitaries[j + 1] = u
            bad = _first_drift(unitaries[g + 1 : stop + 1], tol, ~scheduled)
            if bad is None:
                g = stop
                window *= 2
                continue
            g += bad
            u = unitaries[g + 1] = reunitarize(unitaries[g + 1])
            since = 0
            g += 1
            window = bad + 1


def evolve(
    h: HamiltonianTrajectory, t_end: float, policy: StepPolicy | None = None
) -> UnitaryTrajectory:
    """Integrate dU/dt = +iH(t)U over [0, t_end].

    Constant and piecewise-constant generators are exact (spectral
    propagation per block). Interpolated generators step with
    U(t + dt) = exp_i(H(t + dt/2) dt) U(t), re-unitarized on the policy
    schedule. The default policy samples densely enough that successive
    eigenphases of U move by less than pi/4 per step. h's blocks must
    cover [0, t_end]; one that ends at most 1e-12 short ends the
    trajectory there.
    """
    if not t_end > 0.0:
        raise ValidationError(f"t_end must be positive, got {t_end!r}")
    if not math.isfinite(t_end):
        raise ValidationError(f"t_end must be finite, got {t_end!r}")
    if policy is None:
        policy = StepPolicy()
    h_norm_max = h.spectral_norm_max()
    cap = _effective_max_step(h_norm_max, policy)

    lo, hi = h.blocks[0][0], h.blocks[-1][1]
    if lo > 0.0 or (hi < t_end and not math.isclose(hi, t_end, rel_tol=0.0, abs_tol=1e-12)):
        raise ValidationError(f"{h.kind} trajectory covers [{lo!r}, {hi!r}], need [0, {t_end!r}]")
    plan = []
    idx = 0
    for t0, t1, desc in h.blocks:
        t0, t1 = max(t0, 0.0), min(t1, t_end)
        if t1 <= t0:
            continue
        dur = t1 - t0
        n = max(2, math.ceil(dur / cap))
        if n % 2:
            n += 1
        dt = dur / n
        if dt < MIN_STEP:
            raise NumericalError(
                f"step underflow: block [{t0!r}, {t1!r}] needs step {dt:.3e} < {MIN_STEP}"
            )
        plan.append(_Block(idx, n, t0, dur, desc))
        idx += n

    check_memory(idx + 1, (idx + 1) * (8 + 16 * h.dim * h.dim), f"evolving to t_end = {t_end!r}")
    times = np.zeros(idx + 1)
    unitaries = np.empty((idx + 1, h.dim, h.dim), dtype=complex)
    unitaries[0] = np.eye(h.dim)
    # One linspace per group of equal blocks (the same steps and duration).
    offsets = {(n, t): np.linspace(0.0, t, n + 1)[1:] for n, t in {(b.n, b.dur) for b in plan}}
    for b in plan:
        times[b.start + 1 : b.start + b.n + 1] = b.t0 + offsets[b.n, b.dur]
    if h.kind == "interpolated":
        _midpoint_blocks(plan, unitaries, policy)
    else:
        for b in plan:
            unitaries[b.start + 1 : b.start + b.n + 1] = _spectral_samples(
                b.desc[1], offsets[b.n, b.dur], unitaries[b.start]
            )

    return UnitaryTrajectory(
        times=times,
        unitaries=unitaries,
        step_policy=policy,
        kind=h.kind,
        blocks=tuple((b.start, b.start + b.n, b.desc) for b in plan),
        h_norm_max=h_norm_max,
    )


def apply(traj: UnitaryTrajectory, psi0, t: float) -> np.ndarray:
    """U(t) psi0 at a sample time t (within 1e-9 of one)."""
    psi0 = as_state(psi0)
    k = traj.index_of(t)
    v = traj.unitaries[k] @ psi0
    return v / np.linalg.norm(v)


def state_trajectory(traj: UnitaryTrajectory, psi0) -> StateTrajectory:
    """psi(t_k) = U(t_k) psi0 at every sample time."""
    psi0 = as_state(psi0)
    states = np.einsum("tij,j->ti", traj.unitaries, psi0)
    return StateTrajectory(times=traj.times, states=states)
