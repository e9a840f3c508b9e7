"""Trajectory construction and the propagator integrator."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qeffort import (
    DEFAULT_MAX_STEP,
    NumericalError,
    StepPolicy,
    ValidationError,
    apply,
    constant_hamiltonian,
    evolve,
    exp_i,
    interpolated_hamiltonian,
    piecewise_hamiltonian,
    reunitarize,
    state_trajectory,
)
from qeffort.evolution import _drift, _first_drift
from qeffort.linalg import _TAYLOR_THETA, _exp_i_taylor
from conftest import (
    driven_qubit_exact,
    driven_qubit_hamiltonian,
    driven_qubit_trajectory,
    random_hermitian,
    random_state,
)


class TestStepPolicy:
    def test_defaults(self):
        p = StepPolicy()
        assert p.max_step is None
        assert p.tolerance == 1e-10
        assert p.reunitarize_every == 100

    def test_validation(self):
        with pytest.raises(ValidationError, match="max_step must be positive"):
            StepPolicy(max_step=0.0)
        with pytest.raises(ValidationError, match="tolerance must be positive"):
            StepPolicy(tolerance=-1.0)
        with pytest.raises(
            ValidationError, match="reunitarize_every must be a positive integer"
        ):
            StepPolicy(reunitarize_every=0)


class TestConstruction:
    def test_constant_requires_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            constant_hamiltonian([[0.0, 1.0], [0.0, 0.0]])

    def test_piecewise_validation(self):
        h = np.eye(2)
        with pytest.raises(ValidationError, match="needs at least one segment"):
            piecewise_hamiltonian([])
        with pytest.raises(
            ValidationError, match="segment 1 has non-positive duration"
        ):
            piecewise_hamiltonian([(1.0, h), (0.0, h)])
        with pytest.raises(ValidationError, match="segment dimensions disagree"):
            piecewise_hamiltonian([(1.0, h), (1.0, np.eye(3))])

    def test_interpolated_validation(self):
        h = np.eye(2)
        with pytest.raises(ValidationError, match="at least two samples"):
            interpolated_hamiltonian([(0.0, h)])
        with pytest.raises(ValidationError, match="strictly increasing"):
            interpolated_hamiltonian([(0.0, h), (0.0, h)])
        with pytest.raises(ValidationError, match="sample dimensions disagree"):
            interpolated_hamiltonian([(0.0, h), (1.0, np.eye(3))])
        with pytest.raises(ValidationError, match="sample 1 Hamiltonian"):
            interpolated_hamiltonian([(0.0, h), (1.0, [[0, 1], [0, 0]])])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_knot_times_and_durations_must_be_finite(self, bad):
        h = np.eye(2)
        with pytest.raises(ValidationError, match=f"segment 1 duration must be finite, got {bad}"):
            piecewise_hamiltonian([(1.0, h), (bad, h)])
        with pytest.raises(ValidationError, match=f"sample 0 time must be finite, got {bad}"):
            interpolated_hamiltonian([(bad, h), (1.0, 2.0 * h)])

    def test_segment_ends_must_be_finite(self):
        with pytest.raises(ValidationError, match="segment durations sum to inf"):
            piecewise_hamiltonian([(1e308, np.eye(2)), (1e308, np.eye(2))])

    def test_at_piecewise_boundary_takes_later_segment(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        h = piecewise_hamiltonian([(1.0, a), (1.0, b)])
        np.testing.assert_allclose(h.at(0.5), a)
        np.testing.assert_allclose(h.at(1.0), b)
        np.testing.assert_allclose(h.at(2.0), b)
        with pytest.raises(ValidationError, match="outside the piecewise range"):
            h.at(2.5)

    def test_at_interpolated_is_linear(self):
        a = np.diag([0.0, 0.0])
        b = np.diag([2.0, 4.0])
        h = interpolated_hamiltonian([(0.0, a), (1.0, b)])
        np.testing.assert_allclose(h.at(0.25), np.diag([0.5, 1.0]))
        with pytest.raises(ValidationError, match="outside the interpolated range"):
            h.at(1.5)

    @pytest.mark.parametrize(
        "h",
        [
            constant_hamiltonian(np.eye(2)),
            piecewise_hamiltonian([(1.0, np.eye(2))]),
            interpolated_hamiltonian([(0.0, np.eye(2)), (1.0, np.eye(2))]),
        ],
        ids=["constant", "piecewise", "interpolated"],
    )
    def test_at_rejects_nan(self, h):
        with pytest.raises(ValidationError, match=f"outside the {h.kind} range"):
            h.at(float("nan"))

    def test_spectral_norm_max(self):
        assert constant_hamiltonian(np.diag([3.0, -1.0])).spectral_norm_max() == 3.0
        h = piecewise_hamiltonian(
            [(1.0, np.diag([1.0, 0.0])), (1.0, np.diag([0.0, -5.0]))]
        )
        assert h.spectral_norm_max() == 5.0

    def test_spectral_norm_max_equals_the_per_matrix_maximum(self):
        rng = np.random.default_rng(24)
        mats = [random_hermitian(rng, 5, rng.uniform(0.5, 3.0)) for _ in range(9)]
        h = interpolated_hamiltonian(zip(np.linspace(0.0, 1.0, 9), mats))
        assert h.spectral_norm_max() == max(float(np.linalg.norm(m, 2)) for m in mats)
        # The largest knot first or last, where only one block holds it.
        for k in (0, -1):
            ends = list(mats)
            ends[k] = 4.0 * mats[k]
            h = interpolated_hamiltonian(zip(np.linspace(0.0, 1.0, 9), ends))
            assert h.spectral_norm_max() == float(np.linalg.norm(ends[k], 2))

    def test_total_duration_only_for_piecewise(self):
        h = piecewise_hamiltonian([(0.5, np.eye(2)), (0.25, np.eye(2))])
        assert h.total_duration() == pytest.approx(0.75)
        with pytest.raises(ValidationError, match="total_duration is defined"):
            constant_hamiltonian(np.eye(2)).total_duration()


class TestEvolveExactCases:
    def test_constant_matches_expm_everywhere(self):
        rng = np.random.default_rng(21)
        h_mat = random_hermitian(rng, 3, 2.0)
        traj = evolve(constant_hamiltonian(h_mat), 1.3, StepPolicy(max_step=0.05))
        for k in (0, 1, len(traj.times) // 2, -1):
            t = traj.times[k]
            np.testing.assert_allclose(
                traj.unitaries[k], expm(1j * t * h_mat), atol=1e-12
            )

    def test_piecewise_is_time_ordered_product(self):
        rng = np.random.default_rng(22)
        h1 = random_hermitian(rng, 2, 1.5)
        h2 = random_hermitian(rng, 2, 1.5)
        traj = evolve(
            piecewise_hamiltonian([(0.7, h1), (0.5, h2)]),
            1.2,
            StepPolicy(max_step=0.05),
        )
        # Later factors multiply on the left.
        want = expm(1j * 0.5 * h2) @ expm(1j * 0.7 * h1)
        np.testing.assert_allclose(traj.unitaries[-1], want, atol=1e-12)
        k = traj.index_of(0.7)
        np.testing.assert_allclose(
            traj.unitaries[k], expm(1j * 0.7 * h1), atol=1e-12
        )

    def test_time_ordering_is_not_the_summed_exponent(self):
        # Noncommuting segments: the product differs from e^{i(t1 H1 + t2 H2)}.
        h1 = 1.2 * np.array([[0.0, 1.0], [1.0, 0.0]])
        h2 = 0.9 * np.diag([1.0, -1.0])
        traj = evolve(piecewise_hamiltonian([(1.0, h1), (1.0, h2)]), 2.0)
        naive = expm(1j * (h1 + h2))
        assert np.linalg.norm(traj.unitaries[-1] - naive, 2) > 0.5


class TestDrivenQubitOracle:
    """The rotating-field closed form is checked on its own before use."""

    def test_closed_form_satisfies_the_schrodinger_equation(self):
        a, b, omega = 1.1, 0.7, 1.9
        eps = 1e-6
        for t in (0.3, 0.9, 1.7):
            du = (
                driven_qubit_exact(a, b, omega, t + eps)
                - driven_qubit_exact(a, b, omega, t - eps)
            ) / (2 * eps)
            want = 1j * driven_qubit_hamiltonian(a, b, omega, t) @ driven_qubit_exact(
                a, b, omega, t
            )
            np.testing.assert_allclose(du, want, atol=1e-8)
        np.testing.assert_allclose(
            driven_qubit_exact(a, b, omega, 0.0), np.eye(2), atol=1e-14
        )

    def test_interpolated_evolution_matches_closed_form(self):
        a, b, omega = 1.1, 0.7, 1.9
        t_end = 1.2
        h = driven_qubit_trajectory(a, b, omega, t_end, 2001)
        traj = evolve(h, t_end)
        err = np.linalg.norm(
            traj.unitaries[-1] - driven_qubit_exact(a, b, omega, t_end), 2
        )
        assert err < 1e-6

    def test_sample_times_are_the_per_block_linspace(self):
        # The 2,001-knot spin: 2,000 blocks, but few distinct (steps,
        # duration) groups, each sharing one linspace.
        h = driven_qubit_trajectory(1.0, 1.3, 2.0, np.pi, 2001)
        traj = evolve(h, np.pi)
        want = [np.array([0.0])]
        for i0, i1, desc in traj.blocks:
            t0, dur = max(desc[1], 0.0), min(desc[3], np.pi) - max(desc[1], 0.0)
            want.append(t0 + np.linspace(0.0, dur, i1 - i0 + 1)[1:])
        assert len(traj.blocks) == 2000
        np.testing.assert_array_equal(traj.times, np.concatenate(want))

    def test_midpoint_rule_is_second_order(self):
        # Knots placed on the step grid so max_step controls the actual step.
        a, b, omega = 1.1, 0.7, 1.9
        errs = []
        for step in (0.02, 0.01):
            h = driven_qubit_trajectory(a, b, omega, 1.0, round(1.0 / step) + 1)
            traj = evolve(h, 1.0, StepPolicy(max_step=step))
            errs.append(
                np.linalg.norm(
                    traj.unitaries[-1] - driven_qubit_exact(a, b, omega, 1.0), 2
                )
            )
        assert errs[0] / errs[1] > 3.5


class TestEvolveMechanics:
    def test_unitarity_throughout(self):
        a, b, omega = 1.0, 0.5, 2.0
        traj = evolve(
            driven_qubit_trajectory(a, b, omega, 0.8, 41),
            0.8,
            StepPolicy(max_step=0.02),
        )
        u_dag_u = np.einsum("kji,kjl->kil", traj.unitaries.conj(), traj.unitaries)
        drift = np.abs(u_dag_u - np.eye(2)).max()
        assert drift < 1e-12

    def test_blocks_have_even_step_counts(self):
        h = piecewise_hamiltonian(
            [(0.3, np.diag([1.0, 0.0])), (0.5, np.diag([0.0, 1.0]))]
        )
        traj = evolve(h, 0.8, StepPolicy(max_step=0.07))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.8)
        for start, stop, _desc in traj.blocks:
            assert (stop - start) % 2 == 0

    def test_step_density_follows_spectral_norm(self):
        fast = evolve(constant_hamiltonian(np.diag([4000.0, 0.0])), 0.001)
        assert np.diff(fast.times).max() <= np.pi / 32000 + 1e-15
        slow = evolve(constant_hamiltonian(np.diag([0.001, 0.0])), 0.01)
        assert np.diff(slow.times).max() <= DEFAULT_MAX_STEP + 1e-15

    def test_explicit_max_step_is_honored(self):
        traj = evolve(
            constant_hamiltonian(np.diag([1.0, 0.0])), 1.0, StepPolicy(max_step=0.25)
        )
        assert np.diff(traj.times).max() <= 0.25 + 1e-15

    def test_step_underflow_raises(self):
        with pytest.raises(NumericalError, match="step underflow"):
            evolve(
                constant_hamiltonian(np.diag([1.0, 0.0])),
                1.0,
                StepPolicy(max_step=1e-13),
            )

    def test_range_validation(self):
        h = piecewise_hamiltonian([(0.5, np.eye(2))])
        with pytest.raises(ValidationError, match="t_end must be positive"):
            evolve(h, 0.0)
        with pytest.raises(ValidationError, match="piecewise trajectory covers"):
            evolve(h, 0.9)
        hi = interpolated_hamiltonian([(0.2, np.eye(2)), (1.0, np.eye(2))])
        with pytest.raises(ValidationError, match="interpolated trajectory covers"):
            evolve(hi, 0.5)

    @pytest.mark.parametrize("kind", ["piecewise", "interpolated"])
    def test_end_slack_clips_to_the_last_block(self, kind):
        # Every drive may fall short of t_end by at most 1e-12; the
        # trajectory then ends where the drive does.
        rng = np.random.default_rng(38)
        a, b = random_hermitian(rng, 2, 1.0), random_hermitian(rng, 2, 1.0)
        if kind == "piecewise":
            h = piecewise_hamiltonian([(0.5, a), (0.75, b)])
        else:
            h = interpolated_hamiltonian([(0.0, a), (0.5, b), (1.25, a)])
        traj = evolve(h, 1.25 + 5e-13, StepPolicy(max_step=0.05))
        assert traj.times[-1] == 1.25
        assert len(traj.blocks) == len(h.blocks)
        with pytest.raises(ValidationError, match=f"{kind} trajectory covers"):
            evolve(h, 1.25 + 2e-12)

    def test_index_of(self):
        traj = evolve(constant_hamiltonian(np.eye(2)), 1.0, StepPolicy(max_step=0.25))
        assert traj.index_of(0.0) == 0
        assert traj.index_of(traj.times[-1]) == len(traj.times) - 1
        with pytest.raises(ValidationError, match="not a sample time"):
            traj.index_of(0.123456)


class TestStates:
    def test_apply_and_state_trajectory_agree(self):
        rng = np.random.default_rng(23)
        h = random_hermitian(rng, 4, 1.0)
        psi0 = random_state(rng, 4)
        traj = evolve(constant_hamiltonian(h), 0.9, StepPolicy(max_step=0.05))
        states = state_trajectory(traj, psi0)
        np.testing.assert_allclose(states.times, traj.times)
        norms = np.linalg.norm(states.states, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        t_mid = traj.times[len(traj.times) // 2]
        np.testing.assert_allclose(
            apply(traj, psi0, t_mid),
            states.states[traj.index_of(t_mid)],
            atol=1e-12,
        )

    def test_apply_matches_expm(self):
        h = np.diag([1.0, 0.0])
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        traj = evolve(constant_hamiltonian(h), 1.0, StepPolicy(max_step=0.125))
        got = apply(traj, psi0, 0.5)
        want = expm(0.5j * h) @ psi0
        np.testing.assert_allclose(got, want, atol=1e-12)


def knots_of(h):
    """The (time, H) knots of an interpolated drive, read off its "lin" blocks."""
    return [desc[1:3] for *_, desc in h.blocks] + [h.blocks[-1][2][3:]]


def reference_midpoint_evolve(h, t_end, policy, exponential=None):
    """The per-step midpoint loop that evolve's batched stage replaced.

    One step exponential, one chain product and one drift check per step,
    for an interpolated drive. The step is evolve's Taylor polynomial with
    the same bound (largest knot 1-norm times largest step), unless
    `exponential` replaces it. Returns (times, unitaries, blocks,
    drift_polishes), the last counting polishes that fired on drift alone.
    """
    knots = knots_of(h)
    hmax = max(float(np.linalg.norm(m, 2)) for _, m in knots)
    cap = policy.max_step or min(DEFAULT_MAX_STEP, math.pi / (8.0 * hmax))
    dim = h.dim
    intervals = []
    for (a0, h0), (a1, h1) in zip(knots[:-1], knots[1:]):
        t0, t1 = max(a0, 0.0), min(a1, t_end)
        if t1 > t0:
            n = max(2, math.ceil((t1 - t0) / cap))
            intervals.append((a0, h0, a1, h1, t0, t1 - t0, n + n % 2))
    bound = max(max(np.linalg.norm(iv[1], 1), np.linalg.norm(iv[3], 1)) for iv in intervals)
    bound *= max(dur / n for *_, dur, n in intervals)
    if exponential is None:

        def exponential(a):
            return _exp_i_taylor(a[None], bound)[0]

    times, unitaries, blocks = [np.array([0.0])], [np.eye(dim, dtype=complex)[None]], []
    u_cur = np.eye(dim, dtype=complex)
    idx = drift_polishes = 0
    for a0, h0, a1, h1, t0, dur, n in intervals:
        dt = dur / n
        batch = np.empty((n, dim, dim), dtype=complex)
        since_polish = 0
        for k in range(n):
            w = (t0 + (k + 0.5) * dt - a0) / (a1 - a0)
            u_cur = exponential(((1.0 - w) * h0 + w * h1) * dt) @ u_cur
            since_polish += 1
            drift = np.linalg.norm(u_cur.conj().T @ u_cur - np.eye(dim))
            if drift > policy.tolerance or since_polish >= policy.reunitarize_every:
                drift_polishes += since_polish < policy.reunitarize_every
                u_cur = reunitarize(u_cur)
                since_polish = 0
            batch[k] = u_cur
        times.append(t0 + np.linspace(0.0, dur, n + 1)[1:])
        unitaries.append(batch)
        blocks.append((idx, idx + n))
        idx += n
    return np.concatenate(times), np.concatenate(unitaries), blocks, drift_polishes


class TestBatchedMidpointStage:
    """evolve's batched midpoint stage against the per-step loop, bit for bit."""

    def assert_matches_reference(self, h, t_end, policy):
        traj = evolve(h, t_end, policy)
        times, unitaries, blocks, drift_polishes = reference_midpoint_evolve(
            h, t_end, policy
        )
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_array_equal(traj.unitaries, unitaries)
        assert [(a, b) for a, b, _ in traj.blocks] == blocks
        # And against exp_i per step: the polynomial agrees to rounding.
        _, spectral, _, _ = reference_midpoint_evolve(h, t_end, policy, exp_i)
        np.testing.assert_allclose(traj.unitaries, spectral, rtol=0.0, atol=1e-11)
        return traj, drift_polishes

    def test_d16_blocks_and_chunks_split_each_other(self):
        # A chunk holds 256 steps at d = 16: the first chunk holds two whole
        # blocks and the start of a third, which spans three chunks.
        rng = np.random.default_rng(31)
        knots = [0.0, 0.09, 0.19, 0.79]
        h = interpolated_hamiltonian((t, random_hermitian(rng, 16, 1.5)) for t in knots)
        traj, _ = self.assert_matches_reference(h, 0.79, StepPolicy(max_step=1e-3))
        assert [b - a for a, b, _ in traj.blocks] == [90, 100, 602]

    def test_many_knots_with_few_steps_each(self):
        # About 400 blocks of a few steps each; the first knot lies before
        # t = 0 and the drive is cut inside its last interval.
        rng = np.random.default_rng(32)
        knots = np.linspace(-0.0013, 0.5013, 402)
        h = interpolated_hamiltonian((t, random_hermitian(rng, 3, 2.0)) for t in knots)
        traj, _ = self.assert_matches_reference(h, 0.5, StepPolicy())
        assert len(traj.blocks) > 390
        assert max(b - a for a, b, _ in traj.blocks) <= 6
        assert traj.blocks[0][2][1] < 0.0 < 0.5 < traj.blocks[-1][2][3]

    @pytest.mark.parametrize("every", [1, 7, 100])
    def test_reunitarize_schedules(self, every):
        rng = np.random.default_rng(33)
        knots = np.linspace(0.0, 0.6, 5)
        h = interpolated_hamiltonian((t, random_hermitian(rng, 4, 1.5)) for t in knots)
        self.assert_matches_reference(
            h, 0.6, StepPolicy(max_step=1e-3, reunitarize_every=every)
        )

    @pytest.mark.parametrize("dim, every", [(2, 7), (2, 50), (16, 50)])
    def test_drift_polishes_fire_mid_segment(self, dim, every):
        # A tolerance at the Taylor step's rounding level: some steps drift
        # past it and are polished between scheduled polishes, others do not.
        rng = np.random.default_rng(34)
        knots = np.linspace(0.0, 0.3, 4)
        h = interpolated_hamiltonian((t, random_hermitian(rng, dim, 1.5)) for t in knots)
        policy = StepPolicy(max_step=1e-3, tolerance=3e-16 * dim, reunitarize_every=every)
        traj, drift_polishes = self.assert_matches_reference(h, 0.3, policy)
        assert 0 < drift_polishes < len(traj.times) // 2

    def test_every_step_over_tolerance(self):
        rng = np.random.default_rng(35)
        knots = np.linspace(0.0, 0.2, 3)
        h = interpolated_hamiltonian((t, random_hermitian(rng, 4, 1.5)) for t in knots)
        policy = StepPolicy(max_step=1e-3, tolerance=1e-30, reunitarize_every=5)
        traj, drift_polishes = self.assert_matches_reference(h, 0.2, policy)
        assert drift_polishes > len(traj.times) // 2

    def test_squaring_steps_match_the_spectral_loop(self):
        # Steps long enough that largest knot 1-norm times step exceeds the
        # top theta, so every step exponential squares.
        rng = np.random.default_rng(37)
        knots = np.linspace(0.0, 6.0, 4)
        h = interpolated_hamiltonian((t, random_hermitian(rng, 4, 1.5)) for t in knots)
        policy = StepPolicy(max_step=0.5)
        assert max(np.linalg.norm(m, 1) for _, m in knots_of(h)) * 0.5 > _TAYLOR_THETA[-1]
        traj = evolve(h, 6.0, policy)
        _, spectral, _, _ = reference_midpoint_evolve(h, 6.0, policy, exp_i)
        np.testing.assert_allclose(traj.unitaries, spectral, rtol=0.0, atol=1e-12)

    def test_drift_verdict_is_the_per_matrix_drift(self):
        # The batched estimate only preselects; at a tolerance equal to one
        # matrix's own drift, that matrix must not count as over it.
        # At d = 2 the batched sum of squares and the per-matrix norm round
        # differently for about a fifth of these matrices.
        rng = np.random.default_rng(36)
        us = np.stack([
            reunitarize(exp_i(random_hermitian(rng, 2, 1.0)) + 1e-13 * random_hermitian(rng, 2))
            @ exp_i(random_hermitian(rng, 2, 1.0)) for _ in range(200)
        ])
        drifts = np.array([_drift(u) for u in us])
        for i, tol in enumerate(drifts):
            over = np.flatnonzero(drifts[i:] > tol)
            want = int(over[0]) if over.size else None
            assert _first_drift(us[i:], tol, np.ones(len(us) - i, dtype=bool)) == want
