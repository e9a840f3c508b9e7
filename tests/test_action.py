"""Branch-continuous eigenphase tracking and the action operator."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qeffort.action as action_module
import qeffort.effort as effort_module
from qeffort import (
    AmbiguousMatchError,
    NumericalError,
    SIGMA_X,
    SIGMA_Z,
    StepPolicy,
    UnitaryTrajectory,
    ValidationError,
    action_at,
    action_derivative,
    action_expectation,
    constant_hamiltonian,
    effort_report,
    evolve,
    exp_i,
    fold_angle,
    piecewise_hamiltonian,
    principal_log_unitary,
    track_action,
)
from conftest import haar_unitary, random_hermitian, random_state, random_trajectory


def tracked(h_mat, t_end, max_step):
    traj = evolve(constant_hamiltonian(h_mat), t_end, StepPolicy(max_step=max_step))
    return traj, track_action(traj)


class TestTrackBasics:
    def test_start_is_zero_action(self):
        _, track = tracked(np.diag([2.0, -1.0]), 0.5, 0.01)
        np.testing.assert_allclose(track.alphas[0], 0.0, atol=1e-12)
        assert track.degenerate[0].all()
        np.testing.assert_allclose(
            track.eigenvectors[0], track.eigenvectors[1], atol=1e-12
        )
        a0 = action_at(track, 0.0)
        np.testing.assert_allclose(a0.matrix, 0.0, atol=1e-12)
        assert a0.time == 0.0

    def test_constant_action_is_ht(self):
        rng = np.random.default_rng(31)
        h_mat = random_hermitian(rng, 3, 1.5)
        _, track = tracked(h_mat, 0.8, 0.005)
        np.testing.assert_allclose(
            action_at(track, 0.8).matrix, 0.8 * h_mat, atol=1e-9
        )

    def test_principal_phases_fold_the_alphas(self):
        _, track = tracked(np.diag([3.0, 0.0]), np.pi, 0.01)
        principal = track.principal_phases()
        # Away from the branch point folding the unwound value recovers it.
        mask = np.abs(np.abs(principal) - np.pi) > 1e-6
        np.testing.assert_allclose(
            fold_angle(track.alphas)[mask], principal[mask], atol=1e-12
        )

    def test_index_of_rejects_off_grid_times(self):
        _, track = tracked(np.eye(2), 0.5, 0.05)
        with pytest.raises(ValidationError, match="not a sample time"):
            track.index_of(0.1234)

    def test_needs_two_samples(self):
        one = UnitaryTrajectory(
            times=np.array([0.0]),
            unitaries=np.eye(2)[None, :, :],
            step_policy=StepPolicy(),
            kind="constant",
            blocks=(),
            h_norm_max=1.0,
        )
        with pytest.raises(ValidationError, match="at least two trajectory samples"):
            track_action(one)


class TestWinding:
    def test_phase_passes_branch_point(self):
        _, track = tracked(np.diag([3.0, 0.0]), np.pi, 0.01)
        order = np.argsort(track.alphas[-1])
        alphas = track.alphas[-1][order]
        np.testing.assert_allclose(alphas, [0.0, 3 * np.pi], atol=1e-8)
        assert list(track.windings[-1][order]) == [0, 1]
        # The single-point principal branch sees only 3*pi - 2*pi.
        u_end = exp_i(np.diag([3.0, 0.0]) * np.pi)
        log_vals = np.linalg.eigvalsh(principal_log_unitary(u_end))
        np.testing.assert_allclose(sorted(log_vals), [0.0, np.pi], atol=1e-10)

    def test_counter_rotating_channels(self):
        traj, track = tracked(np.asarray(SIGMA_X), 2 * np.pi, 0.01)
        order = np.argsort(track.alphas[-1])
        np.testing.assert_allclose(
            track.alphas[-1][order], [-2 * np.pi, 2 * np.pi], atol=1e-8
        )
        assert list(track.windings[-1][order]) == [-1, 1]
        # Both channels meet the branch point at t = pi (U = -I there).
        k_mid = track.index_of(np.pi)
        assert track.degenerate[k_mid].all()
        # A(t) reproduces U(t) along the whole path.
        for k in range(0, len(track.times), 50):
            np.testing.assert_allclose(
                exp_i(action_at(track, track.times[k]).matrix),
                traj.unitaries[k],
                atol=1e-8,
            )

    def test_step_budget_exceeded(self):
        with pytest.raises(NumericalError, match="continuity budget") as exc:
            tracked(np.diag([4.0, 0.0]), 1.0, 0.5)
        assert "channel 1 moved +2.0000 rad in one step at step 1 (t = 0.5)" in str(exc.value)

    def test_step_budget_exceeded_mid_trajectory(self):
        # A slow segment tracks cleanly; the first step of the fast one
        # moves an eigenphase by 2 rad, and that step is the one reported.
        h = piecewise_hamiltonian([(1.0, np.diag([1.0, 0.0])), (1.0, np.diag([40.0, 0.0]))])
        traj = evolve(h, 2.0, StepPolicy(max_step=0.05))
        with pytest.raises(NumericalError, match="continuity budget") as exc:
            track_action(traj)
        assert "channel 1 moved +2.0000 rad in one step at step 21 (t = 1.05)" in str(exc.value)


class TestAmbiguity:
    def test_unresolvable_match_raises(self):
        # Second step rotates the eigenbasis by 45 degrees, making both
        # assignments score an identical squared overlap of one half.
        c = np.cos(np.pi / 4)
        w = np.array([[c, -c], [c, c]], dtype=complex)
        u1 = np.diag(np.exp(1j * np.array([0.1, -0.1])))
        u2 = w @ np.diag(np.exp(1j * np.array([0.2, -0.2]))) @ w.conj().T
        traj = UnitaryTrajectory(
            times=np.array([0.0, 1.0, 2.0]),
            unitaries=np.stack([np.eye(2, dtype=complex), u1, u2]),
            step_policy=StepPolicy(),
            kind="constant",
            blocks=(),
            h_norm_max=1.0,
        )
        with pytest.raises(AmbiguousMatchError) as exc:
            track_action(traj)
        assert exc.value.step == 2
        assert exc.value.time == pytest.approx(2.0)
        assert "at step 2 (t = 2)" in str(exc.value)

    @staticmethod
    def _rotated_at_step_5(angle, jump_at_3=0.0):
        c, s = np.cos(angle), np.sin(angle)
        w = np.array([[c, -s], [s, c]], dtype=complex)
        phases = np.array([0.1, -0.1]) * np.arange(1, 5)[:, None]
        phases[2:] += jump_at_3
        steps = [np.diag(np.exp(1j * p)) for p in phases]
        u5 = w @ np.diag(np.exp(1j * (phases[-1] + [0.1, -0.1]))) @ w.conj().T
        return UnitaryTrajectory(
            times=0.5 * np.arange(6.0),
            unitaries=np.stack([np.eye(2, dtype=complex), *steps, u5]),
            step_policy=StepPolicy(),
            kind="constant",
            blocks=(),
            h_norm_max=1.0,
        )

    # At exactly 45 degrees the row-wise argmax is not injective and the
    # assignment solver runs; 1e-8 short of it the argmax is injective and
    # only the margin test sees the tie.
    @pytest.mark.parametrize("angle", [np.pi / 4, np.pi / 4 - 1e-8])
    def test_ambiguity_after_clean_steps_reports_its_step(self, angle):
        with pytest.raises(AmbiguousMatchError) as exc:
            track_action(self._rotated_at_step_5(angle))
        assert exc.value.step == 5
        assert exc.value.time == pytest.approx(2.5)
        assert "at step 5 (t = 2.5)" in str(exc.value)

    def test_earlier_continuity_failure_is_reported_first(self):
        with pytest.raises(NumericalError, match="continuity budget") as exc:
            track_action(self._rotated_at_step_5(np.pi / 4 - 1e-8, jump_at_3=2.0))
        assert not isinstance(exc.value, AmbiguousMatchError)
        assert "channel 1 moved +2.1000 rad in one step at step 3 (t = 1.5)" in str(exc.value)


def _frozen_d4_piecewise():
    rng = np.random.default_rng(41)
    return evolve(random_trajectory(rng, 4, "piecewise", 4.0, 2.5), 4.0, StepPolicy(max_step=0.005))


def _frozen_d8_constant():
    rng = np.random.default_rng(42)
    h = constant_hamiltonian(random_hermitian(rng, 8, 3.0))
    return evolve(h, 2.5, StepPolicy(max_step=0.005))


def _frozen_d3_degenerate():
    # Integer spectrum: at t = pi the three phases are pi, 2pi, 3pi, so
    # two channels meet across the branch point (a wrap-around cluster)
    # between non-degenerate steps; a second, random segment follows.
    rng = np.random.default_rng(43)
    v = haar_unitary(rng, 3)
    h1 = (v * np.array([1.0, 2.0, 3.0])) @ v.conj().T
    h2 = random_hermitian(rng, 3, 1.5)
    h = piecewise_hamiltonian([(np.pi, h1), (0.25 * np.pi, h2)])
    return evolve(h, 1.25 * np.pi, StepPolicy(max_step=0.01))


class TestFrozenTracks:
    """Final unwound phases and windings, recorded from the per-step tracker."""

    @pytest.mark.parametrize(
        "build, alphas, windings",
        [
            (
                _frozen_d4_piecewise,
                [-4.909099237184, -2.1122637550161847, -1.555000496919194, 0.6574682646597492],
                [-1, 0, 0, 0],
            ),
            (
                _frozen_d8_constant,
                [
                    -6.7809563169472264, -4.093613586387695, -3.0270731151461368,
                    -1.033332201795898, 0.8368135114264859, 3.228408893383378,
                    5.274363214348215, 7.500000000000001,
                ],
                [-1, -1, 0, 0, 0, 1, 1, 1],
            ),
            (
                _frozen_d3_degenerate,
                [3.469784349138599, 6.3910389338339835, 8.542509096850305],
                [1, 1, 1],
            ),
        ],
        ids=["d4-piecewise", "d8-constant", "d3-degenerate"],
    )
    def test_final_phases_and_windings(self, build, alphas, windings):
        track = track_action(build())
        np.testing.assert_allclose(track.alphas[-1], alphas, rtol=0.0, atol=1e-11)
        assert track.windings[-1].tolist() == windings

    @pytest.mark.parametrize("build", [_frozen_d4_piecewise, _frozen_d8_constant, _frozen_d3_degenerate])
    def test_batched_steps_match_the_per_step_path(self, build, monkeypatch):
        # With every argmax reported non-injective, every step runs the
        # per-step path, which is the reference for the batched one.
        traj = build()
        fast = track_action(traj)
        raw_matches = action_module._raw_matches

        def all_per_step(vecs):
            best, injective, tied = raw_matches(vecs)
            return best, np.zeros_like(injective), tied

        monkeypatch.setattr(action_module, "_raw_matches", all_per_step)
        slow = track_action(traj)
        np.testing.assert_array_equal(fast.eigenvectors, slow.eigenvectors)
        np.testing.assert_array_equal(fast.alphas, slow.alphas)
        np.testing.assert_array_equal(fast.windings, slow.windings)
        np.testing.assert_array_equal(fast.degenerate, slow.degenerate)

    def test_degenerate_crossing_reproduces_u_everywhere(self):
        traj = _frozen_d3_degenerate()
        track = track_action(traj)
        k_pi = track.index_of(np.pi)
        assert track.degenerate[k_pi].sum() == 2
        assert not track.degenerate[k_pi - 1].any()
        assert not track.degenerate[k_pi + 1].any()
        for k, t in enumerate(track.times):
            np.testing.assert_allclose(
                exp_i(action_at(track, t).matrix), traj.unitaries[k], atol=1e-8
            )

    def test_cluster_basis_is_carried_not_taken_from_the_solver(self):
        # Channels 0 and 2 live on w0, w2, tilted 1e-8 short of 45 degrees
        # from e0, e2. At steps 4-6 they meet and U is exactly diagonal, so
        # the eigensolver returns e0, e2 inside the cluster. Matching the
        # steps that enter and leave the cluster against those vectors
        # would be a near tie; matching against the carried w0, w2 is not.
        a = np.pi / 4 - 1e-8
        w = np.array([[np.cos(a), 0, -np.sin(a)], [0, 1, 0], [np.sin(a), 0, np.cos(a)]])
        phases = np.array([
            [0.1, 0.2, 0.3, 0.4, 0.4, 0.4, 0.5, 0.6],
            [-1.1, -1.2, -1.3, -1.4, -1.5, -1.6, -1.7, -1.8],
            [0.7, 0.6, 0.5, 0.4, 0.4, 0.4, 0.3, 0.2],
        ]).T
        us = [np.diag(np.exp(1j * p)) if p[0] == p[2] else (w * np.exp(1j * p)) @ w.T for p in phases]
        traj = UnitaryTrajectory(
            times=np.arange(9.0),
            unitaries=np.stack([np.eye(3, dtype=complex), *us]),
            step_policy=StepPolicy(),
            kind="constant",
            blocks=(),
            h_norm_max=1.0,
        )
        track = track_action(traj)
        assert track.degenerate.sum(axis=1).tolist() == [3, 0, 0, 0, 2, 2, 2, 0, 0]
        steps = np.einsum("kij,kij->kj", track.eigenvectors[1:-1].conj(), track.eigenvectors[2:])
        np.testing.assert_allclose(np.abs(steps), 1.0, atol=1e-12)
        np.testing.assert_allclose(track.alphas[-1], [-1.8, 0.6, 0.2], atol=1e-12)


class TestExpectationAndDerivative:
    def test_expectation_weights_channels(self):
        _, track = tracked(np.diag([3.0, 0.0]), np.pi, 0.01)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert action_expectation(track, plus, np.pi) == pytest.approx(
            1.5 * np.pi, abs=1e-8
        )
        assert action_expectation(track, [1.0, 0.0], np.pi) == pytest.approx(
            3 * np.pi, abs=1e-8
        )
        assert action_expectation(track, [0.0, 1.0], np.pi) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_derivative_for_constant_h_is_h(self):
        rng = np.random.default_rng(32)
        h_mat = random_hermitian(rng, 3, 1.0)
        h = constant_hamiltonian(h_mat)
        traj = evolve(h, 0.7, StepPolicy(max_step=0.01))
        track = track_action(traj)
        for t in (0.0, traj.times[len(traj.times) // 2], traj.times[-1]):
            np.testing.assert_allclose(
                action_derivative(track, h, t), h_mat, atol=1e-9
            )


class TestTrackCsv:
    def test_layout_and_flag_encoding(self, tmp_path):
        _, track = tracked(np.diag([1.0, -0.5]), 0.2, 0.05)
        path = tmp_path / "track.csv"
        from qeffort import export_track_csv

        export_track_csv(path, track)
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "time,channel,eigenphase,winding,degenerate_flag"
        assert text.endswith("\n")
        assert "\r" not in text
        # One row per (sample, channel), flags are 0/1 strings.
        body = [ln for ln in lines[1:] if ln]
        assert len(body) == len(track.times) * track.dim
        first = body[0].split(",")
        assert first[1] == "0"
        assert first[4] in ("0", "1")
        # Row for the last sample of channel 1 carries the principal phase.
        last = body[-1].split(",")
        assert float(last[0]) == pytest.approx(track.times[-1])
        assert float(last[2]) == pytest.approx(
            track.principal_phases()[-1, 1], abs=1e-15
        )

def _first_stride(traj):
    return int(np.pi / (8.0 * traj.h_norm_max * np.diff(traj.times).max()))


def _stride_used(traj, knot):
    """The longest knot step, in samples: the stride of the last pass."""
    return int(np.diff(np.searchsorted(traj.times, knot.times)).max())


# d in {2, 4, 8, 16} x constant/piecewise and one interpolated d = 4 drive,
# all at the default step. The d = 16 piecewise drive has a knot step too
# ambiguous to match at the first stride.
_KNOT_FAMILY = [(d, kind) for d in (2, 4, 8, 16) for kind in ("constant", "piecewise")]
_KNOT_FAMILY.append((4, "interpolated"))


def _knot_drive(dim, kind):
    """A seeded drive on [0, 1] and an initial state."""
    rng = np.random.default_rng(1000 + 10 * dim + len(kind))
    return random_trajectory(rng, dim, kind, 1.0), random_state(rng, dim)


def _basis_turning_faster_than_phases():
    # Phases move at 1 rad per unit time while the eigenbasis turns at 3,
    # so the 39-sample first knot step's row-wise argmax is not a
    # permutation; its assignment solve would import scipy.
    rng = np.random.default_rng(0)
    k = rng.standard_normal((3, 3))
    k = k - k.T
    k *= 3.0 / np.linalg.norm(k, 2)
    times = 0.01 * np.arange(201)
    us = [
        exp_i(-1j * t * k) @ np.diag(np.exp(1j * t * np.array([1.0, 0.0, -1.0]))) @ exp_i(1j * t * k)
        for t in times
    ]
    return UnitaryTrajectory(
        times=times,
        unitaries=np.stack(us),
        step_policy=StepPolicy(),
        kind="constant",
        blocks=(),
        h_norm_max=1.0,
    )


def _failing_at_the_last_step(how):
    # 41 samples 0.01 apart with phase speed 1: first stride 39, then 9, 2
    # and 1, and the last knot step always ends at sample 40. There the
    # eigenbasis turns by 45 degrees (or 1e-8 short of it), or the phases
    # jump by 2 rad, so every stride fails.
    phases = 0.01 * np.arange(41)[:, None] * np.array([1.0, -1.0])
    angle = {"turn-45": np.pi / 4, "turn-45-tied": np.pi / 4 - 1e-8}.get(how, 0.0)
    if how == "jump":
        phases[40] += [2.0, 0.0]
    c, s = np.cos(angle), np.sin(angle)
    w = np.array([[c, -s], [s, c]], dtype=complex)
    us = [np.diag(np.exp(1j * p)) for p in phases[:40]] + [(w * np.exp(1j * phases[40])) @ w.conj().T]
    return UnitaryTrajectory(
        times=0.01 * np.arange(41),
        unitaries=np.stack(us),
        step_policy=StepPolicy(),
        kind="constant",
        blocks=(),
        h_norm_max=1.0,
    )


class TestKnotTracking:
    """effort_report's tracker: every s-th sample and the last, refined on failure."""

    @pytest.mark.parametrize("dim, kind", _KNOT_FAMILY, ids=[f"d{d}-{k}" for d, k in _KNOT_FAMILY])
    def test_agrees_with_every_sample_tracking(self, dim, kind, monkeypatch):
        h, psi0 = _knot_drive(dim, kind)
        traj = evolve(h, 1.0)
        knot = action_module._track_knots(traj)
        full = track_action(traj)
        first, stride = _first_stride(traj), _stride_used(traj, knot)
        if (dim, kind) == (16, "piecewise"):
            assert (first, stride) == (785, 196)
        else:
            assert 1 < stride <= first
        # Every s-th sample and the last, plus any refined swap risks.
        assert set(traj.times[:-1:stride]) | {traj.times[-1]} <= set(knot.times)
        # Channels are numbered at the first step, so after an avoided
        # crossing a coarser step may number two of them the other way
        # round; pair the channels by their final eigenvectors.
        overlap = np.abs(full.eigenvectors[-1].conj().T @ knot.eigenvectors[-1]) ** 2
        pair = overlap.argmax(axis=0)
        assert sorted(pair) == list(range(dim))
        np.testing.assert_allclose(knot.alphas[-1], full.alphas[-1][pair], rtol=0.0, atol=1e-11)
        assert knot.windings[-1].tolist() == full.windings[-1][pair].tolist()
        t_end = traj.times[-1]
        np.testing.assert_allclose(
            action_at(knot, t_end).matrix, action_at(full, t_end).matrix, rtol=0.0, atol=1e-11
        )

        got = effort_report(h, psi0, 1.0).to_json()
        # evolve is deterministic: full tracks the report's own trajectory.
        monkeypatch.setattr(effort_module, "_track_knots", lambda _: full)
        want = effort_report(h, psi0, 1.0).to_json()
        for field in ("alpha_action_expectation", "max_pairwise_discrepancy"):
            assert got.pop(field) == pytest.approx(want.pop(field), rel=0.0, abs=1e-11)
        assert got == want

    @pytest.mark.parametrize("how", ["turn-45", "turn-45-tied", "jump"])
    def test_failure_at_every_stride_is_track_actions(self, how):
        traj = _failing_at_the_last_step(how)
        assert _first_stride(traj) == 39
        with pytest.raises(NumericalError) as want:
            track_action(traj)
        with pytest.raises(NumericalError) as got:
            action_module._track_knots(traj)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        if isinstance(want.value, AmbiguousMatchError):
            assert (got.value.step, got.value.time) == (want.value.step, want.value.time) == (40, 0.4)
        else:
            assert "at step 40 (t = 0.4)" in str(want.value)

    def test_non_permutation_argmax_refines(self):
        traj = _basis_turning_faster_than_phases()
        knot = action_module._track_knots(traj)
        assert (_first_stride(traj), _stride_used(traj, knot)) == (39, 9)
        full = track_action(traj)
        np.testing.assert_allclose(
            action_at(knot, 2.0).matrix, action_at(full, 2.0).matrix, rtol=0.0, atol=1e-11
        )

    def test_swap_near_minus_identity_is_refined(self, monkeypatch):
        # 2 sz for 0.025, then 2 sx: U passes within about 0.05 of -I, where
        # the two channels sit a winding apart. Across that point one
        # 785-sample knot step turns the eigenbasis by about 150 degrees
        # into a clean, unrefused swap that would move A by 2 pi.
        h = piecewise_hamiltonian([(0.025, 2.0 * SIGMA_Z), (1.975, 2.0 * SIGMA_X)])
        psi0 = np.array([np.cos(0.3), np.sin(0.3)])
        traj = evolve(h, 2.0)
        knot = action_module._track_knots(traj)
        full = track_action(traj)
        assert _stride_used(traj, knot) == _first_stride(traj) == 785
        assert len(knot.times) > len(traj.times[::785]) + 1
        np.testing.assert_allclose(
            action_at(knot, 2.0).matrix, action_at(full, 2.0).matrix, rtol=0.0, atol=1e-11
        )
        got = effort_report(h, psi0, 2.0).alpha_action_expectation
        monkeypatch.setattr(effort_module, "_track_knots", track_action)
        want = effort_report(h, psi0, 2.0).alpha_action_expectation
        assert got == pytest.approx(want, rel=0.0, abs=1e-11)

    def test_step_above_the_density_rule_tracks_every_sample(self, monkeypatch):
        # max_step 0.25 against the rule's pi / 16: the stride is 1, and the
        # report is the one every-sample tracking gives, bit for bit.
        rng = np.random.default_rng(7)
        h = constant_hamiltonian(random_hermitian(rng, 4, 2.0))
        psi0 = random_state(rng, 4)
        policy = StepPolicy(max_step=0.25)
        traj = evolve(h, 2.0, policy)
        knot = action_module._track_knots(traj)
        full = track_action(traj)
        assert _stride_used(traj, knot) == 1
        for field in ("alphas", "windings", "eigenvectors", "degenerate"):
            np.testing.assert_array_equal(getattr(knot, field), getattr(full, field))
        got = effort_report(h, psi0, 2.0, policy=policy).to_json()
        monkeypatch.setattr(effort_module, "_track_knots", track_action)
        assert got == effort_report(h, psi0, 2.0, policy=policy).to_json()

    def test_without_motion_the_knots_are_the_endpoints(self):
        traj = evolve(constant_hamiltonian(np.zeros((3, 3))), 1.0)
        knot = action_module._track_knots(traj)
        assert knot.times.tolist() == [0.0, 1.0]
        np.testing.assert_array_equal(knot.alphas, 0.0)

    def test_refinement_imports_no_scipy(self):
        # effort_report on the refining drive, and the knot tracker on a
        # first knot step whose argmax is not a permutation, in a fresh
        # interpreter: neither may reach the assignment solver.
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(action_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, qeffort, test_action as t\n"
            "h, psi0 = t._knot_drive(16, 'piecewise')\n"
            "qeffort.effort_report(h, psi0, 1.0)\n"
            "traj = qeffort.evolve(h, 1.0)\n"
            "print(t._stride_used(traj, t.action_module._track_knots(traj)))\n"
            "traj = t._basis_turning_faster_than_phases()\n"
            "print(t._stride_used(traj, t.action_module._track_knots(traj)))\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["196", "9", "False"]
