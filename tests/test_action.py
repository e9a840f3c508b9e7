"""Branch-continuous eigenphase tracking and the action operator."""

import numpy as np
import pytest

import qeffort.action as action_module
from qeffort import (
    AmbiguousMatchError,
    NumericalError,
    SIGMA_X,
    StepPolicy,
    UnitaryTrajectory,
    ValidationError,
    action_at,
    action_derivative,
    action_expectation,
    constant_hamiltonian,
    evolve,
    exp_i,
    fold_angle,
    piecewise_hamiltonian,
    principal_log_unitary,
    track_action,
)
from conftest import haar_unitary, random_hermitian, random_trajectory


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