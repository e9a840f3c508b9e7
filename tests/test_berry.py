"""Cyclic-state geometric phase residuals."""

import tracemalloc

import numpy as np
import pytest

from qeffort import (
    SIGMA_X,
    StepPolicy,
    aa_phase_check,
    blockwise_energy_integral,
    constant_hamiltonian,
    evolve,
    export_berry_csv,
    interpolated_hamiltonian,
    piecewise_hamiltonian,
    unitary_eigenphases,
)
from conftest import driven_qubit_trajectory, random_hermitian


class TestCommutingCases:
    def test_constant_hamiltonian_residuals_vanish(self):
        rng = np.random.default_rng(71)
        h = constant_hamiltonian(random_hermitian(rng, 3, 1.5))
        result = aa_phase_check(h, 1.3, StepPolicy(max_step=1e-3))
        assert result.max_residual < 1e-9
        assert not result.degenerate.any()

    def test_commuting_piecewise_residuals_vanish(self):
        rng = np.random.default_rng(72)
        h0 = random_hermitian(rng, 2, 1.0)
        h = piecewise_hamiltonian([(0.5, 0.8 * h0), (0.7, 1.6 * h0)])
        result = aa_phase_check(h, 1.2, StepPolicy(max_step=1e-3))
        assert result.max_residual < 1e-9


class TestPrecessingSpin:
    def test_residual_equals_solid_angle_deficit(self):
        # A spin precessing about a tilted axis: the cyclic states trace a
        # cone of opening angle Theta in projective space, and the
        # geometric phase is -+ pi (1 - cos Theta), nonzero whenever the
        # drive and the effective axis are not aligned.
        a, b, omega = 1.0, 1.3, 2.0
        tau = 2 * np.pi / omega
        g = np.hypot(a, b - omega / 2)
        cos_theta = (b - omega / 2) / g
        want = np.pi * (1 - cos_theta)
        h = driven_qubit_trajectory(a, b, omega, tau, 2001)
        result = aa_phase_check(h, tau)
        res = np.sort(result.beta_residuals)
        np.testing.assert_allclose(res, [-want, want], atol=1e-5)
        assert not result.degenerate.any()
        assert result.max_residual > 2.2


class TestDegenerateEndpoint:
    def test_half_turn_of_sigma_x(self):
        # U(pi) = -I: both eigenvalues sit at the branch point. Every
        # state is cyclic there, so the channel basis (and with it each
        # residual) is pure gauge; what is pinned is the flagging, the
        # fold identity, and that each alpha is pi times a mean of sigma_x
        # values, hence within [-pi, pi].
        h = constant_hamiltonian(np.asarray(SIGMA_X))
        result = aa_phase_check(h, np.pi, StepPolicy(max_step=1e-3))
        assert result.degenerate.all()
        from qeffort import fold_angle

        np.testing.assert_allclose(
            result.beta_residuals,
            fold_angle(result.alphas + result.phases),
            atol=1e-15,
        )
        assert np.all(np.abs(result.alphas) <= np.pi + 1e-9)
        np.testing.assert_allclose(np.abs(result.phases), np.pi, atol=1e-8)


class TestCsvExport:
    def test_layout(self, tmp_path):
        h = constant_hamiltonian(np.diag([1.0, 0.0]))
        result = aa_phase_check(h, 0.5, StepPolicy(max_step=0.01))
        path = tmp_path / "berry.csv"
        export_berry_csv(path, result)
        lines = [ln for ln in path.read_text().split("\n") if ln]
        assert lines[0] == "channel,phi,alpha,beta_residual"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[0] == "0"
        assert float(row[3]) == pytest.approx(result.beta_residuals[0], abs=1e-15)

class TestStreamedChannelEnergies:
    @pytest.mark.parametrize("dim, kind", [(2, "spin"), (16, "interpolated"), (3, "piecewise")])
    def test_match_the_public_integral_of_the_channel_stack(self, dim, kind):
        rng = np.random.default_rng(74)
        if kind == "spin":
            h, tau = driven_qubit_trajectory(1.0, 1.3, 2.0, np.pi, 2001), np.pi
        elif kind == "interpolated":
            tau = 0.3
            h = interpolated_hamiltonian(
                (t, random_hermitian(rng, dim, 1.5)) for t in np.linspace(0.0, tau, 4)
            )
        else:
            tau = 1.0
            h = piecewise_hamiltonian([(d, random_hermitian(rng, dim)) for d in (0.4, 0.6)])
        traj = evolve(h, tau)
        _, vectors, _ = unitary_eigenphases(traj.unitaries[-1])
        np.testing.assert_allclose(
            aa_phase_check(h, tau).alphas,
            blockwise_energy_integral(traj, traj.unitaries @ vectors),
            rtol=0.0,
            atol=1e-12,
        )

    def test_peak_memory_stays_near_the_unitary_stack(self):
        # No (N, d, d) stack beside traj.unitaries: channel states and H(t)
        # are built one bounded chunk at a time.
        rng = np.random.default_rng(75)
        h = interpolated_hamiltonian(
            (t, random_hermitian(rng, 16, 1.5)) for t in np.linspace(0.0, 1.0, 6)
        )
        nbytes = evolve(h, 1.0).unitaries.nbytes
        tracemalloc.start()
        try:
            aa_phase_check(h, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * nbytes
