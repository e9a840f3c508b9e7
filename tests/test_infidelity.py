"""Fidelity planning, orthogonalization times, and cyclic generators."""

import numpy as np
import pytest

from qeffort import (
    StepPolicy,
    ValidationError,
    apply,
    constant_hamiltonian,
    cycle_hamiltonian,
    effort_energy_integral,
    evolve,
    exp_i,
    fidelity,
    infidelity,
    ml_check,
    orthogonalization_time,
    plan_infidelity,
)
from conftest import random_state


class TestFidelity:
    def test_basics(self):
        assert fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0
        assert fidelity([1.0, 0.0], [1.0, 0.0]) == 1.0
        assert infidelity([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert infidelity([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_complement_identity(self):
        rng = np.random.default_rng(61)
        u, v = random_state(rng, 3), random_state(rng, 3)
        f, i = fidelity(u, v), infidelity(u, v)
        assert f * f + i * i == pytest.approx(1.0, abs=1e-12)


class TestPlanInfidelity:
    def test_budget_fields(self):
        target = 1.0 / np.sqrt(2.0)
        plan = plan_infidelity(target, 2.0)
        a = np.arcsin(target)
        assert plan.rotation_angle == pytest.approx(2 * a)
        assert plan.state_effort == pytest.approx(a)
        assert plan.worst_case_effort == pytest.approx(2 * a)
        assert plan.min_time_at_state_energy == pytest.approx(a / 2.0)
        assert plan.min_time_at_max_energy == pytest.approx(a)
        np.testing.assert_allclose(
            plan.realization.hamiltonian, np.diag([0.0, 4.0])
        )
        assert plan.realization.duration == pytest.approx(a / 2.0)

    def test_realization_achieves_the_target(self):
        target = 0.6
        plan = plan_infidelity(target, 1.5)
        r = plan.realization
        h = constant_hamiltonian(r.hamiltonian)
        traj = evolve(h, r.duration, StepPolicy(max_step=1e-3))
        psi_t = apply(traj, r.initial_state, r.duration)
        assert infidelity(r.initial_state, psi_t) == pytest.approx(
            target, abs=1e-10
        )
        # The effort actually spent equals arcsin(target).
        spent = effort_energy_integral(
            h, r.initial_state, r.duration, StepPolicy(max_step=1e-3)
        )
        assert spent == pytest.approx(np.arcsin(target), abs=1e-9)

    def test_arcsin_law_bounds_path_length_not_effort(self):
        # H = diag(0, 1) from (sqrt 0.9, sqrt 0.1) reaches infidelity 0.3 at
        # t = pi/3 while spending effort 0.1 * pi/3 = 0.105 < arcsin(0.3).
        h = constant_hamiltonian(np.diag([0.0, 1.0]))
        psi0 = np.sqrt([0.9, 0.1])
        t = np.pi / 3.0
        psi_t = apply(evolve(h, t), psi0, t)
        assert infidelity(psi0, psi_t) == pytest.approx(0.3, abs=1e-12)
        spent = effort_energy_integral(h, psi0, t)
        assert spent == pytest.approx(0.1 * t, abs=1e-12)
        assert spent < np.arcsin(0.3) - 0.19

    def test_to_json_shape(self):
        d = plan_infidelity(0.3, 1.0).to_json()
        assert d["target_infidelity"] == 0.3
        assert set(d["realization"]) == {
            "hamiltonian",
            "initial_state",
            "duration",
        }

    def test_validation(self):
        with pytest.raises(ValidationError, match="must lie in"):
            plan_infidelity(1.5, 1.0)
        with pytest.raises(ValidationError, match="energy must be positive"):
            plan_infidelity(0.5, 0.0)

    def test_infinite_energy_is_refused(self):
        with pytest.raises(ValidationError, match="energy must be finite, got inf"):
            plan_infidelity(0.3, float("inf"))


class TestOrthogonalizationTime:
    def test_equal_superposition_of_gap_one(self):
        h = constant_hamiltonian(np.diag([1.0, 0.0]))
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        t = orthogonalization_time(h, psi0, 5.0)
        assert t == pytest.approx(np.pi, abs=1e-8)

    def test_none_when_window_too_short(self):
        h = constant_hamiltonian(np.diag([1.0, 0.0]))
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert orthogonalization_time(h, psi0, 2.0) is None

    def test_none_for_stationary_states(self):
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert orthogonalization_time(constant_hamiltonian(np.eye(2)), psi0, 10.0) is None
        h = constant_hamiltonian(np.diag([1.0, 0.0]))
        assert orthogonalization_time(h, [1.0, 0.0], 10.0) is None

    def test_three_level_race(self):
        # (|0> + |1> + |2>)/sqrt(3) under diag(0, 1, 2): overlap
        # (1 + e^{it} + e^{2it})/3 vanishes first at t = 2 pi /3.
        h = constant_hamiltonian(np.diag([0.0, 1.0, 2.0]))
        psi0 = np.ones(3) / np.sqrt(3.0)
        t = orthogonalization_time(h, psi0, 5.0)
        assert t == pytest.approx(2 * np.pi / 3, abs=1e-8)

    def test_validation(self):
        from qeffort import piecewise_hamiltonian

        psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        pw = piecewise_hamiltonian([(1.0, np.eye(2))])
        with pytest.raises(ValidationError, match="constant Hamiltonian"):
            orthogonalization_time(pw, psi0, 1.0)
        h = constant_hamiltonian(np.eye(2))
        with pytest.raises(ValidationError, match="t_max must be positive"):
            orthogonalization_time(h, psi0, 0.0)


class TestMlCheck:
    def test_saturating_case(self):
        h = constant_hamiltonian(np.diag([1.0, 0.0]))
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        check = ml_check(h, psi0, 5.0)
        assert check.orthogonalization_time == pytest.approx(np.pi, abs=1e-8)
        assert check.mean_energy_above_ground == pytest.approx(0.5)
        assert check.min_time_bound == pytest.approx(np.pi)
        assert check.satisfied

    def test_zero_energy_has_no_bound(self):
        check = ml_check(constant_hamiltonian(np.eye(2)), [1.0, 0.0], 5.0)
        assert check.orthogonalization_time is None
        assert check.min_time_bound is None
        assert check.satisfied


class TestCycleHamiltonian:
    def test_generates_the_shift(self):
        for n in (2, 3, 5):
            h, c = cycle_hamiltonian(n, tau=0.7)
            np.testing.assert_allclose(exp_i(h.at(0.0) * 0.7), c, atol=1e-12)
            np.testing.assert_allclose(c @ np.eye(n)[:, 0], np.eye(n)[:, 1])

    def test_ground_zeroed_spectrum(self):
        h, _ = cycle_hamiltonian(4, tau=1.0)
        w = np.linalg.eigvalsh(h.at(0.0))
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(
            w, 2 * np.pi / 4 * np.array([0.0, 1.0, 2.0, 3.0]), atol=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least two states"):
            cycle_hamiltonian(1)
        with pytest.raises(ValidationError, match="tau must be positive"):
            cycle_hamiltonian(3, tau=0.0)