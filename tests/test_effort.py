"""The four effort estimators, bounds over ensembles, and the CSV trace."""

import numpy as np
import pytest

from qeffort import (
    SIGMA_X,
    SIGMA_Z,
    StepPolicy,
    ValidationError,
    area_swept,
    blockwise_energy_integral,
    constant_hamiltonian,
    effort_bounds,
    effort_energy_integral,
    effort_line_integral,
    effort_report,
    evolve,
    export_state_trace_csv,
    hilbert_distance,
    piecewise_hamiltonian,
    state_trajectory,
)
import qeffort.effort as effort_module
from conftest import driven_qubit_trajectory, haar_unitary, random_hermitian, random_state


def superposition():
    return np.array([1.0, 1.0]) / np.sqrt(2.0)


class TestLineIntegral:
    def test_exact_for_pure_phase_rotation(self):
        # H proportional to the identity only turns the global phase, and
        # the arg-of-overlap sum picks up exactly that angle.
        h = constant_hamiltonian(2.5 * np.eye(2))
        traj = evolve(h, 1.0, StepPolicy(max_step=0.1))
        st = state_trajectory(traj, [1.0, 0.0])
        assert effort_line_integral(st) == pytest.approx(2.5, abs=1e-12)

    def test_accepts_time_state_pairs(self):
        pairs = [(0.0, [1.0, 0.0]), (0.1, [np.exp(0.3j), 0.0])]
        assert effort_line_integral(pairs) == pytest.approx(0.3, abs=1e-12)

    def test_refuses_sparse_sampling(self):
        pairs = [(0.0, [1.0, 0.0]), (1.0, [0.0, 1.0])]
        with pytest.raises(ValidationError, match="sampling too sparse"):
            effort_line_integral(pairs)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError, match="at least two samples"):
            effort_line_integral([(0.0, [1.0, 0.0])])
        with pytest.raises(ValidationError, match="empty state sequence"):
            effort_line_integral([])


class TestAreaSwept:
    def test_matches_analytic_circular_arc(self):
        # diag(1, 0) on an equal superposition: the moving coefficient is
        # e^{it}/sqrt(2), an origin-centred circle of radius 1/sqrt(2), so
        # the swept area is the sector (1/2) r^2 t = t/4.
        h = constant_hamiltonian(np.diag([1.0, 0.0]))
        t_end = np.pi / 2
        traj = evolve(h, t_end, StepPolicy(max_step=1e-3))
        st = state_trajectory(traj, superposition())
        assert area_swept(st) == pytest.approx(t_end / 4.0, abs=1e-9)

    def test_basis_change_preserves_total_area(self):
        rng = np.random.default_rng(41)
        h = constant_hamiltonian(random_hermitian(rng, 3, 1.5))
        traj = evolve(h, 1.0, StepPolicy(max_step=1e-3))
        st = state_trajectory(traj, random_state(rng, 3))
        base = area_swept(st)
        for _ in range(4):
            w = haar_unitary(rng, 3)
            assert area_swept(st, w) == pytest.approx(base, abs=1e-9)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError, match="area needs at least two"):
            area_swept([(0.0, [1.0, 0.0])])

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_any_basis_gives_the_standard_bits(self, dim):
        # sum_j conj(c_j(k)) c_j(k+1) = <psi_k|psi_k+1> in every unitary
        # basis, so the area is computed once, from the states as given.
        rng = np.random.default_rng(400 + dim)
        h = constant_hamiltonian(random_hermitian(rng, dim, 1.5))
        st = state_trajectory(evolve(h, 0.5), random_state(rng, dim))
        base = area_swept(st)
        for _ in range(3):
            assert area_swept(st, haar_unitary(rng, dim)) == base

    def test_basis_is_validated(self):
        st = [(0.0, [1.0, 0.0]), (0.1, [1.0, 0.0])]
        with pytest.raises(ValidationError, match="basis is not unitary"):
            area_swept(st, 2.0 * np.eye(2))
        with pytest.raises(ValidationError, match="basis has dimension 3, the states 2"):
            area_swept(st, np.eye(3))


class TestEnergyIntegral:
    def test_constant_h_gives_expectation_times_t(self):
        rng = np.random.default_rng(42)
        h_mat = random_hermitian(rng, 4, 2.0)
        psi0 = random_state(rng, 4)
        got = effort_energy_integral(constant_hamiltonian(h_mat), psi0, 1.3)
        want = 1.3 * float(np.vdot(psi0, h_mat @ psi0).real)
        assert got == pytest.approx(want, abs=1e-9)

    def test_alignment_check(self):
        traj = evolve(constant_hamiltonian(np.eye(2)), 0.5)
        with pytest.raises(ValidationError, match="not aligned"):
            blockwise_energy_integral(traj, np.zeros((3, 2), dtype=complex))


def looped_energy_integral(traj, states):
    """Per-block H(t) expectations, each block's Simpson sum added in turn."""
    total = 0.0
    for i0, i1, desc in traj.blocks:
        sub = states[i0 : i1 + 1]
        if desc[0] == "const":
            h_arr = np.broadcast_to(desc[1], (i1 - i0 + 1,) + desc[1].shape)
        else:
            _, t0, h0, t1, h1 = desc
            w = (traj.times[i0 : i1 + 1] - t0) / (t1 - t0)
            h_arr = (1.0 - w)[:, None, None] * h0 + w[:, None, None] * h1
        e = np.einsum("ti...,tij,tj...->t...", sub.conj(), h_arr, sub).real
        dx = (traj.times[i1] - traj.times[i0]) / (i1 - i0)
        total = total + (dx / 3.0) * (
            e[0] + e[-1] + 4.0 * e[1:-1:2].sum(axis=0) + 2.0 * e[2:-1:2].sum(axis=0)
        )
    return total


class TestVectorisedSimpson:
    @pytest.mark.parametrize("drive", ["spin", "piecewise"])
    def test_matches_the_per_block_loop(self, drive):
        rng = np.random.default_rng(44)
        if drive == "spin":
            h, t_end = driven_qubit_trajectory(1.0, 1.3, 2.0, np.pi, 2001), np.pi
        else:
            h = piecewise_hamiltonian([(d, random_hermitian(rng, 3, 2.0)) for d in (0.3, 0.45, 0.5)])
            t_end = 1.25
        traj = evolve(h, t_end)
        psi = state_trajectory(traj, random_state(rng, h.dim)).states
        channels = traj.unitaries @ haar_unitary(rng, h.dim)
        assert abs(blockwise_energy_integral(traj, psi) - looped_energy_integral(traj, psi)) < 1e-13
        np.testing.assert_allclose(
            blockwise_energy_integral(traj, channels),
            looped_energy_integral(traj, channels),
            rtol=0.0,
            atol=1e-13,
        )


class TestEstimatorAgreement:
    def test_reparameterization_invariance(self):
        # Doubling H and halving t is the same physical path; halving the
        # step cap as well makes the two sampled paths coincide pointwise.
        rng = np.random.default_rng(43)
        h_mat = random_hermitian(rng, 2, 1.0)
        psi0 = random_state(rng, 2)
        r1 = effort_report(
            constant_hamiltonian(h_mat), psi0, 1.0, policy=StepPolicy(max_step=1e-4)
        )
        r2 = effort_report(
            constant_hamiltonian(2 * h_mat),
            psi0,
            0.5,
            policy=StepPolicy(max_step=5e-5),
        )
        assert r1.alpha_line_integral == pytest.approx(
            r2.alpha_line_integral, abs=1e-10
        )
        assert r1.alpha_energy_integral == pytest.approx(
            r2.alpha_energy_integral, abs=1e-10
        )
        assert r1.area_swept == pytest.approx(r2.area_swept, abs=1e-10)

    def test_constant_h_all_four_agree(self):
        rng = np.random.default_rng(31)
        h = constant_hamiltonian(random_hermitian(rng, 3, 1.5))
        psi0 = random_state(rng, 3)
        report = effort_report(h, psi0, 1.2, policy=StepPolicy(max_step=5e-4))
        assert report.max_pairwise_discrepancy < 1e-6
        assert report.basis_used == "standard"

    def test_noncommuting_pulls_the_expectation_away(self):
        # Two noncommuting pulses: the doubled area, the line integral and
        # the energy integral stay locked together, but the initial-state
        # expectation of the tracked action departs at finite size. The
        # first three are functionals of the state path; the fourth mixes
        # in eigenvector rotation of A(t), which only cancels when the
        # generators commute.
        h = piecewise_hamiltonian(
            [(0.5, 1.2 * np.asarray(SIGMA_X)), (0.5, 0.9 * np.asarray(SIGMA_Z))]
        )
        report = effort_report(
            h, [1.0, 0.0], 1.0, policy=StepPolicy(max_step=5e-4)
        )
        trio = [
            2.0 * report.area_swept,
            report.alpha_line_integral,
            report.alpha_energy_integral,
        ]
        spread = max(trio) - min(trio)
        assert spread < 1e-6
        gap = abs(report.alpha_action_expectation - report.alpha_energy_integral)
        assert gap > 1e-4
        assert report.max_pairwise_discrepancy == pytest.approx(
            max(
                abs(report.alpha_action_expectation - v) for v in trio
            ),
            abs=1e-12,
        )

    def test_report_json_fields(self):
        h = constant_hamiltonian(np.diag([1.0, 0.0]))
        report = effort_report(h, superposition(), 0.5)
        d = report.to_json()
        assert set(d) == {
            "alpha_line_integral",
            "alpha_energy_integral",
            "alpha_action_expectation",
            "area_swept",
            "basis_used",
            "max_pairwise_discrepancy",
            "area_basis_variation",
        }
        assert d["basis_used"] == "standard"
        assert d["area_basis_variation"] == 0.0

    def test_report_with_custom_bases(self):
        rng = np.random.default_rng(44)
        h = constant_hamiltonian(random_hermitian(rng, 2, 1.0))
        bases = [haar_unitary(rng, 2) for _ in range(3)]
        report = effort_report(h, superposition(), 0.8, bases=bases)
        assert report.basis_used == "custom"
        assert report.area_basis_variation < 1e-8

    def test_report_area_is_one_number_for_all_bases(self):
        rng = np.random.default_rng(45)
        h = constant_hamiltonian(random_hermitian(rng, 4, 1.0))
        psi0 = random_state(rng, 4)
        bases = [haar_unitary(rng, 4) for _ in range(3)]
        report = effort_report(h, psi0, 0.8, bases=bases)
        assert report.area_basis_variation == 0.0
        assert report.area_swept == effort_report(h, psi0, 0.8).area_swept

    def test_report_validates_every_basis_first(self, monkeypatch):
        # A bad bases[1] is refused before any estimator runs.
        monkeypatch.setattr(effort_module, "state_trajectory", None)
        h = constant_hamiltonian(np.diag([1.0, 0.0]))
        with pytest.raises(ValidationError, match=r"bases\[1\] is not unitary"):
            effort_report(h, superposition(), 0.5, bases=[np.eye(2), 2.0 * np.eye(2)])
        with pytest.raises(ValidationError, match=r"bases\[0\] has dimension 3"):
            effort_report(h, superposition(), 0.5, bases=[np.eye(3)])


class TestEffortBounds:
    def test_full_space(self):
        b = effort_bounds(np.diag([1.0, 2.0, 17.0]))
        assert b.min == 1.0
        assert b.max == 17.0
        assert b.expected == pytest.approx(20.0 / 3.0)

    def test_density_matrix(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        b = effort_bounds(np.diag([1.0, 2.0, 17.0]), rho)
        assert b.min == pytest.approx(1.0)
        assert b.max == pytest.approx(2.0)
        assert b.expected == pytest.approx(1.5)

    def test_state_probability_pairs(self):
        a = np.diag([1.0, 2.0, 17.0])
        pairs = [([1.0, 0.0, 0.0], 0.25), ([0.0, 1.0, 0.0], 0.75)]
        b = effort_bounds(a, pairs)
        assert b.min == pytest.approx(1.0)
        assert b.max == pytest.approx(2.0)
        assert b.expected == pytest.approx(1.75)

    def test_validation(self):
        a = np.diag([1.0, 2.0])
        with pytest.raises(ValidationError, match="unknown ensemble"):
            effort_bounds(a, "thermal")
        with pytest.raises(ValidationError, match="empty ensemble"):
            effort_bounds(a, [])
        with pytest.raises(ValidationError, match="trace is not 1"):
            effort_bounds(a, np.diag([0.5, 0.0]).astype(complex))
        with pytest.raises(ValidationError, match="dimension mismatch"):
            effort_bounds(a, np.eye(3, dtype=complex) / 3.0)
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            effort_bounds(a, np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValidationError, match="must be nonnegative"):
            effort_bounds(a, [([1.0, 0.0], -0.5), ([0.0, 1.0], 1.5)])
        with pytest.raises(ValidationError, match="probabilities sum to"):
            effort_bounds(a, [([1.0, 0.0], 0.3), ([0.0, 1.0], 0.3)])


class TestHilbertDistance:
    def test_known_values(self):
        assert hilbert_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2)
        assert hilbert_distance([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0)
        assert hilbert_distance(
            [1.0, 0.0], superposition()
        ) == pytest.approx(np.pi / 4)

    def test_phase_invariance(self):
        rng = np.random.default_rng(45)
        u, v = random_state(rng, 4), random_state(rng, 4)
        assert hilbert_distance(u, v) == pytest.approx(
            hilbert_distance(u * np.exp(0.7j), v), abs=1e-12
        )


class TestStateTraceCsv:
    def test_layout_and_determinism(self, tmp_path):
        h = constant_hamiltonian(np.diag([1.0, 0.0]))
        traj = evolve(h, 0.2, StepPolicy(max_step=0.05))
        st = state_trajectory(traj, superposition())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_state_trace_csv(p1, st)
        export_state_trace_csv(p2, st)
        text = p1.read_text()
        assert text == p2.read_text()
        lines = [ln for ln in text.split("\n") if ln]
        assert lines[0] == "time,basis_index,re,im"
        assert len(lines) == 1 + len(st.times) * 2
        # %.17g floats round-trip exactly.
        t, j, re, im = lines[1].split(",")
        assert float(t) == st.times[0]
        assert int(j) == 0
        assert complex(float(re), float(im)) == st.states[0, 0]