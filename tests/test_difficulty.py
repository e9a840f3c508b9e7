"""Bloch decomposition, gate difficulty, controlled gates, circuit bounds."""

import numpy as np
import pytest

from qeffort import (
    CLASSICAL_GATES,
    GATE_X,
    GATE_Y,
    GATE_Z,
    HADAMARD,
    S_GATE,
    SQRT_NOT,
    T_GATE,
    ValidationError,
    axis_eigenvectors,
    bloch_decompose,
    classical_circuit_effort_bound,
    controlled_unitary,
    difficulty_controlled,
    difficulty_u2,
    exp_i,
    gate_table,
    optimal_hamiltonian,
    phase_gate,
    unitary_distance,
    verify_minimality,
)
from qeffort.difficulty import DIM_CAP, export_gate_table_csv
from conftest import haar_unitary


INV_SQRT2 = 1.0 / np.sqrt(2.0)

DECOMPOSITION_TABLE = [
    (GATE_X, -np.pi / 2, np.pi, (1.0, 0.0, 0.0)),
    (GATE_Y, -np.pi / 2, np.pi, (0.0, 1.0, 0.0)),
    (GATE_Z, -np.pi / 2, np.pi, (0.0, 0.0, 1.0)),
    (HADAMARD, -np.pi / 2, np.pi, (INV_SQRT2, 0.0, INV_SQRT2)),
    (SQRT_NOT, np.pi / 4, np.pi / 2, (-1.0, 0.0, 0.0)),
    (S_GATE, np.pi / 4, np.pi / 2, (0.0, 0.0, -1.0)),
    (T_GATE, np.pi / 8, np.pi / 4, (0.0, 0.0, -1.0)),
]


class TestBlochDecompose:
    def test_named_gate_table(self):
        for u, alpha, theta, axis in DECOMPOSITION_TABLE:
            b = bloch_decompose(u)
            assert b.alpha == pytest.approx(alpha, abs=1e-12)
            assert b.theta == pytest.approx(theta, abs=1e-12)
            np.testing.assert_allclose(b.axis, axis, atol=1e-12)

    def test_phase_gate_family(self):
        # Below theta = pi; at pi the gate is exactly Z, pinned above with
        # the canonical branch alpha = -pi/2 and axis +z.
        for theta in np.linspace(0.1, 3.0, 7):
            b = bloch_decompose(phase_gate(theta))
            assert b.alpha == pytest.approx(theta / 2, abs=1e-12)
            assert b.theta == pytest.approx(theta, abs=1e-12)
            np.testing.assert_allclose(b.axis, (0.0, 0.0, -1.0), atol=1e-12)

    @pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
    def test_phase_gate_refuses_non_finite_angles(self, theta):
        with pytest.raises(ValidationError, match="phase angle must be finite"):
            phase_gate(theta)

    def test_reconstruct_round_trip(self):
        rng = np.random.default_rng(51)
        mats = [u for u, *_ in DECOMPOSITION_TABLE]
        mats += [haar_unitary(rng, 2) for _ in range(300)]
        for u in mats:
            np.testing.assert_allclose(
                bloch_decompose(u).reconstruct(), u, atol=1e-12
            )

    def test_rotation_angle_ignores_global_phase(self):
        rng = np.random.default_rng(52)
        u = haar_unitary(rng, 2)
        t1 = bloch_decompose(u).theta
        t2 = bloch_decompose(np.exp(0.9j) * u).theta
        assert t1 == pytest.approx(t2, abs=1e-12)

    def test_identity_has_conventional_axis(self):
        b = bloch_decompose(np.eye(2))
        assert b.theta == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(b.axis, (0.0, 0.0, 1.0))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError, match="2x2"):
            bloch_decompose(np.eye(3))


class TestAxisEigenvectors:
    def test_eigen_equation_and_orthonormality(self):
        axes = [
            (0.0, 0.0, 1.0),
            (0.0, 0.0, -1.0),
            (1.0, 0.0, 0.0),
            (0.6, -0.8, 0.0),
            (0.48, 0.6, -0.64),
        ]
        for axis in axes:
            n = np.asarray(axis) / np.linalg.norm(axis)
            plus, minus = axis_eigenvectors(n)
            sig = (
                n[0] * np.array([[0, 1], [1, 0]])
                + n[1] * np.array([[0, -1j], [1j, 0]])
                + n[2] * np.array([[1, 0], [0, -1]])
            )
            np.testing.assert_allclose(sig @ plus, plus, atol=1e-12)
            np.testing.assert_allclose(sig @ minus, -minus, atol=1e-12)
            assert abs(np.vdot(plus, minus)) < 1e-12
            assert np.linalg.norm(plus) == pytest.approx(1.0)
            assert np.linalg.norm(minus) == pytest.approx(1.0)


class TestOptimalHamiltonian:
    def test_x_gate_generator(self):
        h = optimal_hamiltonian(GATE_X)
        np.testing.assert_allclose(
            h, (np.pi / 2) * np.array([[1.0, 1.0], [1.0, 1.0]]), atol=1e-12
        )

    def test_phase_gate_generator(self):
        h = optimal_hamiltonian(phase_gate(0.8))
        np.testing.assert_allclose(h, np.diag([0.0, 0.8]), atol=1e-12)

    def test_duration_scaling(self):
        u = HADAMARD
        np.testing.assert_allclose(
            optimal_hamiltonian(u, 2.0), optimal_hamiltonian(u) / 2.0, atol=1e-12
        )

    def test_exponentiates_to_target_up_to_phase(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            u = haar_unitary(rng, 2)
            t = float(rng.uniform(0.5, 2.0))
            v = exp_i(optimal_hamiltonian(u, t) * t)
            ratio = np.trace(v.conj().T @ u) / 2.0
            np.testing.assert_allclose(v * ratio, u, atol=1e-10)
            assert abs(abs(ratio) - 1.0) < 1e-10

    def test_spectrum_is_zero_and_theta_over_t(self):
        rng = np.random.default_rng(54)
        u = haar_unitary(rng, 2)
        theta = bloch_decompose(u).theta
        for t in (0.5, 1.0, 2.0):
            w = np.linalg.eigvalsh(optimal_hamiltonian(u, t))
            np.testing.assert_allclose(w, [0.0, theta / t], atol=1e-12)

    def test_duration_must_be_positive(self):
        with pytest.raises(ValidationError, match="duration must be positive"):
            optimal_hamiltonian(GATE_X, 0.0)


class TestDifficultyU2:
    def test_value_is_rotation_angle(self):
        for u, _, theta, _ in DECOMPOSITION_TABLE:
            r = difficulty_u2(u)
            assert r.value == pytest.approx(theta, abs=1e-12)
            assert r.duration == 1.0
            assert r.convention == "ground-zero"

    def test_optimal_hamiltonian_attached(self):
        r = difficulty_u2(S_GATE)
        np.testing.assert_allclose(
            r.optimal_hamiltonian, optimal_hamiltonian(S_GATE), atol=1e-12
        )


class TestControlled:
    def test_controlled_unitary_layout(self):
        cnot = controlled_unitary(GATE_X, 1)
        want = np.eye(4, dtype=complex)
        want[2:, 2:] = GATE_X
        np.testing.assert_allclose(cnot, want, atol=1e-15)

    def test_difficulty_is_angle_of_target_block(self):
        for n in (1, 2, 3):
            r = difficulty_controlled(GATE_X, n)
            assert r.value == pytest.approx(np.pi, abs=1e-12)

    def test_controlled_identity_is_free(self):
        assert difficulty_controlled(np.eye(2), 2).value == pytest.approx(0.0)

    def test_block_generator_reproduces_gate_up_to_block_phase(self):
        # The embedded generator acts only on the target block, so the
        # exponential is I (+) e^{i(theta/2 - alpha)} u: correct up to a
        # relative phase on the active block. For X that phase is -1.
        rng = np.random.default_rng(55)
        for u in (GATE_X, haar_unitary(rng, 2)):
            b = bloch_decompose(u)
            r = difficulty_controlled(u, 1)
            v = exp_i(r.optimal_hamiltonian * r.duration)
            want = np.eye(4, dtype=complex)
            want[2:, 2:] = np.exp(1j * (b.theta / 2.0 - b.alpha)) * u
            np.testing.assert_allclose(v, want, atol=1e-8)
        v = exp_i(difficulty_controlled(GATE_X, 1).optimal_hamiltonian)
        want = np.eye(4, dtype=complex)
        want[2:, 2:] = -GATE_X
        np.testing.assert_allclose(v, want, atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValidationError, match="n_controls must be a positive"):
            difficulty_controlled(GATE_X, 0)
        with pytest.raises(ValidationError, match="cap"):
            difficulty_controlled(GATE_X, 10)
        assert DIM_CAP == 2**10


class TestUnitaryDistance:
    def test_metric_properties(self):
        rng = np.random.default_rng(56)
        u, v, w = (haar_unitary(rng, 2) for _ in range(3))
        assert unitary_distance(u, u) == pytest.approx(0.0, abs=1e-9)
        assert unitary_distance(u, v) == pytest.approx(
            unitary_distance(v, u), abs=1e-12
        )
        assert unitary_distance(u, w) <= (
            unitary_distance(u, v) + unitary_distance(v, w) + 1e-9
        )

    def test_s_to_z(self):
        # Z = S^2, so the leftover rotation is another quarter turn.
        assert unitary_distance(S_GATE, GATE_Z) == pytest.approx(
            np.pi / 2, abs=1e-12
        )


class TestGateTable:
    def test_names_and_values(self):
        table = gate_table(phase_angle=0.8)
        names = [name for name, _ in table]
        assert names == ["X", "Y", "Z", "sqrt-NOT", "Hadamard", "S", "T", "ph(0.8)"]
        values = dict(table)
        assert values["X"] == pytest.approx(np.pi, abs=1e-12)
        assert values["sqrt-NOT"] == pytest.approx(np.pi / 2, abs=1e-12)
        assert values["T"] == pytest.approx(np.pi / 4, abs=1e-12)
        assert values["ph(0.8)"] == pytest.approx(0.8, abs=1e-12)

    def test_csv_export(self, tmp_path):
        path = tmp_path / "gates.csv"
        export_gate_table_csv(path, phase_angle=np.pi / 3)
        lines = [ln for ln in path.read_text().split("\n") if ln]
        assert lines[0] == "gate,difficulty"
        assert len(lines) == 9
        assert lines[1].startswith("X,")
        assert float(lines[1].split(",")[1]) == pytest.approx(np.pi, abs=1e-12)


class TestClassicalCircuit:
    def test_gate_catalogue(self):
        assert CLASSICAL_GATES["NOT"] == (1, np.pi)
        assert CLASSICAL_GATES["CCNOT"] == (3, np.pi)
        assert CLASSICAL_GATES["SWAP"] == (2, 3 * np.pi)

    def test_costs_add_per_gate(self):
        assert classical_circuit_effort_bound([]) == 0.0
        assert classical_circuit_effort_bound(
            [{"gate": "NOT", "wires": [0]}]
        ) == pytest.approx(np.pi)
        assert classical_circuit_effort_bound(
            [("CCNOT", (0, 1, 2))]
        ) == pytest.approx(np.pi)
        assert classical_circuit_effort_bound(
            [("SWAP", (0, 1)), ("CNOT", (1, 2))]
        ) == pytest.approx(4 * np.pi)
        inverter_chain = [("NOT", (k,)) for k in range(5)]
        assert classical_circuit_effort_bound(inverter_chain) == pytest.approx(
            5 * np.pi
        )

    def test_validation(self):
        with pytest.raises(ValidationError, match="unknown gate"):
            classical_circuit_effort_bound([("NAND", (0, 1))])
        with pytest.raises(ValidationError, match="distinct wires"):
            classical_circuit_effort_bound([("CNOT", (1, 1))])
        with pytest.raises(ValidationError, match="distinct wires"):
            classical_circuit_effort_bound([("CCNOT", (0, 1))])


class TestVerifyMinimality:
    def test_random_search_never_beats_theta(self):
        rng = np.random.default_rng(57)
        u = haar_unitary(rng, 2)
        theta = bloch_decompose(u).theta
        check = verify_minimality(u, n_samples=2000, seed=3)
        assert check.theta == pytest.approx(theta, abs=1e-12)
        assert check.best_found >= theta - 1e-9
        assert check.best_found == pytest.approx(theta, abs=1e-9)
        assert check.n_samples == 2000
        assert check.seed == 3

    def test_deterministic_in_the_seed(self):
        u = HADAMARD
        a = verify_minimality(u, n_samples=500, seed=11)
        b = verify_minimality(u, n_samples=500, seed=11)
        assert a.best_found == b.best_found


class TestLevitinValidation:
    def test_theta_range(self):
        from qeffort import levitin_comparison

        with pytest.raises(ValidationError, match="lie in"):
            levitin_comparison(-0.1)
        with pytest.raises(ValidationError, match="lie in"):
            levitin_comparison(3.2)