"""Angle folding, spectral decompositions, exp_i, logs, reunitarization."""

import numpy as np
import pytest
from scipy.linalg import expm, logm

from qeffort import (
    NumericalError,
    ValidationError,
    exp_i,
    fold_angle,
    principal_log_unitary,
    reunitarize,
    spectral_decompose,
    unitary_eigenphases,
)
from qeffort.linalg import (
    _TAYLOR_THETA,
    _cluster_ids,
    _exp_i_taylor,
    _refine_unitary_basis,
    as_state,
    check_hermitian,
    check_unitary,
    unitary_eigenphases_stack,
)
from conftest import haar_unitary, random_hermitian


class TestFoldAngle:
    def test_identity_on_principal_range(self):
        for x in (-3.0, -1.0, 0.0, 0.7, 3.0):
            assert fold_angle(x) == pytest.approx(x, abs=1e-15)

    def test_wraps_by_two_pi(self):
        assert fold_angle(2 * np.pi) == pytest.approx(0.0, abs=1e-12)
        assert fold_angle(3.5 * np.pi) == pytest.approx(-0.5 * np.pi, abs=1e-12)
        assert fold_angle(-2.5 * np.pi) == pytest.approx(-0.5 * np.pi, abs=1e-12)

    def test_branch_point_maps_to_plus_pi(self):
        # Both edges of the branch cut land on +pi, for every odd multiple.
        for k in (-3, -1, 1, 3):
            assert fold_angle(k * np.pi) == np.pi

    def test_array_input(self):
        x = np.array([0.0, np.pi, -np.pi, 4 * np.pi, -7 * np.pi])
        out = fold_angle(x)
        assert out.shape == x.shape
        np.testing.assert_allclose(
            out, [0.0, np.pi, np.pi, 0.0, np.pi], atol=1e-12
        )


class TestExpI:
    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5):
            h = random_hermitian(rng, dim, 2.0)
            np.testing.assert_allclose(exp_i(h), expm(1j * h), atol=1e-12)

    def test_output_is_unitary(self):
        rng = np.random.default_rng(8)
        u = exp_i(random_hermitian(rng, 6, 3.0))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="exponent"):
            exp_i(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_matches_the_per_matrix_route(self):
        # d = 16 and d = 3 exponents, bit for bit against the
        # single-matrix spectral route.
        rng = np.random.default_rng(16)
        for dim, n in ((16, 300), (3, 40)):
            a = np.stack([random_hermitian(rng, dim, 2.0) for _ in range(n)])
            for k in range(n):
                w, v = np.linalg.eigh(a[k])
                want = (v * np.exp(1j * w)) @ v.conj().T
                np.testing.assert_array_equal(exp_i(a[k]), want)


class TestTaylorExponential:
    @pytest.mark.parametrize("dim", [2, 4, 16])
    @pytest.mark.parametrize("norm", [1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0])
    def test_matches_exp_i_and_stays_unitary(self, dim, norm):
        rng = np.random.default_rng(17)
        a = np.stack([random_hermitian(rng, dim, norm) for _ in range(5)])
        bound = max(np.linalg.norm(m, 1) for m in a)
        got = _exp_i_taylor(a, bound)
        for k in range(len(a)):
            np.testing.assert_allclose(got[k], exp_i(a[k]), rtol=0.0, atol=1e-14)
            drift = np.linalg.norm(got[k].conj().T @ got[k] - np.eye(dim))
            assert drift < 1e-14
        if norm == 3.0:  # beyond the top theta: the squaring branch
            assert bound > _TAYLOR_THETA[-1]

    def test_stack_matches_the_per_matrix_route(self):
        # One bound gives every matrix the same arithmetic, in any stack.
        rng = np.random.default_rng(18)
        a = np.stack([random_hermitian(rng, 8, 1e-3) for _ in range(40)])
        for bound in (1e-3, 2.5):
            got = _exp_i_taylor(a, bound)
            for k in range(len(a)):
                np.testing.assert_array_equal(got[k], _exp_i_taylor(a[k][None], bound)[0])

    def test_zero_exponent_is_the_identity(self):
        np.testing.assert_array_equal(_exp_i_taylor(np.zeros((1, 3, 3)), 0.0)[0], np.eye(3))


class TestPrincipalLog:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        u = haar_unitary(rng, 4)
        a = principal_log_unitary(u)
        check_hermitian(a, name="log")
        np.testing.assert_allclose(exp_i(a), u, atol=1e-11)
        w = np.linalg.eigvalsh(a)
        assert np.all(w > -np.pi) and np.all(w <= np.pi + 1e-12)

    def test_matches_scipy_logm_off_branch(self):
        phi = np.array([-2.0, 0.3, 2.8])
        rng = np.random.default_rng(10)
        w = haar_unitary(rng, 3)
        u = (w * np.exp(1j * phi)) @ w.conj().T
        np.testing.assert_allclose(
            principal_log_unitary(u), logm(u) / 1j, atol=1e-10
        )

    def test_minus_identity_gives_pi(self):
        np.testing.assert_allclose(
            principal_log_unitary(-np.eye(3)), np.pi * np.eye(3), atol=1e-12
        )


class TestSpectralDecompose:
    def test_hermitian_ascending_and_reconstructs(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 5, 2.0)
        es = spectral_decompose(h, kind="hermitian")
        assert es.kind == "hermitian"
        assert np.all(np.diff(es.eigenvalues) >= 0)
        rebuilt = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
        np.testing.assert_allclose(rebuilt, h, atol=1e-12)

    def test_hermitian_degeneracy_flags(self):
        es = spectral_decompose(np.diag([1.0, 1.0, 2.0]), kind="hermitian")
        assert list(es.degenerate) == [True, True, False]

    def test_unitary_sorted_by_argument_and_reconstructs(self):
        rng = np.random.default_rng(12)
        u = haar_unitary(rng, 5)
        es = spectral_decompose(u, kind="unitary")
        assert es.kind == "unitary"
        assert np.all(np.diff(np.angle(es.eigenvalues)) >= -1e-12)
        rebuilt = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
        np.testing.assert_allclose(rebuilt, u, atol=1e-10)
        np.testing.assert_allclose(np.abs(es.eigenvalues), 1.0, atol=1e-12)

    def test_unitary_degeneracy_wraps_around_branch(self):
        # e^{i(pi-eps)} and e^{i(-pi+eps)} are circularly adjacent even though
        # their principal arguments sit at opposite ends of the interval.
        eps = 2e-10
        u = np.diag(
            np.exp(1j * np.array([np.pi - eps, -np.pi + eps, 0.5]))
        )
        es = spectral_decompose(u, kind="unitary")
        flags = list(es.degenerate)
        assert flags == [True, False, True]

    def test_kind_detection_failure(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="neither Hermitian nor unitary"):
            spectral_decompose(m)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown decomposition kind"):
            spectral_decompose(np.eye(2), kind="normal")


class TestChecks:
    def test_check_hermitian_names_the_entry(self):
        m = np.eye(3, dtype=complex)
        m[0, 2] = 1e-3
        with pytest.raises(
            ValidationError, match=r"drive term is not Hermitian: entry \(0,2\)"
        ):
            check_hermitian(m, name="drive term")

    def test_check_unitary(self):
        check_unitary(np.eye(2))
        with pytest.raises(ValidationError, match="not unitary"):
            check_unitary(2.0 * np.eye(2))

    def test_as_state_checks_finiteness_before_norm(self):
        with pytest.raises(ValidationError, match="non-finite"):
            as_state([np.nan, 0.0])
        with pytest.raises(ValidationError, match="not normalized"):
            as_state([1.0, 1.0])


class TestClusterIds:
    def test_no_groups(self):
        assert _cluster_ids(np.array([-1.0, 0.0, 2.0]), 1e-9).tolist() == [0, 1, 2]

    def test_interior_group(self):
        values = np.array([-1.0, 0.3, 0.3 + 5e-10, 0.3 + 9e-10, 2.0])
        assert _cluster_ids(values, 1e-9).tolist() == [0, 1, 1, 1, 2]
        # The tolerance is on neighbors: a gap of exactly tol splits.
        assert _cluster_ids(np.array([0.0, 1e-9]), 1e-9).tolist() == [0, 1]

    def test_wrap_around_group(self):
        eps = 2e-10
        phases = np.array([-np.pi + eps, 0.5, np.pi - eps])
        assert _cluster_ids(phases, 1e-9).tolist() == [0, 1, 2]
        assert _cluster_ids(phases, 1e-9, circular=True).tolist() == [0, 1, 0]
        # A wrap-around merges the end clusters whole.
        phases = np.array([-np.pi + eps, -np.pi + 2 * eps, 0.5, np.pi - 2 * eps, np.pi - eps])
        assert _cluster_ids(phases, 1e-9, circular=True).tolist() == [0, 0, 1, 0, 0]

    def test_one_value(self):
        for circular in (False, True):
            assert _cluster_ids(np.array([np.pi]), 1e-9, circular).tolist() == [0]


class TestReunitarize:
    def test_repairs_small_drift(self):
        rng = np.random.default_rng(13)
        u = haar_unitary(rng, 4)
        drifted = u @ (np.eye(4) + 0.01 * random_hermitian(rng, 4, 1.0))
        fixed = reunitarize(drifted)
        check_unitary(fixed, name="repaired")
        assert np.linalg.norm(fixed - u, 2) < 0.05

    def test_rejects_large_drift(self):
        with pytest.raises(NumericalError, match="too far from unitary"):
            reunitarize(3.0 * np.eye(2))


class TestEigenphaseStack:
    def test_matches_single_matrix_path(self):
        rng = np.random.default_rng(14)
        us = np.stack([haar_unitary(rng, 3) for _ in range(6)])
        phases, vectors, flags = unitary_eigenphases_stack(us)
        for k in range(6):
            phi, vecs, degen = unitary_eigenphases(us[k])
            np.testing.assert_allclose(phases[k], phi, atol=1e-11)
            overlaps = np.abs(np.einsum("ij,ij->j", vecs.conj(), vectors[k]))
            np.testing.assert_allclose(overlaps, 1.0, atol=1e-9)
            assert list(flags[k]) == list(degen)

    def test_batched_stack_matches_the_per_sample_route(self):
        # Three chunks of d = 16 samples; every seventh has +phi/-phi pairs
        # and repeated phases (a cosine group, so it is refined) and every
        # eleventh an eigenphase of exactly pi.
        rng = np.random.default_rng(15)
        us = []
        for k in range(600):
            phases = rng.uniform(-np.pi, np.pi, 16)
            if k % 7 == 0:
                phases[8:] = -phases[:8]
                phases[1] = phases[0]
            if k % 11 == 0:
                phases[3] = np.pi
            v = haar_unitary(rng, 16)
            us.append((v * np.exp(1j * phases)) @ v.conj().T)
        phases, vectors, flags = unitary_eigenphases_stack(np.stack(us))
        for k, u in enumerate(us):
            # The per-matrix route that the batched stack replaced.
            c = (u + u.conj().T) / 2.0
            s = (u - u.conj().T) / 2.0j
            c_vals, v = np.linalg.eigh(c)
            v = _refine_unitary_basis(c_vals, v, s)
            cos_q = np.einsum("ij,jk,ki->i", v.conj().T, c, v).real
            sin_q = np.einsum("ij,jk,ki->i", v.conj().T, s, v).real
            phi = np.arctan2(sin_q, cos_q)
            phi[phi == -np.pi] = np.pi
            order = np.argsort(phi, kind="stable")
            np.testing.assert_array_equal(phases[k], phi[order])
            np.testing.assert_array_equal(vectors[k], v[:, order])
            gaps = np.diff(np.append(phi[order], phi[order][0] + 2.0 * np.pi))
            close = gaps < 1e-9
            assert flags[k].tolist() == (close | np.roll(close, 1)).tolist()
        assert flags[::7].any(axis=1).all()
