"""Dense complex linear algebra primitives.

Everything here works on plain numpy arrays. Hermitian eigendecomposition
is the only solver primitive; unitary matrices are decomposed by routing
through the Hermitian solver on (U + U†)/2 and (U - U†)/2i with subspace
refinement, which keeps every eigenproblem well conditioned.

Sign convention used throughout the package: exp_i(A) = e^{+iA}, so a
Hamiltonian H generates U(t) = e^{+iHt}. Energies and eigenphases are in
radians (per unit time where a time is involved); hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Absolute gap below which neighboring eigenvalues are reported degenerate.
DEGENERACY_TOL = 1e-9

# Grouping tolerance for the cosine spectrum in the unitary route. Looser
# than DEGENERACY_TOL on purpose: cos merges +phi and -phi, and any group
# that was split spuriously is re-split by the sine refinement anyway.
_COS_GROUP_TOL = 1e-8

_HERM_TOL = 1e-10
_UNITARY_TOL = 1e-10

# Batch size of the stacked routines: about this many matrix entries per
# (n, d, d) temporary, which bounds each to 1 MiB of complex.
_CHUNK_ENTRIES = 1 << 16


def fold_angle(x):
    """Fold an angle (or array of angles) into (-pi, pi].

    The branch point maps to +pi, never -pi.
    """
    y = np.remainder(np.asarray(x, dtype=float), 2.0 * np.pi)
    y = np.where(y > np.pi, y - 2.0 * np.pi, y)
    return y if y.ndim else float(y)


def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix has non-finite entries")
    return m


def check_hermitian(m, tol: float = _HERM_TOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity and return the input as a complex array.

    On failure the error message names the entry with the largest
    asymmetry, which is what a user needs to fix their input file.
    """
    m = as_matrix(m)
    delta = m - m.conj().T
    err = np.linalg.norm(delta)
    if err >= tol * max(1.0, np.linalg.norm(m)):
        i, j = np.unravel_index(np.argmax(np.abs(delta)), delta.shape)
        raise ValidationError(
            f"{name} is not Hermitian: entry ({i},{j}) differs from the "
            f"conjugate of ({j},{i}) by {np.abs(delta[i, j]):.3e}"
        )
    return m


def _drift(u) -> float:
    """||U†U - I||_F, the distance from unitarity every check measures."""
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def check_unitary(m, tol: float = _UNITARY_TOL, name: str = "matrix") -> np.ndarray:
    m = as_matrix(m)
    err = _drift(m)
    if err >= tol:
        raise ValidationError(f"{name} is not unitary: ||M†M - I||_F = {err:.3e}")
    return m


def as_state(v, tol: float = 1e-12) -> np.ndarray:
    """Validate a normalized state vector and return it as a complex array."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValidationError("state vector has non-finite entries")
    norm2 = float(np.vdot(v, v).real)
    if abs(norm2 - 1.0) >= tol:
        raise ValidationError(f"state vector is not normalized: |psi|^2 = {norm2!r}")
    return v


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral decomposition M = V diag(eigenvalues) V†.

    eigenvalues: real ascending for Hermitian input; unit-modulus complex
        sorted by principal argument for unitary input.
    eigenvectors: orthonormal columns, eigenvectors[:, i] belongs to
        eigenvalues[i].
    degenerate: per-eigenvalue flag, True when the gap to a neighbor is
        below DEGENERACY_TOL (measured on the unit circle for unitaries).
    kind: "hermitian" or "unitary".
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degenerate: np.ndarray
    kind: str


def _degenerate_flags_real(w: np.ndarray, tol: float = DEGENERACY_TOL) -> np.ndarray:
    # w sorted ascending along the last axis.
    flags = np.zeros(w.shape, dtype=bool)
    close = np.abs(np.diff(w, axis=-1)) < tol
    flags[..., :-1] |= close
    flags[..., 1:] |= close
    return flags


def _degenerate_flags_circular(phi: np.ndarray, tol: float = DEGENERACY_TOL) -> np.ndarray:
    # phi sorted ascending in (-pi, pi] along the last axis; the circle
    # closes between the last and first entries.
    flags = _degenerate_flags_real(phi, tol)
    wrap = np.abs(2.0 * np.pi - (phi[..., -1:] - phi[..., :1])) < tol
    flags[..., :1] |= wrap
    flags[..., -1:] |= wrap
    return flags


def stack_chunks(n: int, d: int):
    """Slices that cut a stack of n (d, d) matrices into bounded batches."""
    step = max(1, _CHUNK_ENTRIES // max(1, d * d))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _cluster_ids(values: np.ndarray, tol: float, circular: bool = False) -> np.ndarray:
    """Label clusters of ascending values: neighbors closer than tol share a label.

    circular: the values are phases in (-pi, pi], and the first and last
    clusters merge when they touch across the branch point.
    """
    ids = np.concatenate(([0], np.cumsum(np.diff(values) >= tol)))
    if circular and ids[-1] != 0 and 2.0 * np.pi - (values[-1] - values[0]) < tol:
        ids[ids == ids[-1]] = 0
    return ids


def _refine_unitary_basis(c_vals, vectors, s_mat):
    """Split cosine-degenerate subspaces using the sine part.

    c_vals: eigenvalues of (U+U†)/2, ascending. vectors: its eigenvectors.
    Within any group of near-equal cosines, the projected sine operator is
    diagonalized to separate +phi from -phi channels. Distinct phases in a
    cosine group always have distinct sines, so one refinement level is
    enough.
    """
    v = vectors.copy()
    ids = _cluster_ids(c_vals, _COS_GROUP_TOL)
    for label in np.flatnonzero(np.bincount(ids) > 1):
        cols = ids == label
        block = v[:, cols]
        s_proj = block.conj().T @ s_mat @ block
        s_proj = (s_proj + s_proj.conj().T) / 2.0
        _, w = np.linalg.eigh(s_proj)
        v[:, cols] = block @ w
    return v


def spectral_decompose(m, kind: str | None = None) -> EigenSystem:
    """Eigendecompose a Hermitian or unitary matrix.

    kind: "hermitian", "unitary", or None to detect. Hermitian eigenvalues
    come back ascending; unitary eigenvalues are sorted by principal
    argument in (-pi, pi]. Degenerate subspaces get an arbitrary
    orthonormal internal basis and are flagged.
    """
    m = as_matrix(m)
    if kind is None:
        scale = max(1.0, np.linalg.norm(m))
        if np.linalg.norm(m - m.conj().T) < _HERM_TOL * scale:
            kind = "hermitian"
        elif _drift(m) < _UNITARY_TOL:
            kind = "unitary"
        else:
            raise ValidationError("matrix is neither Hermitian nor unitary")

    if kind == "hermitian":
        m = check_hermitian(m)
        w, v = np.linalg.eigh(m)
        return EigenSystem(w, v, _degenerate_flags_real(w), "hermitian")

    if kind != "unitary":
        raise ValidationError(f"unknown decomposition kind {kind!r}")
    phis, vecs, degen = unitary_eigenphases_stack(check_unitary(m)[None])
    return EigenSystem(np.exp(1j * phis[0]), vecs[0], degen[0], "unitary")


def unitary_eigenphases(u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Principal eigenphases of a unitary, plus eigenvectors and flags.

    Returns (phi, vectors, degenerate) with phi sorted ascending in
    (-pi, pi]. A stack of one through spectral_decompose.
    """
    es = spectral_decompose(u, "unitary")
    return np.angle(es.eigenvalues), es.eigenvectors, es.degenerate


def unitary_eigenphases_stack(u_stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """unitary_eigenphases over a stack of unitaries, as batched array operations.

    u_stack: (n, d, d) array of matrices already known to be unitary (no
    per-sample unitarity check; the intended input is evolve output).
    Returns (phis, vectors, degenerate) of shapes (n, d), (n, d, d), (n, d).
    All of it runs as array operations over bounded chunks of samples,
    except the sine refinement of the samples that have a cosine group.
    """
    u_stack = np.asarray(u_stack, dtype=complex)
    n, d = u_stack.shape[0], u_stack.shape[1]
    phis = np.empty((n, d))
    vecs = np.empty((n, d, d), dtype=complex)
    for part in stack_chunks(n, d):
        u = u_stack[part]
        u_dag = np.swapaxes(u.conj(), -1, -2)
        c = (u + u_dag) / 2.0
        s = (u - u_dag) / 2.0j
        c_vals, v = np.linalg.eigh(c)
        for k in np.flatnonzero((np.diff(c_vals, axis=-1) < _COS_GROUP_TOL).any(axis=-1)):
            v[k] = _refine_unitary_basis(c_vals[k], v[k], s[k])
        v_dag = np.swapaxes(v.conj(), -1, -2)
        cos_q = np.einsum("nij,njk,nki->ni", v_dag, c, v).real
        sin_q = np.einsum("nij,njk,nki->ni", v_dag, s, v).real
        phi = np.arctan2(sin_q, cos_q)
        # arctan2(+0, -1) = +pi, which is the branch-point rule we want; a
        # rounding-noise -0.0 (or a sine tiny enough to round to -pi) would
        # land on -pi instead, so flip that single excluded value.
        phi[phi == -np.pi] = np.pi
        order = np.argsort(phi, axis=-1, kind="stable")
        phis[part] = np.take_along_axis(phi, order, axis=-1)
        vecs[part] = np.take_along_axis(v, order[:, None, :], axis=-1)
    return phis, vecs, _degenerate_flags_circular(phis)


def exp_i(a) -> np.ndarray:
    """Matrix exponential e^{+iA} of a Hermitian A, via its spectrum.

    The positive sign in the exponent is the package-wide convention.
    Spectral construction keeps the output unitary by construction.
    """
    w, v = np.linalg.eigh(check_hermitian(a, name="exponent"))
    return (v * np.exp(1j * w)) @ v.conj().T


# theta_m of Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488, Table 3.1: the degree-m
# Taylor polynomial of e^X is exact to unit roundoff for ||X||_1 <= theta_m (up to m = 18).
_TAYLOR_THETA = (2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2,
                 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09)


def _exp_i_taylor(a_stack, bound: float) -> np.ndarray:
    """exp_i over a stack of Hermitian A with ||A||_1 <= bound, unitary to rounding.

    bound alone fixes the fewest squarings s, then the lowest degree m, with
    bound / 2^s <= theta_m, so a matrix gets the same arithmetic in any stack.
    """
    s = 0
    while _TAYLOR_THETA[-1] * 2**s < bound:
        s += 1
    m = next(m for m, theta in enumerate(_TAYLOR_THETA, 1) if theta * 2**s >= bound)
    x = (1j / 2**s) * np.asarray(a_stack)
    eye = np.eye(x.shape[-1])
    t = x / m + eye
    for k in range(m - 1, 0, -1):
        t = x @ t / k + eye
    for _ in range(s):
        t = t @ t
    return t


def principal_log_unitary(u) -> np.ndarray:
    """Hermitian A with e^{iA} = U and all eigenvalues in (-pi, pi].

    Single-point principal branch (all winding integers zero); an
    eigenvalue argument of exactly pi maps to +pi. Use the action tracker
    for branch continuity along a trajectory.
    """
    es = spectral_decompose(u, "unitary")
    phi = np.angle(es.eigenvalues)
    a = (es.eigenvectors * phi) @ es.eigenvectors.conj().T
    return (a + a.conj().T) / 2.0


def reunitarize(m) -> np.ndarray:
    """Closest unitary in Frobenius norm (the polar factor).

    Rejects inputs with ||M†M - I||_F >= 0.1: drift that large means an
    integrator step failed, and polishing it would hide the failure.
    """
    m = as_matrix(m)
    drift = _drift(m)
    if drift >= 0.1:
        raise NumericalError(
            f"matrix is too far from unitary to repair (||M†M - I||_F = {drift:.3e})"
        )
    u, _, vh = np.linalg.svd(m)
    return u @ vh
