"""Numerical test of the claim that the Aharonov-Anandan phase vanishes.

Each eigenvector of U(tau) is a cyclic state: after time tau it returns
to itself in projective space. The claim under test is that its geometric
phase beta = alpha + phi is congruent to 0 mod 2pi, where alpha is the
energy integral along the channel's path and phi the channel's total
phase in the convention where dynamics contributes -alpha. Only the
folded residual is claim-bearing; any multiple of 2pi is gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effort import _energy_integral
from .evolution import evolve
from .linalg import fold_angle, unitary_eigenphases
from .serialize import write_csv

BERRY_CSV_COLUMNS = ("channel", "phi", "alpha", "beta_residual")


@dataclass(frozen=True, eq=False)
class BerryCheckResult:
    """Per-channel cyclic-phase audit of U(tau).

    phases holds phi = -Arg(u_j): the sign bridge from this package's
    U = e^{+iA} convention to the usual negative-exponent one the phase
    decomposition is stated in. degenerate flags channels whose U(tau)
    eigenvalue sits in a cluster: the eigenbasis inside a cluster is
    arbitrary, every basis choice is a different cyclic state, and the
    residual varies with that choice, so flagged residuals are reported
    but not claim-bearing.
    """

    tau: float
    phases: np.ndarray
    alphas: np.ndarray
    beta_residuals: np.ndarray
    degenerate: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.abs(self.beta_residuals).max())


def aa_phase_check(h, tau: float, policy=None) -> BerryCheckResult:
    """Evolve to U(tau), then audit every eigenchannel's geometric phase.

    alpha_j = integral of <psi_j(t)| H(t) |psi_j(t)> dt along the path
    psi_j(t) = U(t) v_j, computed by the same blockwise Simpson rule the
    effort module uses; phi_j = -Arg(u_j) from the endpoint eigenvalue.
    """
    traj = evolve(h, tau, policy)
    phi_principal, vectors, degenerate = unitary_eigenphases(traj.unitaries[-1])
    # The channel states U(t) v_j, built one bounded chunk of samples at a time.
    d, u = traj.dim, traj.unitaries
    alphas = _energy_integral(traj, lambda k: (u[k].reshape(-1, d) @ vectors).reshape(-1, d, d), d)
    phases = -phi_principal
    return BerryCheckResult(
        tau=float(tau),
        phases=phases,
        alphas=alphas,
        beta_residuals=fold_angle(alphas + phases),
        degenerate=degenerate,
    )


def export_berry_csv(path, result: BerryCheckResult) -> None:
    rows = (
        (j, result.phases[j], result.alphas[j], result.beta_residuals[j])
        for j in range(len(result.phases))
    )
    write_csv(path, BERRY_CSV_COLUMNS, rows)
