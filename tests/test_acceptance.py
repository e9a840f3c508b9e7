"""End-to-end acceptance suite.

Thirteen numbered checks, one test per check, desk scale throughout
(dimensions 2 to 16, the whole module in well under a minute). Three of
the checks assert universal identities that are provably basis- or
commutator-sensitive; each of those is split into a hard companion test
covering the regime where the identity does hold, plus a strict-xfail
test of the full universal claim. The xfail tests are real assertions:
if the full claim ever started passing, strict=True turns that into a
suite failure so the discrepancy gets looked at rather than hidden.
Failing claims fail with their evidence (criterion 11 serializes the
offending trajectory before asserting).
"""

import json

import numpy as np
import pytest

from qeffort import (
    CLASSICAL_GATES,
    GATE_X,
    StepPolicy,
    action_at,
    action_derivative,
    action_expectation,
    aa_phase_check,
    area_swept,
    bloch_decompose,
    blockwise_energy_integral,
    classical_circuit_effort_bound,
    constant_hamiltonian,
    cycle_hamiltonian,
    difficulty_controlled,
    difficulty_u2,
    effort_energy_integral,
    effort_line_integral,
    evolve,
    exp_i,
    fidelity,
    gate_table,
    hamiltonian_to_json,
    hilbert_distance,
    infidelity,
    interpolated_hamiltonian,
    levitin_comparison,
    ml_check,
    optimal_hamiltonian,
    orthogonalization_time,
    phase_gate,
    piecewise_hamiltonian,
    plan_infidelity,
    principal_log_unitary,
    state_trajectory,
    track_action,
    unitary_eigenphases,
)
from conftest import (
    driven_qubit_trajectory,
    haar_unitary,
    random_hermitian,
    random_state,
    random_trajectory,
)


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_swept_area_and_alpha_reproduction():
    # Equal superposition of a two-level system with gap 1, evolved for
    # t = pi: the swept area is pi/4 whether the coefficients are read in
    # the energy basis or in a basis rotated 45 degrees from it, and the
    # accumulated phase angle is pi/2.
    e_vec = np.array([1.0, 1.0]) / np.sqrt(2.0)
    h = constant_hamiltonian(np.outer(e_vec, e_vec.conj()))
    psi0 = np.array([1.0, 0.0])
    t_end = np.pi
    traj = evolve(h, t_end)
    st = state_trajectory(traj, psi0)

    area_standard = area_swept(st)
    g_vec = np.array([1.0, -1.0]) / np.sqrt(2.0)
    w_energy = np.column_stack([g_vec, e_vec])
    area_energy = area_swept(st, w_energy)
    assert abs(area_standard - np.pi / 4) < 1e-6
    assert abs(area_energy - np.pi / 4) < 1e-6

    line = effort_line_integral(st)
    energy = blockwise_energy_integral(traj, st.states)
    assert abs(line - np.pi / 2) < 1e-6
    assert abs(energy - np.pi / 2) < 1e-6


# ------------------------------------------------------- criteria 2 and 3


@pytest.fixture(scope="module")
def twenty_trajectories():
    """Twenty random evolutions at the default step policy.

    Constant, piecewise and smoothly interpolated generators over
    dimensions 2, 4 and 8, each with a random initial state and all four
    effort estimators evaluated at the endpoint.
    """
    rng = np.random.default_rng(2025)
    plan = (
        [("constant", d) for d in (2, 4, 8, 2, 4, 8, 2)]
        + [("piecewise", d) for d in (2, 4, 8, 2, 4, 8)]
        + [("interpolated", d) for d in (2, 4, 8, 2, 4, 8, 4)]
    )
    records = []
    for kind, dim in plan:
        t_end = float(rng.uniform(0.6, 1.1))
        h = random_trajectory(rng, dim, kind, t_end, scale=2.0)
        psi0 = random_state(rng, dim)
        traj = evolve(h, t_end)
        st = state_trajectory(traj, psi0)
        track = track_action(traj)
        t_final = float(traj.times[-1])
        records.append(
            {
                "kind": kind,
                "dim": dim,
                "psi0": psi0,
                "st": st,
                "line": effort_line_integral(st),
                "energy": float(blockwise_energy_integral(traj, st.states)),
                "area": area_swept(st),
                "a_exp": action_expectation(track, psi0, t_final),
            }
        )
    return records


def test_criterion_02_identity_chain_path_estimators(twenty_trajectories):
    # Doubled swept area, the line integral and the energy integral are
    # three computations of the same path functional; they agree for
    # every generator. The action expectation joins them whenever the
    # generator commutes with its own history (constant case here).
    assert len(twenty_trajectories) == 20
    for rec in twenty_trajectories:
        trio = [2.0 * rec["area"], rec["line"], rec["energy"]]
        spread = max(trio) - min(trio)
        assert spread < 1e-6, (rec["kind"], rec["dim"], spread)
        if rec["kind"] == "constant":
            quartet = trio + [rec["a_exp"]]
            assert max(quartet) - min(quartet) < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the action expectation <psi0|A(t)|psi0> mixes eigenvector "
        "rotation of A(t) into the estimate; when the generator at "
        "different times does not commute it departs from the three path "
        "functionals by a finite amount (0.2 rad is typical at these "
        "sizes), so four-way agreement to 1e-6 cannot hold"
    ),
)
def test_criterion_02_identity_chain_action_expectation_member(
    twenty_trajectories,
):
    for rec in twenty_trajectories:
        values = [
            2.0 * rec["area"],
            rec["line"],
            rec["energy"],
            rec["a_exp"],
        ]
        assert max(values) - min(values) < 1e-6, (rec["kind"], rec["dim"])


def test_criterion_03_area_basis_independence(twenty_trajectories):
    """The area is the same in ten Haar bases: an identity, not physics.

    In any unitary basis the components' products conj(c_j(k)) c_j(k+1)
    sum to the step overlap <psi_k|psi_k+1>, so this fails only on a coding
    error or on a basis that the unitarity check let through.
    """
    rng = np.random.default_rng(3030)
    for rec in twenty_trajectories:
        dim = rec["dim"]
        areas = [rec["area"]]
        areas += [
            area_swept(rec["st"], haar_unitary(rng, dim)) for _ in range(10)
        ]
        assert max(areas) - min(areas) < 1e-8, (rec["kind"], dim)


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_gate_difficulty_table():
    values = dict(gate_table(phase_angle=np.pi / 3))
    assert abs(values["X"] - np.pi) < 1e-9
    assert abs(values["Y"] - np.pi) < 1e-9
    assert abs(values["Z"] - np.pi) < 1e-9
    assert abs(values["Hadamard"] - np.pi) < 1e-9
    assert abs(values["sqrt-NOT"] - np.pi / 2) < 1e-9
    assert abs(values["S"] - np.pi / 2) < 1e-9
    assert abs(values["T"] - np.pi / 4) < 1e-9

    for theta in np.linspace(0.0, np.pi, 10):
        r = difficulty_u2(phase_gate(theta))
        assert abs(r.value - theta) < 1e-9
        # The value is the rotation angle of the decomposition, live.
        assert r.value == pytest.approx(
            bloch_decompose(phase_gate(theta)).theta, abs=1e-12
        )


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_optimal_hamiltonian_contract():
    rng = np.random.default_rng(505)
    for _ in range(500):
        u = haar_unitary(rng, 2)
        t = float(rng.uniform(0.5, 2.0))
        theta = bloch_decompose(u).theta
        h_mat = optimal_hamiltonian(u, t)

        v = exp_i(h_mat * t)
        overlap = abs(np.trace(v.conj().T @ u)) / 2.0
        assert overlap >= 1.0 - 1e-9

        w, vecs = np.linalg.eigh(h_mat)
        assert abs(w[0]) < 1e-9
        assert abs(w[1] - theta / t) < 1e-9

        traj = evolve(constant_hamiltonian(h_mat), t)
        top = state_trajectory(traj, vecs[:, 1])
        ground = state_trajectory(traj, vecs[:, 0])
        assert abs(blockwise_energy_integral(traj, top.states) - theta) < 1e-6
        assert abs(blockwise_energy_integral(traj, ground.states)) < 1e-6


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_levitin_comparison_grid():
    for theta in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi):
        comp = levitin_comparison(theta)
        assert abs(comp.specific_state_effort - (np.pi / 2 + theta)) < 1e-6
        assert abs(comp.worst_case_effort - np.pi) < 1e-6


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_margolus_levitin_bounds():
    # Saturation: gap-one superposition orthogonalizes exactly at t = pi.
    h = constant_hamiltonian(np.diag([1.0, 0.0]))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    t_orth = orthogonalization_time(h, plus, 4.0)
    assert t_orth is not None and abs(t_orth - np.pi) < 1e-8

    # No random system beats the bound t * E_above_ground >= pi/2.
    rng = np.random.default_rng(707)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        w = rng.uniform(0.0, 2.5, dim)
        basis = haar_unitary(rng, dim)
        h_mat = (basis * w) @ basis.conj().T
        h_rand = constant_hamiltonian((h_mat + h_mat.conj().T) / 2.0)
        psi0 = random_state(rng, dim)
        check = ml_check(h_rand, psi0, 10.0)
        assert check.satisfied
        if check.orthogonalization_time is not None:
            product = check.orthogonalization_time * check.mean_energy_above_ground
            assert product >= np.pi / 2 - 1e-6

    # Cyclic N-state shifts: each transition costs pi (N-1)/N, which
    # approaches but never reaches the two-level minimum's double.
    for n in range(2, 9):
        h_cycle, c = cycle_hamiltonian(n, tau=1.0)
        np.testing.assert_allclose(exp_i(h_cycle.at(0.0)), c, atol=1e-12)
        e0 = np.zeros(n)
        e0[0] = 1.0
        per_transition = effort_energy_integral(h_cycle, e0, 1.0)
        want = np.pi * (n - 1) / n
        assert abs(per_transition - want) < 1e-9
        assert per_transition >= want - 1e-6


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_infidelity_laws():
    # Rotation angle theta buys infidelity sin(theta/2), verified by
    # evolving each plan's realization.
    for theta in np.linspace(0.1, np.pi - 0.1, 8):
        target = float(np.sin(theta / 2.0))
        plan = plan_infidelity(target, 1.0)
        assert abs(plan.rotation_angle - theta) < 1e-12
        r = plan.realization
        h = constant_hamiltonian(r.hamiltonian)
        traj = evolve(h, r.duration)
        st = state_trajectory(traj, r.initial_state)
        measured = infidelity(r.initial_state, st.states[-1])
        assert abs(measured - target) < 1e-9

    # Reaching infidelity 1/sqrt(2) costs pi/4 of state effort.
    plan = plan_infidelity(1.0 / np.sqrt(2.0), 1.0)
    r = plan.realization
    spent = effort_energy_integral(
        constant_hamiltonian(r.hamiltonian), r.initial_state, r.duration
    )
    assert abs(spent - np.pi / 4) < 1e-6

    # arcsin(infidelity) = arccos(fidelity) = Hilbert distance.
    rng = np.random.default_rng(808)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        u, v = random_state(rng, dim), random_state(rng, dim)
        a = np.arcsin(infidelity(u, v))
        b = np.arccos(fidelity(u, v))
        d = hilbert_distance(u, v)
        assert abs(a - b) < 1e-9
        assert abs(b - d) < 1e-9


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_branch_tracking_windings():
    # A gap-3 channel crosses the principal branch once by t = pi; the
    # tracker reports the unwound 3 pi while the one-shot principal log
    # can only see 3 pi - 2 pi.
    h = constant_hamiltonian(np.diag([3.0, 0.0]))
    traj = evolve(h, np.pi)
    track = track_action(traj)
    order = np.argsort(track.alphas[-1])
    assert abs(track.alphas[-1][order][1] - 3 * np.pi) < 1e-8
    assert track.windings[-1][order][1] == 1
    log_vals = np.linalg.eigvalsh(principal_log_unitary(traj.unitaries[-1]))
    np.testing.assert_allclose(sorted(log_vals), [0.0, np.pi], atol=1e-10)

    # A dim-4 smooth drive held long enough to wind at least twice, with
    # exp_i(A(t)) = U(t) maintained across every winding. The winding
    # lives in a common mode; the relative phases stay under 2 pi so no
    # channel pair collides on the circle and trades identity.
    rng = np.random.default_rng(909)
    base = 5.5 * np.eye(4) + np.diag([0.0, 0.4, 0.8, 1.2]).astype(complex)
    knots = np.linspace(0.0, 2.5, 11)
    coupling = random_hermitian(rng, 4, 0.15)
    h_smooth = interpolated_hamiltonian(
        (t, base + np.sin(1.3 * t) * coupling) for t in knots
    )
    traj4 = evolve(h_smooth, 2.5)
    track4 = track_action(traj4)
    assert track4.windings[-1].max() >= 2

    # Vectorized reconstruction at every sample: A(t_k) is assembled from
    # the tracked channels, so e^{iA} must reproduce U exactly.
    v = track4.eigenvectors
    phase = np.exp(1j * track4.alphas)
    rebuilt = np.einsum("kij,kj,klj->kil", v, phase, v.conj())
    assert np.abs(rebuilt - traj4.unitaries).max() < 1e-8

    # And through the public surface at a few sample times.
    for k in (0, len(track4.times) // 3, 2 * len(track4.times) // 3, -1):
        t = float(track4.times[k])
        np.testing.assert_allclose(
            exp_i(action_at(track4, t).matrix), traj4.unitaries[k], atol=1e-8
        )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_conjugated_generator_fd_commuting():
    # Where A(t) and H(t) commute the conjugated generator U'HU is the
    # true time derivative of A(t): constant drives, commuting piecewise
    # schedules, and separable f(t) H0 drives all reproduce it by central
    # finite differences.
    policy = StepPolicy(max_step=1e-4)
    rng = np.random.default_rng(1010)

    def fd_residual(h, t_probe):
        traj = evolve(h, 0.3, policy)
        track = track_action(traj)
        k = traj.index_of(t_probe)
        a_plus = action_at(track, float(traj.times[k + 1])).matrix
        a_minus = action_at(track, float(traj.times[k - 1])).matrix
        span = float(traj.times[k + 1] - traj.times[k - 1])
        fd = (a_plus - a_minus) / span
        grad = action_derivative(track, h, float(traj.times[k]))
        # At t = 0 the conjugated generator is H(0) itself.
        np.testing.assert_allclose(
            action_derivative(track, h, 0.0), h.at(0.0), atol=1e-12
        )
        return np.linalg.norm(fd - grad)

    h0 = random_hermitian(rng, 3, 1.5)
    assert fd_residual(constant_hamiltonian(h0), 0.15) < 1e-5

    h_pw = piecewise_hamiltonian([(0.15, 0.7 * h0), (0.15, 1.4 * h0)])
    assert fd_residual(h_pw, 0.225) < 1e-5

    knots = np.linspace(0.0, 0.3, 4)
    h_sep = interpolated_hamiltonian(
        (t, (1.0 + 0.8 * t) * h0) for t in knots
    )
    assert fd_residual(h_sep, 0.15) < 1e-5


@pytest.mark.xfail(
    strict=True,
    reason=(
        "for noncommuting drives the derivative of A(t) and the "
        "conjugated generator U'HU agree only on the diagonal in A's "
        "eigenbasis; the off-diagonal entries differ by an "
        "eigenvalue-dependent factor, so the finite-difference match "
        "fails for generic time-dependent trajectories"
    ),
)
def test_criterion_10_conjugated_generator_fd_general():
    policy = StepPolicy(max_step=1e-4)
    rng = np.random.default_rng(1011)
    for trial in range(10):
        dim = 2 if trial % 2 == 0 else 4
        h = random_trajectory(rng, dim, "interpolated", 0.3, scale=1.5)
        traj = evolve(h, 0.3, policy)
        track = track_action(traj)
        k = traj.index_of(0.15)
        a_plus = action_at(track, float(traj.times[k + 1])).matrix
        a_minus = action_at(track, float(traj.times[k - 1])).matrix
        span = float(traj.times[k + 1] - traj.times[k - 1])
        fd = (a_plus - a_minus) / span
        grad = action_derivative(track, h, float(traj.times[k]))
        assert np.abs(fd - grad).max() < 1e-5, (trial, dim)


# --------------------------------------------------------------- criterion 11


def test_criterion_11_geometric_residual_constant_and_measured():
    # Commuting drives genuinely close their cyclic channels with zero
    # geometric phase.
    rng = np.random.default_rng(1110)
    h_const = constant_hamiltonian(random_hermitian(rng, 3, 1.5))
    result = aa_phase_check(h_const, 1.1, StepPolicy(max_step=1e-3))
    assert result.max_residual < 1e-9

    # A precessing spin does not: the residual is the solid-angle deficit
    # +- pi (1 - cos Theta) of the cone its cyclic states trace.
    a, b, omega = 1.0, 1.3, 2.0
    tau = 2 * np.pi / omega
    g = np.hypot(a, b - omega / 2)
    want = np.pi * (1 - (b - omega / 2) / g)
    spin = aa_phase_check(driven_qubit_trajectory(a, b, omega, tau, 2001), tau)
    np.testing.assert_allclose(
        np.sort(spin.beta_residuals), [-want, want], atol=1e-5
    )
    assert not spin.degenerate.any()

    # Degenerate endpoints are flagged rather than trusted.
    half_turn = aa_phase_check(
        constant_hamiltonian(np.asarray(GATE_X)), np.pi, StepPolicy(max_step=1e-3)
    )
    assert half_turn.degenerate.all()


@pytest.mark.xfail(
    strict=True,
    reason=(
        "cyclic eigenchannels of a generic smooth drive carry nonzero "
        "geometric phase (a precessing spin already shows "
        "+-pi(1 - cos Theta)), so folded residuals below 1e-6 for random "
        "smooth trajectories cannot hold universally"
    ),
)
def test_criterion_11_geometric_residual_vanishing_claim(tmp_path):
    rng = np.random.default_rng(1111)
    results = []
    for trial in range(20):
        dim = 2 if trial % 2 == 0 else 4
        tau = float(rng.uniform(0.6, 0.9))
        h = random_trajectory(rng, dim, "interpolated", tau, scale=1.5)
        results.append((h, tau, aa_phase_check(h, tau)))

    # Serialize the worst offender before asserting, so a failure leaves
    # its evidence on disk.
    h_bad, tau_bad, worst = max(results, key=lambda r: r[2].max_residual)
    evidence = {
        "hamiltonian": hamiltonian_to_json(h_bad),
        "tau": tau_bad,
        "phases": [float(x) for x in worst.phases],
        "alphas": [float(x) for x in worst.alphas],
        "beta_residuals": [float(x) for x in worst.beta_residuals],
        "degenerate": [bool(x) for x in worst.degenerate],
    }
    (tmp_path / "beta_residual_violation.json").write_text(
        json.dumps(evidence, indent=2)
    )

    for _, _, result in results:
        assert result.max_residual < 1e-6


# --------------------------------------------------------------- criterion 12


def test_criterion_12_controlled_and_classical():
    for n in (1, 2, 3):
        assert difficulty_controlled(GATE_X, n).value == pytest.approx(
            np.pi, abs=1e-12
        )

    # The embedded generator reproduces the controlled gate up to a
    # relative phase e^{i(theta/2 - alpha)} on the active block; for X
    # that phase is -1.
    r = difficulty_controlled(GATE_X, 1)
    v = exp_i(r.optimal_hamiltonian * r.duration)
    want = np.eye(4, dtype=complex)
    want[2:, 2:] = -GATE_X
    np.testing.assert_allclose(v, want, atol=1e-8)

    rng = np.random.default_rng(1212)
    u = haar_unitary(rng, 2)
    dec = bloch_decompose(u)
    r_u = difficulty_controlled(u, 1)
    v_u = exp_i(r_u.optimal_hamiltonian * r_u.duration)
    want_u = np.eye(4, dtype=complex)
    want_u[2:, 2:] = np.exp(1j * (dec.theta / 2.0 - dec.alpha)) * u
    np.testing.assert_allclose(v_u, want_u, atol=1e-8)

    assert classical_circuit_effort_bound(
        [{"gate": "CCNOT", "wires": [0, 1, 2]}]
    ) == np.pi
    assert CLASSICAL_GATES["CCNOT"] == (3, np.pi)


# --------------------------------------------------------------- criterion 13


def test_criterion_13_constant_surrogate_action_match():
    # For any drive, the constant Hamiltonian H_c = A(tau)/tau reaches
    # the same action operator at tau, so every initial state's action
    # expectation matches between the drive and its surrogate.
    rng = np.random.default_rng(1313)
    for trial in range(10):
        dim = 2 if trial % 2 == 0 else 4
        kind = "piecewise" if trial < 5 else "interpolated"
        h = random_trajectory(rng, dim, kind, 1.0, scale=1.5)
        traj = evolve(h, 1.0)
        track = track_action(traj)
        tau = float(traj.times[-1])
        a_final = action_at(track, tau).matrix

        h_c = constant_hamiltonian(a_final / tau)
        traj_c = evolve(h_c, tau)
        track_c = track_action(traj_c)
        tau_c = float(traj_c.times[-1])

        for _ in range(5):
            psi0 = random_state(rng, dim)
            direct = action_expectation(track, psi0, tau)
            surrogate = action_expectation(track_c, psi0, tau_c)
            assert abs(direct - surrogate) < 1e-6, (trial, kind, dim)