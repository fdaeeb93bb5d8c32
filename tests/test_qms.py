import numpy as np
import pytest

from entroflow.errors import DomainError, InputError
from entroflow.matcore import trace_norm
from entroflow.qms import (
    evolve,
    fixed_point_expectation,
    gkls_generator,
    gns_symmetry_residual,
    invariant_states,
    is_gns_symmetric,
    raw_generator,
    schur_generator,
    spectral_gap,
)
from entroflow.statespace import density, sandwich_bound


def depolarizing(d):
    """Jump set {E_ij / sqrt(d)}; Heisenberg L(x) = x - tr(x)/d."""
    jumps = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0 / np.sqrt(d)
            jumps.append(e)
    return gkls_generator(jumps=jumps)


def dephasing_qubit():
    return schur_generator(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_gkls_unital_and_adjoint_pair():
    g = np.array([[0, 1], [0, 0]], dtype=complex)  # amplitude damping jump
    gen = gkls_generator(jumps=[g])
    assert np.allclose(gen.heisenberg.apply(np.eye(2)), 0.0, atol=1e-12)
    assert np.allclose(gen.heisenberg.matrix.conj().T, gen.schroedinger.matrix)
    # Schroedinger side preserves trace of everything
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert abs(np.trace(gen.schroedinger.apply(x))) < 1e-12


def test_depolarizing_evolution_closed_form():
    gen = depolarizing(2)
    rho = density(np.diag([0.9, 0.1]))
    for t in (0.0, 0.3, 1.7):
        out = evolve(gen, rho, t)
        expect = np.exp(-t) * rho.mat + (1 - np.exp(-t)) * np.eye(2) / 2
        assert np.allclose(out.mat, expect, atol=1e-12)


def test_schur_dephasing_closed_form():
    gen = dephasing_qubit()
    rho = density(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
    out = evolve(gen, rho, 0.8)
    expect = rho.mat * np.array([[1, np.exp(-0.8)], [np.exp(-0.8), 1]])
    assert np.allclose(out.mat, expect, atol=1e-12)


def test_schur_symbol_validation():
    with pytest.raises(InputError):
        schur_generator(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(InputError):
        schur_generator(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(InputError):
        schur_generator(np.array([[0.0, 1.0], [2.0, 0.0]]))
    # symmetric, nonnegative, zero diagonal, but the Gaussian kernel is not PSD
    bad = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    with pytest.raises(InputError):
        schur_generator(bad)


def test_raw_rejects_transpose_map():
    d = 2
    swap = np.zeros((4, 4))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    # L = id - transpose: unital, Hermiticity preserving, but exp(-tL) is not CP
    with pytest.raises(InputError):
        raw_generator(np.eye(4) - swap)


def test_raw_accepts_genuine_generator():
    gen = depolarizing(2)
    raw = raw_generator(gen.heisenberg.matrix)
    rho = density(np.diag([0.7, 0.3]))
    assert np.allclose(evolve(raw, rho, 0.5).mat, evolve(gen, rho, 0.5).mat, atol=1e-12)


def test_invariant_states_depolarizing():
    inv = invariant_states(depolarizing(3))
    assert len(inv.hermitian_basis) == 1
    assert inv.faithful_exists
    assert np.allclose(inv.faithful_state.mat, np.eye(3) / 3, atol=1e-10)
    assert len(inv.basis) == 1
    assert np.allclose(inv.basis[0].mat, np.eye(3) / 3, atol=1e-10)


def test_invariant_states_schur_diagonal():
    # strictly positive off-diagonal symbol: invariant states = all diagonal states
    psi = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    inv = invariant_states(schur_generator(psi))
    assert len(inv.hermitian_basis) == 3
    assert inv.faithful_exists


def test_invariant_states_amplitude_damping_not_faithful():
    gen = gkls_generator(jumps=[np.array([[0, 1], [0, 0]], dtype=complex)])
    inv = invariant_states(gen)
    assert not inv.faithful_exists
    assert len(inv.hermitian_basis) == 1
    assert np.allclose(inv.basis[0].mat, np.diag([1.0, 0.0]), atol=1e-10)


def test_gns_symmetry_classification():
    phi = density(np.eye(2) / 2)
    assert gns_symmetry_residual(depolarizing(2), phi) < 1e-10
    assert gns_symmetry_residual(dephasing_qubit(), density(np.diag([0.3, 0.7]))) < 1e-10
    damping = gkls_generator(jumps=[np.array([[0, 1], [0, 0]], dtype=complex)])
    assert gns_symmetry_residual(damping, phi) > 0.01


def test_spectral_gap_depolarizing_is_one():
    phi = density(np.eye(2) / 2)
    assert abs(spectral_gap(depolarizing(2), phi) - 1.0) < 1e-10


def test_spectral_gap_schur_min_positive_entry():
    psi = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 5.0], [3.0, 5.0, 0.0]])
    phi = density(np.eye(3) / 3)
    assert abs(spectral_gap(schur_generator(psi), phi) - 2.0) < 1e-10


def test_spectral_gap_requires_symmetry():
    damping = gkls_generator(jumps=[np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(DomainError):
        spectral_gap(damping, density(np.eye(2) / 2))


def test_fixed_point_expectation_depolarizing():
    gen = depolarizing(2)
    phi = density(np.eye(2) / 2)
    fp = fixed_point_expectation(gen, phi)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(fp.expectation.apply(x), np.trace(x) / 2 * np.eye(2), atol=1e-10)
    rho = density(np.diag([0.9, 0.1]))
    assert np.allclose(fp.project_state(rho).mat, np.eye(2) / 2, atol=1e-10)


def test_fixed_point_expectation_schur_is_diagonal_pinch():
    psi = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    gen = schur_generator(psi)
    phi = density(np.diag([0.5, 0.3, 0.2]))
    fp = fixed_point_expectation(gen, phi)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(fp.expectation.apply(x), np.diag(np.diag(x)), atol=1e-10)


def test_fixed_point_expectation_cesaro_route():
    # generic non-symmetric primitive semigroup: E(x) = tr(phi x) * 1
    jump = np.array([[0.3, 1.1], [0.4, -0.2]], dtype=complex)
    jump2 = np.array([[0.0, 0.2], [0.9, 0.1]], dtype=complex)
    gen = gkls_generator(hamiltonian=np.array([[0.5, 0.2], [0.2, -0.1]]), jumps=[jump, jump2])
    inv = invariant_states(gen)
    assert inv.faithful_exists
    phi = inv.faithful_state
    assert not is_gns_symmetric(gen, phi)
    fp = fixed_point_expectation(gen, phi)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(
        fp.expectation.apply(x), np.trace(phi.mat @ x) * np.eye(2), atol=1e-8
    )


def test_fixed_point_expectation_requires_invariant_phi():
    gen = depolarizing(2)
    with pytest.raises(DomainError):
        fixed_point_expectation(gen, density(np.diag([0.9, 0.1])))


def test_evolution_preserves_sandwich_order():
    gen = depolarizing(2)
    sigma = density(np.eye(2) / 2)
    rho = density(np.diag([0.8, 0.2]))
    alpha = 2.5
    assert sandwich_bound(rho, sigma, alpha).ok
    for t in (0.2, 1.0, 3.0):
        assert sandwich_bound(evolve(gen, rho, t), sigma, alpha + 1e-8).ok


def test_long_time_convergence_to_fixed_point():
    for gen, phi in (
        (depolarizing(2), density(np.eye(2) / 2)),
        (dephasing_qubit(), density(np.diag([0.6, 0.4]))),
    ):
        gap = spectral_gap(gen, phi)
        fp = fixed_point_expectation(gen, phi)
        rho = density(np.array([[0.7, 0.25], [0.25, 0.3]], dtype=complex))
        far = evolve(gen, rho, 50.0 / gap)
        assert trace_norm(far.mat - fp.project_state(rho).mat) <= 1e-6
