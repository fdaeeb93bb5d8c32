import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from entroflow.entropyflow import decay_certificate
from entroflow.errors import DomainError, InputError, NumericalError
from entroflow.groupsem import build_ball_semigroup
from entroflow.matcore import trace_norm
from entroflow.qms import (
    _evolved_density,
    _spectral_projection_zero,
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
    # an orthonormal basis of the diagonal matrices, each one Hermitian
    gram = [[np.trace(a.conj().T @ b) for b in inv.hermitian_basis] for a in inv.hermitian_basis]
    assert np.allclose(gram, np.eye(3), atol=1e-12)
    for h in inv.hermitian_basis:
        assert np.allclose(h, np.diag(np.diag(h).real), atol=1e-12)


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


def random_unital_gkls(d, seed):
    """Hamiltonian plus two scaled Haar-unitary jumps: unital, not symmetric."""
    rng = np.random.default_rng(seed)

    def haar():
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return gkls_generator(hamiltonian=h + h.conj().T, jumps=[np.sqrt(0.8) * haar(), np.sqrt(0.5) * haar()])


def cesaro_expectation(gen):
    """Richardson-extrapolated Cesaro mean 2 C(2T) - C(T) of exp(-sL).

    C(T) = (1/T) int_0^T exp(-sL) ds = E + (1/T) L^-1 (1 - exp(-TL)) on
    ran(L), so the extrapolation leaves only exp(-T * rate) terms.
    """
    lmat = gen.heisenberg.matrix
    n = lmat.shape[0]
    w = np.linalg.eigvals(lmat)
    rate = np.abs(w.real)[np.abs(w) > 1e-9 * np.abs(w).max()].min()
    blk = np.zeros((2 * n, 2 * n), dtype=complex)
    blk[:n, :n] = -lmat
    blk[:n, n:] = np.eye(n)

    def mean(horizon):
        return scipy.linalg.expm(blk * horizon)[:n, n:] / horizon

    horizon = 60.0 / rate
    return 2 * mean(2 * horizon) - mean(horizon)


def weighted_eigh_expectation(gen, phi):
    """Kernel projection of the Hermitian weighted implementation g L g^-1."""
    root = scipy.linalg.sqrtm(phi.mat)
    g = np.kron(root.T, np.eye(gen.dim))
    ginv = np.linalg.inv(g)
    l2 = g @ gen.heisenberg.matrix @ ginv
    w, v = np.linalg.eigh((l2 + l2.conj().T) / 2)
    kern = v[:, np.abs(w) <= 1e-10 * max(np.abs(w).max(), 1.0)]
    return ginv @ kern @ kern.conj().T @ g


def random_gkls(d, seed):
    """Hamiltonian plus two Gaussian jumps: a faithful stationary state that is not 1/d."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
    return gkls_generator(hamiltonian=h + h.conj().T, jumps=jumps)


@pytest.mark.parametrize("d, seed, unital", [(2, 11, True), (3, 12, True), (4, 13, True), (3, 14, False)])
def test_fixed_point_matches_cesaro_mean_on_random_gkls(d, seed, unital):
    if unital:
        gen, phi = random_unital_gkls(d, seed), density(np.eye(d) / d)
    else:
        gen = random_gkls(d, seed)
        phi = invariant_states(gen).faithful_state
    assert not is_gns_symmetric(gen, phi)
    fp = fixed_point_expectation(gen, phi)
    assert np.allclose(fp.expectation.matrix, cesaro_expectation(gen), rtol=0, atol=1e-8)


def ball_model(kind):
    ball = build_ball_semigroup(kind, 2, 2)
    return ball.gen, ball.phi


SYMMETRIC_MODELS = {
    "depolarizing-2": lambda: (depolarizing(2), density(np.eye(2) / 2)),
    "depolarizing-3": lambda: (depolarizing(3), density(np.eye(3) / 3)),
    "dephasing": lambda: (dephasing_qubit(), density(np.diag([0.3, 0.7]))),
    "coxeter-2-2": lambda: ball_model("coxeter"),
    "free-2-2": lambda: ball_model("free"),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_MODELS))
def test_fixed_point_matches_weighted_eigh_on_symmetric_models(name):
    gen, phi = SYMMETRIC_MODELS[name]()
    assert is_gns_symmetric(gen, phi)
    fp = fixed_point_expectation(gen, phi)
    ref = weighted_eigh_expectation(gen, phi)
    assert np.allclose(fp.expectation.matrix, ref, rtol=0, atol=1e-10)


def test_schur_generator_rejects_a_complex_symbol():
    with pytest.raises(InputError, match="real"):
        schur_generator(np.array([[0, 1 + 0.7j], [1 - 0.7j, 0]]))
    gen = schur_generator(np.array([[0, 1 + 0j], [1 + 0j, 0]]))
    assert np.array_equal(gen.symbol, [[0.0, 1.0], [1.0, 0.0]])


def test_stationary_structure_takes_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    gen = random_unital_gkls(3, 12)
    fixed_point_expectation(gen, density(np.eye(3) / 3))
    assert calls == [(9, 9)]
    calls.clear()
    invariant_states(gen)
    assert calls == [(9, 9)]


@pytest.mark.parametrize(
    "make",
    [lambda: random_gkls(3, 14), lambda: build_ball_semigroup("coxeter", 2, 2).gen],
    ids=["gkls-d3", "schur-ball-coxeter-2-2"],
)
def test_generator_keeps_nothing_but_its_fields(make):
    gen = make()
    fields = {f.name for f in dataclasses.fields(gen)}
    phi = invariant_states(gen).faithful_state
    rho = random_state(gen.dim, 3)
    gen.semigroup(0.4)
    evolve(gen, rho, 0.4)
    evolve(gen, rho, 1.1 * action_limit(gen))
    fixed_point_expectation(gen, phi)
    decay_certificate(gen, phi, 0.1, [rho], t_grid=[0.2, 0.4])
    assert set(vars(gen)) == fields


def test_spectral_projection_zero_rejects_defective_and_empty_kernels():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericalError, match="defective"):
        _spectral_projection_zero(jordan, "no kernel")
    with pytest.raises(NumericalError, match="no kernel"):
        _spectral_projection_zero(np.eye(2), "no kernel")
    proj, kern = _spectral_projection_zero(np.diag([0.0, 1.0]), "no kernel")
    assert np.allclose(proj, np.diag([1.0, 0.0]), atol=1e-15)
    assert kern.shape == (2, 1)


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


def random_state(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return density(m / np.trace(m).real)


def action_limit(gen):
    """The time up to which evolve applies the exponential to the state alone."""
    m = gen.schroedinger.matrix
    return m.shape[0] / np.abs(m).sum(axis=0).max()


EVOLVE_MODELS = {
    **{f"unital-gkls-d{d}": (lambda d=d: random_unital_gkls(d, 40 + d)) for d in (2, 4, 8, 16)},
    "gkls-d3": lambda: random_gkls(3, 14),
    "schur-ball-coxeter-2-2": lambda: build_ball_semigroup("coxeter", 2, 2).gen,
}


def propagated(gen, rho, t):
    """exp(-t L_*) rho through the propagator, after evolve's postconditions."""
    return _evolved_density(rho, gen.presemigroup(t).apply(rho.mat))


@pytest.mark.parametrize("name", sorted(EVOLVE_MODELS))
def test_evolve_action_route_matches_the_propagator(name, expm_calls):
    """Seeded differential test of evolve's action route against the propagator.

    Below the limit the two routes sum exp(-t L_*) rho in different orders;
    both are accurate to rounding, and the states (trace one) must agree
    entrywise within 1e-13.  Above it evolve applies the propagator, bit for
    bit, and only there exponentiates a dense L_* in full.
    """
    gen = EVOLVE_MODELS[name]()
    dense = gen.schroedinger.kernel is None
    rho = random_state(gen.dim, gen.dim)
    limit = action_limit(gen)
    for t in (0.0, 0.9 * limit):
        out = evolve(gen, rho, t)
        assert expm_calls == []
        assert np.abs(out.mat - propagated(gen, rho, t).mat).max() <= 1e-13
        expm_calls.clear()
    out = evolve(gen, rho, 1.1 * limit)
    assert len(expm_calls) == dense
    assert np.array_equal(out.mat, propagated(gen, rho, 1.1 * limit).mat)


def test_evolve_takes_a_schur_generator_entrywise(monkeypatch):
    """Below the limit a diagonal L_* is exponentiated entrywise, as the propagator is."""
    calls = []
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", lambda *a, **k: calls.append(a))
    gen = build_ball_semigroup("free", 2, 2).gen
    rho = random_state(gen.dim, 5)
    assert action_limit(gen) > 71.5
    for t in (36.0, 71.5):
        assert np.array_equal(evolve(gen, rho, t).mat, propagated(gen, rho, t).mat)
    assert calls == []


def test_evolve_checks_time_and_dimension():
    gen = depolarizing(2)
    with pytest.raises(DomainError):
        evolve(gen, random_state(2, 1), -0.1)
    with pytest.raises(InputError):
        evolve(gen, random_state(3, 1), 0.1)
