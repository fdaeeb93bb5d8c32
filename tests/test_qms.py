import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from entroflow import qms
from entroflow.entropyflow import decay_certificate
from entroflow.errors import DomainError, InputError, NumericalError
from entroflow.groupsem import build_ball_semigroup
from entroflow.matcore import trace_norm, unvec, vec
from entroflow.qms import (
    _evolve_along,
    _evolved_density,
    _fixed_point_projection,
    _spectral_projection_zero,
    evolve,
    fixed_point_expectation,
    gkls_generator,
    gns_symmetry_residual,
    invariant_states,
    raw_generator,
    schur_generator,
    spectral_gap,
)
from entroflow.statespace import balpha_factor, density


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
    phi = invariant_states(depolarizing(3))
    assert phi is not None
    assert np.allclose(phi.mat, np.eye(3) / 3, atol=1e-10)


def test_invariant_states_schur_diagonal():
    # strictly positive off-diagonal symbol: invariant states = all diagonal states
    psi = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    gen = schur_generator(psi)
    phi = invariant_states(gen)
    assert phi is not None
    assert np.allclose(phi.mat, np.eye(3) / 3, atol=1e-12)
    # E_* keeps the diagonal of every matrix and kills the rest, entrywise
    e_star = _fixed_point_projection(gen.heisenberg).adjoint()
    assert e_star.kernel is not None
    x = np.random.default_rng(5).normal(size=(3, 3))
    assert np.array_equal(e_star.apply(x), np.diag(np.diag(x)).astype(complex))


def test_invariant_states_amplitude_damping_not_faithful():
    gen = gkls_generator(jumps=[np.array([[0, 1], [0, 0]], dtype=complex)])
    assert invariant_states(gen) is None
    # the one invariant state is the pure ground state
    mean = _fixed_point_projection(gen.heisenberg).adjoint().apply(np.eye(2) / 2)
    assert np.allclose(mean, np.diag([1.0, 0.0]), atol=1e-10)


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


def detailed_balance_qutrit(seed):
    """Jumps sqrt(r_ij) E_ij with phi_j r_ij = phi_i r_ji: phi-symmetric for a random, non-uniform diagonal phi."""
    rng = np.random.default_rng(seed)
    p = 0.8 * rng.dirichlet(np.ones(3)) + 0.2 / 3
    s = rng.uniform(0.5, 1.5, size=(3, 3))
    jumps = []
    for i in range(3):
        for j in range(3):
            if i != j:
                e = np.zeros((3, 3), dtype=complex)
                e[i, j] = np.sqrt((s[i, j] + s[j, i]) / 2 * np.sqrt(p[i] / p[j]))
                jumps.append(e)
    return gkls_generator(jumps=jumps), density(np.diag(p).astype(complex))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_gap_matches_the_kron_weighted_implementation(seed):
    gen, phi = detailed_balance_qutrit(seed)
    assert len(set(np.round(np.diag(phi.mat).real, 6))) == 3
    assert gns_symmetry_residual(gen, phi) <= 1e-12
    # oracle: g L g^-1 with g = kron((phi^1/2)^T, 1) built as dense krons
    w, v = np.linalg.eigh(phi.mat)
    root = (v * np.sqrt(w)) @ v.conj().T
    root_inv = (v / np.sqrt(w)) @ v.conj().T
    eye = np.eye(3)
    l2 = np.kron(root.T, eye) @ gen.heisenberg.matrix @ np.kron(root_inv.T, eye)
    spec = np.linalg.eigvalsh((l2 + l2.conj().T) / 2)
    oracle = spec[np.abs(spec) > 1e-10 * np.abs(spec).max()].min()
    assert spectral_gap(gen, phi) == pytest.approx(oracle, rel=1e-12)


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
    phi = invariant_states(gen)
    assert phi is not None
    assert gns_symmetry_residual(gen, phi) > 1e-8
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
        phi = invariant_states(gen)
    assert gns_symmetry_residual(gen, phi) > 1e-8
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
    assert gns_symmetry_residual(gen, phi) <= 1e-8
    fp = fixed_point_expectation(gen, phi)
    ref = weighted_eigh_expectation(gen, phi)
    assert np.allclose(fp.expectation.matrix, ref, rtol=0, atol=1e-10)


def test_schur_generator_rejects_a_complex_symbol():
    with pytest.raises(InputError, match="real"):
        schur_generator(np.array([[0, 1 + 0.7j], [1 - 0.7j, 0]]))
    gen = schur_generator(np.array([[0, 1 + 0j], [1 + 0j, 0]]))
    assert np.array_equal(gen.heisenberg.kernel, [[0.0, 1.0], [1.0, 0.0]])


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


def hermitian_frame_invariant_state(gen):
    """Oracle: E_*(1/d) by the frame route, or None if it is not faithful.

    In a trace-orthonormal basis of Hermitian matrices (column j*d+i
    from E_ij: E_ii, (E_ij + E_ji)/sqrt(2) for i < j, i(E_ij - E_ji)/sqrt(2)
    for i > j), L_* is a real d^2 x d^2 matrix; its spectral projection
    at 0, from a real SVD, carries 1/d to the faithful mean.
    """
    d = gen.dim
    frame = np.zeros((d * d, d * d), dtype=complex)
    r = 1 / np.sqrt(2)
    for i in range(d):
        for j in range(d):
            c, c_t = j * d + i, i * d + j
            if i == j:
                frame[c, c] = 1.0
            elif i < j:
                frame[c, c] = frame[c_t, c] = r
            else:
                frame[c, c], frame[c_t, c] = 1j * r, -1j * r
    l_real = (frame.conj().T @ gen.schroedinger.matrix @ frame).real
    mean = unvec(frame @ (_spectral_projection_zero(l_real) @ vec(np.eye(d) / d)), d)
    if np.linalg.eigvalsh(mean)[0] <= 1e-10:
        return None
    return mean / np.trace(mean).real


FRAME_MODELS = {
    **{f"unital-d{d}": (lambda d=d: random_unital_gkls(d, 30 + d)) for d in range(2, 7)},
    **{f"gkls-d{d}": (lambda d=d: random_gkls(d, 40 + d)) for d in range(2, 7)},
    "coxeter-2-2": lambda: build_ball_semigroup("coxeter", 2, 2).gen,
    "amplitude-damping": lambda: gkls_generator(jumps=[np.array([[0, 1], [0, 0]], dtype=complex)]),
}


@pytest.mark.parametrize("name", list(FRAME_MODELS))
def test_invariant_state_matches_the_hermitian_frame_route(name):
    gen = FRAME_MODELS[name]()
    phi = invariant_states(gen)
    ref = hermitian_frame_invariant_state(gen)
    if name == "amplitude-damping":
        assert phi is None and ref is None
        return
    assert np.abs(phi.mat - ref).max() <= 1e-12


def test_invariant_state_of_a_large_ball_stays_on_its_kernel():
    """free(2) radius 3 (d = 53): no d^2 x d^2 array, which alone would take 126 MB."""
    gen = build_ball_semigroup("free", 2, 3).gen
    tracemalloc.start()
    try:
        phi = invariant_states(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    assert np.allclose(phi.mat, np.eye(53) / 53, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "make",
    [lambda: random_gkls(3, 14), lambda: build_ball_semigroup("coxeter", 2, 2).gen],
    ids=["gkls-d3", "schur-ball-coxeter-2-2"],
)
def test_generator_keeps_nothing_but_its_fields(make):
    gen = make()
    fields = {f.name for f in dataclasses.fields(gen)}
    phi = invariant_states(gen)
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
        _spectral_projection_zero(jordan)
    with pytest.raises(NumericalError, match="no fixed points"):
        _spectral_projection_zero(np.eye(2))
    proj = _spectral_projection_zero(np.diag([0.0, 1.0]))
    assert np.allclose(proj, np.diag([1.0, 0.0]), atol=1e-15)


def test_fixed_point_expectation_requires_invariant_phi():
    gen = depolarizing(2)
    with pytest.raises(DomainError):
        fixed_point_expectation(gen, density(np.diag([0.9, 0.1])))


def test_evolution_preserves_sandwich_order():
    gen = depolarizing(2)
    sigma = density(np.eye(2) / 2)
    rho = density(np.diag([0.8, 0.2]))
    alpha = 2.5
    assert balpha_factor(rho, sigma) <= alpha + 1e-9
    for t in (0.2, 1.0, 3.0):
        assert balpha_factor(evolve(gen, rho, t), sigma) <= alpha + 1e-8 + 1e-9


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


FLOWS_GRID = np.linspace(0.05, 2.0, 24)

CHAIN_MODELS = {
    "unital-gkls-d4": lambda: random_unital_gkls(4, 44),
    "unital-gkls-d8": lambda: random_unital_gkls(8, 48),
    "schur-ball-coxeter-2-2": lambda: build_ball_semigroup("coxeter", 2, 2).gen,
    "depolarizing-d2": lambda: depolarizing(2),
}


@pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
def test_evolve_along_matches_per_time_evolve(name):
    """Seeded differential test of the chained evolution against evolve from rho0.

    On the debruijn grid of the benchmark's flows jobs and its +-1e-4
    points, every chained state agrees with a fresh evolve within 1e-12
    (relative, Frobenius), in the caller's order.
    """
    gen = CHAIN_MODELS[name]()
    rho = random_state(gen.dim, gen.dim + 1)
    times = np.concatenate([FLOWS_GRID, FLOWS_GRID + 1e-4, FLOWS_GRID - 1e-4])[::-1]
    for t, state in zip(times, _evolve_along(gen, rho, times)):
        want = evolve(gen, rho, t).mat
        assert np.linalg.norm(state.mat - want) <= 1e-12 * np.linalg.norm(want)


RUN_GRIDS = {
    "flows": FLOWS_GRID,
    "flows-shifted": FLOWS_GRID - 1e-4,
    "from-zero": np.linspace(0.0, 3.0, 12),
    "late": np.linspace(10.0, 10.2, 5),
}


@pytest.mark.parametrize("grid", sorted(RUN_GRIDS))
@pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
def test_evolve_along_runs_match_per_time_evolve(monkeypatch, name, grid):
    """Seeded differential test of evenly spaced runs against evolve from rho0.

    Each grid is evolved in runs, and every state agrees with a fresh
    evolve within 1e-12 (relative, Frobenius).  The late grid guards the
    start of a run: it is stepped to 10 first and then run from offset 0,
    where a run started at offset 10 would be off by orders of magnitude.
    """
    route = qms._propagated
    nums = []

    def counted(*args):
        nums.append(args[4] if len(args) > 4 else 1)
        return route(*args)

    monkeypatch.setattr(qms, "_propagated", counted)
    gen = CHAIN_MODELS[name]()
    rho = random_state(gen.dim, gen.dim + 2)
    times = RUN_GRIDS[grid]
    for t, state in zip(times, _evolve_along(gen, rho, times)):
        want = evolve(gen, rho, t).mat
        assert np.linalg.norm(state.mat - want) <= 1e-12 * np.linalg.norm(want)
    assert max(nums) > 1  # the grid went through at least one run


def test_uneven_grid_is_a_chain_of_single_steps(monkeypatch):
    route = qms._propagated
    steps = []

    def counted(*args):
        steps.append((args[2], args[4] if len(args) > 4 else 1))
        return route(*args)

    monkeypatch.setattr(qms, "_propagated", counted)
    _evolve_along(depolarizing(2), random_state(2, 6), [2.0, 0.1, 1.0, 0.5])
    assert [n for _, n in steps] == [1, 1, 1, 1]
    assert [t for t, _ in steps] == pytest.approx([0.1, 0.4, 0.5, 1.0])


def test_run_is_cut_where_it_would_leave_the_action_route(monkeypatch, expm_calls):
    route = qms._propagated
    spans = []

    def counted(*args):
        spans.append(args[2])
        return route(*args)

    monkeypatch.setattr(qms, "_propagated", counted)
    gen = depolarizing(2)
    limit = action_limit(gen)
    times = np.linspace(0.0, 3.5 * limit, 15)
    rho = random_state(2, 7)
    states = _evolve_along(gen, rho, times)
    assert 1 < len(spans) < 14 and max(spans) <= limit and expm_calls == []
    for t, state in zip(times, states):
        want = evolve(gen, rho, t).mat
        assert np.linalg.norm(state.mat - want) <= 1e-12 * np.linalg.norm(want)


def test_evolve_along_checks_every_trace_against_rho0(monkeypatch):
    """A route that gains 6e-11 of trace per step passes one evolve, not a chain of two."""
    route = qms._propagated
    steps = []

    def leaky(*args):
        steps.append(args[2])
        return route(*args) * (1 + 6e-11)

    monkeypatch.setattr(qms, "_propagated", leaky)
    gen = depolarizing(2)
    rho = random_state(2, 3)
    evolve(gen, rho, 0.2)
    steps.clear()
    with pytest.raises(NumericalError, match="trace"):
        _evolve_along(gen, rho, [0.1, 0.2, 0.3])
    assert len(steps) == 2


@pytest.mark.parametrize("bad, error", [(-0.1, DomainError), (np.nan, InputError), (np.inf, InputError)])
def test_evolve_along_checks_times_before_any_exponential(monkeypatch, bad, error):
    calls = []
    monkeypatch.setattr(qms, "_propagated", lambda *args: calls.append(args))
    gen = depolarizing(2)
    with pytest.raises(error):
        _evolve_along(gen, random_state(2, 1), [0.5, bad, 0.1])
    with pytest.raises(InputError):
        _evolve_along(gen, random_state(3, 1), [0.1])
    assert calls == []


def test_evolve_along_shares_repeated_times_and_starts_at_rho0():
    gen = depolarizing(2)
    rho = random_state(2, 4)
    a, b, c, zero = _evolve_along(gen, rho, [0.3, 0.1, 0.3, 0.0])
    assert a is c and zero is rho
    assert np.array_equal(b.mat, evolve(gen, rho, 0.1).mat)


def state_with_least_eigenvalue(lo, seed, d=4):
    """A Hermitian matrix of trace 1 whose least eigenvalue is lo, in a random basis."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    w = np.concatenate([[lo], rng.dirichlet(np.ones(d - 1)) * (1 - lo)])
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2


def test_evolved_stack_clamps_each_state_alone_and_checks_each_trace(caplog):
    """evolve's postconditions on a hand-built stack: one state is clamped, the others keep their bits."""
    good = [random_state(4, s).mat for s in (31, 32)]
    low = state_with_least_eigenvalue(-5e-10, 33)
    stack = np.array([good[0], low, good[1]])
    traces = [np.trace(m).real for m in stack]
    with caplog.at_level("WARNING", logger="entroflow.matcore"):
        mats, w, v, tr = qms._evolved_spectra(traces, stack)
    assert len(caplog.records) == 1 and "evolved state" in caplog.records[0].getMessage()
    assert w[1, 0] >= -1e-15 and not np.array_equal(mats[1], low)
    for k, m in ((0, good[0]), (2, good[1])):
        alone = density(m)
        assert np.array_equal(mats[k], alone.mat)
        assert np.array_equal(w[k], alone.op.spectrum.eigenvalues)
        assert np.array_equal(v[k], alone.op.spectrum.eigenvectors)
    # the densities of a stack keep those spectra and match one-state calls bit for bit
    rho = density(good[0])
    states = _evolved_density(rho, stack[[0, 2]])
    assert [s.op.spectrum.eigenvalues.tobytes() for s in states] == [w[0].tobytes(), w[2].tobytes()]
    assert np.array_equal(_evolved_density(rho, stack[2]).mat, states[1].mat)

    with pytest.raises(NumericalError, match="positivity"):
        qms._evolved_spectra(1.0, np.array([good[0], state_with_least_eigenvalue(-2e-9, 34)]))
    with pytest.raises(NumericalError, match="trace"):
        qms._evolved_spectra([1.0, 1.0], np.array([good[0], good[1] * (1 + 1e-9)]))


def test_evolved_stack_past_the_entry_budget_is_cut_with_the_same_bits(monkeypatch):
    rho = random_state(4, 35)
    stack = np.array([random_state(4, s).mat for s in range(36, 41)])
    eigh = np.linalg.eigh
    sizes = []

    def counted(a):
        sizes.append(len(a))
        return eigh(a)

    monkeypatch.setattr(qms, "_STACK_ENTRIES", 2 * 16)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    cut = _evolved_density(rho, stack)
    assert sizes == [2, 2, 1]
    assert [s.mat.tobytes() for s in cut] == [_evolved_density(rho, m).mat.tobytes() for m in stack]
    assert [s.op.spectrum.eigenvectors.tobytes() for s in cut] == [
        _evolved_density(rho, m).op.spectrum.eigenvectors.tobytes() for m in stack
    ]
