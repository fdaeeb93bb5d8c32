"""Pinching expectations, entropy chain rules, martingale structure."""

import tracemalloc

import numpy as np
import pytest

from entroflow import subalg
from entroflow.errors import DomainError, InputError
from entroflow.groupsem import build_ball_semigroup
from entroflow.matcore import SuperOperator, conjugation_super, unvec, vec
from entroflow.qms import Generator, gkls_generator, schur_generator
from entroflow.statespace import density, rel_entropy
from entroflow.subalg import (
    chain_rule_check,
    conditional_expectation,
    entropy_extension_check,
    martingale_entropy_check,
    pinch_state,
    rel_hamiltonian_projection_check,
    subalgebra,
)


def random_state(d, seed, mix=0.3):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return density((1 - mix) * m + mix * np.eye(d) / d)


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_diag_state(weights, blocks, seed):
    mats = []
    for k, (w, b) in enumerate(zip(weights, blocks)):
        s = random_state(b, seed + k).mat if b > 1 else np.ones((1, 1), dtype=complex)
        mats.append(w * s)
    d = sum(blocks)
    out = np.zeros((d, d), dtype=complex)
    start = 0
    for b, m in zip(blocks, mats):
        out[start : start + b, start : start + b] = m
        start += b
    return density(out)


def test_subalgebra_validation():
    with pytest.raises(InputError):
        subalgebra(())
    with pytest.raises(InputError):
        subalgebra((2, 0))
    with pytest.raises(InputError):
        subalgebra((2, 2), unitary=np.ones((4, 4)))
    with pytest.raises(InputError):
        subalgebra((2, 2), unitary=np.eye(3))


def test_pinching_kills_off_blocks_and_is_projection():
    spec = subalgebra((2, 2))
    pinch = conditional_expectation(spec)
    x = np.arange(16, dtype=complex).reshape(4, 4)
    y = pinch.apply(x)
    assert np.array_equal(y[:2, :2], x[:2, :2])
    assert np.array_equal(y[2:, 2:], x[2:, 2:])
    assert np.all(y[:2, 2:] == 0) and np.all(y[2:, :2] == 0)
    assert np.allclose((pinch @ pinch).matrix, pinch.matrix)
    assert np.allclose(pinch.apply(np.eye(4, dtype=complex)), np.eye(4))
    assert np.allclose(pinch.matrix, pinch.adjoint().matrix)


def test_pinching_compatibility_check():
    spec = subalgebra((2, 2))
    good = block_diag_state((0.6, 0.4), (2, 2), seed=0)
    conditional_expectation(spec, phi=good)
    bad = random_state(4, seed=1)
    with pytest.raises(DomainError):
        conditional_expectation(spec, phi=bad)


def test_pinch_state_is_density():
    spec = subalgebra((1, 3))
    rho = random_state(4, seed=2)
    out = pinch_state(spec, rho)
    assert out.trace == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out.mat)[0] >= -1e-12


def test_extension_entropy_two_plus_two_blocks():
    spec = subalgebra((2, 2))
    check = entropy_extension_check(spec, random_state(4, 5), random_state(4, 6))
    assert check.residual < 1e-9
    assert np.isfinite(check.joint)


def test_extension_entropy_rotated_blocks():
    u = random_unitary(5, seed=7)
    spec = subalgebra((2, 3), unitary=u)
    check = entropy_extension_check(spec, random_state(5, 8), random_state(5, 9))
    assert check.residual <= 1e-9


def test_extension_entropy_support_mismatch_is_infinite_both_ways():
    spec = subalgebra((2, 2))
    rho = density(np.eye(4, dtype=complex) / 4)
    sigma = density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    check = entropy_extension_check(spec, rho, sigma)
    assert check.joint == np.inf
    assert check.blockwise == np.inf
    assert check.residual <= 1e-9


def test_projection_identities_exact():
    spec = subalgebra((2, 2))
    sigma = block_diag_state((0.55, 0.45), (2, 2), seed=11)
    check = rel_hamiltonian_projection_check(spec, random_state(4, 12), sigma)
    assert check.orthogonality < 1e-10
    assert check.chain_residual < 1e-10


def test_projection_identities_rotated():
    u = random_unitary(4, seed=13)
    spec = subalgebra((2, 2), unitary=u)
    sigma_mat = u @ block_diag_state((0.5, 0.5), (2, 2), seed=14).mat @ u.conj().T
    check = rel_hamiltonian_projection_check(spec, random_state(4, 15), density(sigma_mat))
    assert max(check.orthogonality, check.chain_residual) <= 1e-10


def test_projection_identities_need_compatible_sigma():
    spec = subalgebra((2, 2))
    with pytest.raises(DomainError):
        rel_hamiltonian_projection_check(spec, random_state(4, 16), random_state(4, 17))


def test_martingale_entropies_increase():
    specs = [subalgebra((1, 1, 1, 1)), subalgebra((2, 2))]
    rho = random_state(4, 20)
    sigma = density(np.diag([0.4, 0.25, 0.2, 0.15]).astype(complex))
    rep = martingale_entropy_check(specs, rho, sigma)
    assert rep.max_violation <= 1e-10
    assert rep.entropies[0] <= rep.entropies[1] <= rep.limit + 1e-12
    assert rep.limit == pytest.approx(rel_entropy(rho, sigma), abs=1e-12)


def test_martingale_rejects_non_nested():
    with pytest.raises(InputError):
        martingale_entropy_check(
            [subalgebra((2, 2)), subalgebra((1, 3))],
            random_state(4, 21),
            density(np.eye(4, dtype=complex) / 4),
        )
    with pytest.raises(InputError):
        martingale_entropy_check(
            [subalgebra((2, 2)), subalgebra((1, 1, 1, 1))],
            random_state(4, 22),
            density(np.eye(4, dtype=complex) / 4),
        )


def test_martingale_rejects_a_level_of_another_dimension_before_pinching(monkeypatch):
    """A level's pinching is a d^2 x d^2 array, so its dimension is checked first."""

    def unreachable(*args, **kwargs):
        raise AssertionError("pinching built before the dimension check")

    monkeypatch.setattr(subalg, "conditional_expectation", unreachable)
    with pytest.raises(InputError, match="dimensions"):
        martingale_entropy_check(
            [subalgebra((1, 1, 1, 1)), subalgebra((2, 3))],
            random_state(4, 24),
            density(np.eye(4, dtype=complex) / 4),
        )


def depolarizing(d):
    jumps = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0 / np.sqrt(d)
            jumps.append(e)
    return gkls_generator(jumps=jumps, dim=d)


def test_chain_rule_resolvent_defect_decays():
    gen = depolarizing(2)
    psi = density(np.diag([0.8, 0.2]).astype(complex))
    r10 = chain_rule_check(gen, psi, n=10)
    r100 = chain_rule_check(gen, psi, n=100)
    r400 = chain_rule_check(gen, psi, n=400)
    assert r10.residual > 0
    assert r100.residual < r10.residual / 4
    assert r400.residual < 2e-3
    # defect scales like 1/n
    assert 3.0 < r100.residual / r400.residual < 5.0
    assert r400.regularized.trace == pytest.approx(1.0, abs=1e-10)


def test_chain_rule_exact_for_pinched_state():
    gen = schur_generator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    psi = random_state(2, 23)
    pinched = pinch_state(subalgebra((1, 1)), psi)
    rep = chain_rule_check(gen, psi, psi_n=pinched)
    assert abs(rep.residual) < 1e-12


def test_chain_rule_needs_faithful_invariant():
    damping = gkls_generator(jumps=[np.array([[0, 1], [0, 0]], dtype=complex)], dim=2)
    with pytest.raises(DomainError):
        chain_rule_check(damping, density(np.eye(2, dtype=complex) / 2))


@pytest.mark.parametrize("blocks", [(1,), (2, 2), (1, 3, 2), (1, 1, 1, 1, 1)])
def test_block_pinching_is_the_conjugation_sum(blocks):
    """Seeded differential test of the 0/1 Schur pinching against sum_B P_B x P_B."""
    spec = subalgebra(blocks)
    pinch = conditional_expectation(spec)
    dense = sum(conjugation_super(p).matrix for p in spec.projectors())
    assert pinch.kernel is not None
    assert np.array_equal(pinch.matrix, dense)
    x = random_state(spec.dim, 30).mat + 1j * np.arange(spec.dim**2).reshape(spec.dim, spec.dim)
    assert np.array_equal(pinch.apply(x), unvec(dense @ vec(x), spec.dim))
    rotated = conditional_expectation(subalgebra(blocks, unitary=random_unitary(spec.dim, 31)))
    assert rotated.kernel is None


def test_block_pinching_checks_build_no_matrix(monkeypatch):
    """The pinching, nesting and martingale checks stay on the d x d kernels."""
    matrix = SuperOperator.matrix

    def dense_only(self):
        assert self.kernel is None, "a Schur pinching was materialized"
        return matrix.fget(self)

    monkeypatch.setattr(SuperOperator, "matrix", property(dense_only))
    sigma = density(np.diag([0.4, 0.25, 0.2, 0.15]).astype(complex))
    rep = martingale_entropy_check([subalgebra((1, 1, 1, 1)), subalgebra((2, 2))], random_state(4, 32), sigma)
    assert rep.max_violation <= 1e-10
    check = rel_hamiltonian_projection_check(subalgebra((2, 2)), random_state(4, 33), sigma)
    assert check.chain_residual < 1e-10
    with pytest.raises(InputError, match="nested"):
        martingale_entropy_check([subalgebra((2, 2)), subalgebra((1, 3))], random_state(4, 34), sigma)


@pytest.mark.parametrize("kind", ["coxeter", "free"])
def test_schur_resolvent_matches_the_dense_solve(kind):
    """Seeded differential test of the entrywise resolvent against the d^2 x d^2 solve."""
    gen = build_ball_semigroup(kind, 2, 2).gen
    # the same generator held as dense matrices, which take the solve
    dense = Generator(gen.dim, *(SuperOperator(s.matrix) for s in (gen.heisenberg, gen.schroedinger)))
    psi = random_state(gen.dim, 35)
    for n in (10, 40):
        got = chain_rule_check(gen, psi, n=n).regularized.mat
        want = chain_rule_check(dense, psi, n=n).regularized.mat
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_schur_resolvent_of_a_large_ball_stays_on_its_kernel():
    """free(2) radius 3 (d = 53): a d^2 x d^2 solve would need 126 MB per matrix."""
    gen = build_ball_semigroup("free", 2, 3).gen
    psi = random_state(53, 36)
    tracemalloc.start()
    try:
        rep = chain_rule_check(gen, psi, n=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    assert rep.residual > 0
