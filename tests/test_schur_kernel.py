"""Schur generators on their d x d kernel, against the dense route they replace.

A Schur multiplier holds only its kernel; its d^2 x d^2 matrix is the
diagonal matrix of vec(kernel), built on read.  On the real kernels of
Schur generators, each entrywise operation must give the bits the dense
route gives on that materialised matrix.
"""

import tracemalloc

import numpy as np
import pytest

from entroflow.errors import NumericalError
from entroflow.groupsem import build_ball_semigroup
from entroflow.matcore import SuperOperator, expm_action, expm_superop, schur_multiplier_super
from entroflow.qms import (
    FixedPointData,
    _spectral_projection_zero,
    _validate_expectation,
    fixed_point_expectation,
    schur_generator,
)
from entroflow.statespace import density

# (kind, rank, radius) of a word-length ball of each size
BALLS = {
    5: ("coxeter", 2, 2),
    10: ("coxeter", 3, 2),
    17: ("free", 2, 2),
    22: ("coxeter", 3, 3),
    37: ("free", 3, 2),
}


def same_bits(a, b) -> bool:
    """Equal bit for bit, signed zeros included."""
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def diagonal_phi(rng, d):
    """A non-uniform diagonal state: invariant under every Schur generator."""
    w = rng.uniform(0.5, 1.5, size=d)
    return density(np.diag(w / w.sum()))


def near_zero_symbol(d, seed):
    """Squared distances of seeded points, three of them close together.

    Squared distances are conditionally negative definite, so every
    exp(-t psi) is a PSD (Gaussian) kernel.  With cut the fixed-point
    cutoff 1e-10 * max(max psi, 1), psi[0, 1] is cut / 2, inside the
    pattern, and psi[0, 2] is 2 cut, outside it.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, 3))
    x[1] = x[2] = x[0]
    cut = 1e-10 * max(squared_distances(x).max(), 1.0)
    x[1] = x[0] + np.sqrt(cut / 2) * np.array([1.0, 0.0, 0.0])
    x[2] = x[0] + np.sqrt(2 * cut) * np.array([0.0, 1.0, 0.0])
    psi = squared_distances(x)
    cut = 1e-10 * max(psi.max(), 1.0)
    assert psi[0, 1] < cut < psi[0, 2] < psi[1, 2]
    return psi


def squared_distances(x):
    diff = x[:, None, :] - x[None, :, :]
    return (diff**2).sum(axis=-1)


MODELS = {f"ball-d{d}": (lambda m=m: build_ball_semigroup(*m).gen) for d, m in BALLS.items()}
MODELS["near-zero-d10"] = lambda: schur_generator(near_zero_symbol(10, 7))


@pytest.mark.parametrize("name", list(MODELS))
def test_kernel_operations_match_the_materialised_matrix(name):
    gen = MODELS[name]()
    d = gen.dim
    s = gen.schroedinger
    assert s.kernel is not None and s.kernel.shape == (d, d)
    # the matrix is built on read and never kept
    assert s.matrix is not s.matrix
    dense = SuperOperator(s.matrix)
    assert dense.kernel is None
    rng = np.random.default_rng(d)
    x = random_matrix(rng, d)
    herm = (x + x.conj().T) / 2
    assert same_bits(s.apply(x), dense.apply(x))
    assert same_bits(s.apply(herm), dense.apply(herm))

    other = schur_multiplier_super(np.exp(-0.4 * gen.heisenberg.kernel.real) * rng.uniform(0.5, 1.5, size=(d, d)))
    assert same_bits((s @ other).matrix, (dense @ SuperOperator(other.matrix)).matrix)
    assert np.array_equal(s.adjoint().matrix, dense.adjoint().matrix)
    assert same_bits(other.adjoint().apply(x), SuperOperator(other.matrix).adjoint().apply(x))

    for t in (0.1, 0.3, 1.0, 2.0):
        p = expm_superop(s, -t)
        p_dense = expm_superop(dense, -t)
        assert p.kernel is not None
        assert same_bits(p.matrix, p_dense.matrix)
        assert same_bits(p.apply(herm), p_dense.apply(herm))
        assert np.array_equal(expm_action(s, -t, herm), p_dense.apply(herm))


@pytest.mark.parametrize("name", list(MODELS))
def test_pattern_fixed_point_is_the_svd_projection(name):
    gen = MODELS[name]()
    d = gen.dim
    phi = diagonal_phi(np.random.default_rng(100 + d), d)
    fp = fixed_point_expectation(gen, phi)
    assert fp.expectation.kernel is not None and fp.predual.kernel is not None
    # oracle: the spectral projection at 0 of the materialised generator
    proj = _spectral_projection_zero(gen.heisenberg.matrix)
    assert np.array_equal(fp.expectation.matrix, proj)
    assert np.array_equal(fp.predual.matrix, proj.conj().T)
    x = random_matrix(np.random.default_rng(d), d)
    out = SuperOperator(proj.conj().T).apply(x)
    assert same_bits(fp.project_matrix(x), (out + out.conj().T) / 2)


# psi = [[0,0,1],[0,0,1],[1,1,0]]: the fixed points are the block pattern P below,
# and phi, with an entry inside the block, is invariant.
BLOCK_PSI = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
BLOCK_PHI = np.array([[0.3, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.4]])
BLOCK_PATTERN = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize(
    "kernel,message",
    [
        # half an entry: E E != E
        (np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]), "not idempotent"),
        # a zero on the diagonal: E(1) != 1
        (np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]), "not unital"),
        # a 0/1 pattern that is not an equivalence relation: min eig 1 - sqrt(2)
        (np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]), "not CP"),
        # keeps entries where psi > 0, which P_t damps
        (np.ones((3, 3)), "does not absorb"),
        # drops the block entry of phi
        (np.eye(3), "does not preserve the reference state"),
    ],
    ids=["idempotent", "unital", "cp", "absorbs", "phi"],
)
def test_each_expectation_check_rejects_a_corrupted_kernel(kernel, message):
    gen, phi = schur_generator(BLOCK_PSI), density(BLOCK_PHI)
    good = schur_multiplier_super(BLOCK_PATTERN)
    _validate_expectation(FixedPointData(expectation=good, predual=good.adjoint(), phi=phi), gen)
    assert np.array_equal(fixed_point_expectation(gen, phi).expectation.kernel, BLOCK_PATTERN)
    bad = schur_multiplier_super(kernel)
    with pytest.raises(NumericalError, match=message):
        _validate_expectation(FixedPointData(expectation=bad, predual=bad.adjoint(), phi=phi), gen)


def test_ball_semigroup_and_fixed_point_stay_below_one_dense_superoperator():
    tracemalloc.start()
    try:
        sem = build_ball_semigroup("free", 3, 2)
        sem.gen.semigroup(0.3)
        sem.gen.semigroup(1.0)
        fixed_point_expectation(sem.gen, sem.phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    d = sem.gen.dim
    assert d == 37
    assert peak < 16 * d**4  # one complex d^2 x d^2 matrix: 30 MB
