import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from entroflow.errors import InputError, NumericalError
from entroflow.matcore import (
    HermitianOperator,
    SuperOperator,
    as_herm,
    choi_matrix,
    clamp_psd,
    conjugation_super,
    expm_action,
    expm_superop,
    herm_eig,
    herm_eig_batch,
    is_herm_preserving,
    mat_fn,
    min_eig,
    op_norm,
    schur_multiplier_super,
    support_projector,
    trace_norm,
    unvec,
    vec,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_psd(rng, d, rank=None):
    g = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    return g @ g.conj().T


def test_vec_unvec_roundtrip_and_kron_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(unvec(vec(x), 3), x)
    # column-major convention: vec(A X B) = (B^T kron A) vec(X)
    assert np.allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b))


def test_hermitian_symmetrizes_small_asymmetry():
    a = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 2e-14j, 2.0]])
    h = HermitianOperator(a)
    assert np.allclose(h.mat, h.mat.conj().T)


def test_hermitian_rejects_gross_asymmetry():
    with pytest.raises(InputError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_rejects_nonfinite():
    with pytest.raises(InputError):
        HermitianOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pauli_x_eigensystem():
    dec = herm_eig(PAULI_X)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    minus, plus = dec.eigenvectors[:, 0], dec.eigenvectors[:, 1]
    # eigenvectors match (1, -/+ 1)/sqrt(2) up to phase
    assert abs(abs(minus @ np.array([1, -1]) / np.sqrt(2)) - 1) < 1e-12
    assert abs(abs(plus @ np.array([1, 1]) / np.sqrt(2)) - 1) < 1e-12


def test_mat_fn_sqrt_squares_back():
    rng = np.random.default_rng(1)
    a = random_psd(rng, 4)
    r = mat_fn(a, np.sqrt)
    assert np.allclose(r @ r, as_herm(a).mat, atol=1e-10)


def test_mat_fn_log_respects_kernel():
    # rank-2 PSD inside dim 4: log must vanish on the kernel
    rng = np.random.default_rng(2)
    a = random_psd(rng, 4, rank=2)
    lg = mat_fn(a, np.log)
    p = support_projector(a)
    assert np.allclose(p @ lg @ p, lg, atol=1e-9)


def test_mat_fn_rejects_indefinite():
    with pytest.raises(InputError):
        mat_fn(PAULI_Z, np.sqrt)


def test_min_eig_and_op_norm():
    h = PAULI_X + PAULI_Z
    assert abs(min_eig(h) + np.sqrt(2)) < 1e-12
    assert abs(op_norm(h) - np.sqrt(2)) < 1e-12


def test_trace_norm_matches_positive_part_oracle():
    rng = np.random.default_rng(3)
    rho = random_psd(rng, 3)
    rho /= np.trace(rho).real
    sig = random_psd(rng, 3)
    sig /= np.trace(sig).real
    diff = rho - sig
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    # traceless difference: trace norm is twice the positive part
    assert abs(trace_norm(diff) - 2 * w[w > 0].sum()) < 1e-12


def test_superoperator_apply_and_compose():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = rng.normal(size=(3, 3))
    s = SuperOperator(np.kron(np.eye(3), a))
    assert np.allclose(s.apply(x), a @ x)
    t = SuperOperator(np.kron(a.T, np.eye(3)))
    assert np.allclose(t.apply(x), x @ a)
    assert np.allclose((s @ t).apply(x), a @ x @ a)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16])
def test_stacked_apply_gives_each_matrix_its_own_bits(d):
    """A stack (k, d, d) gets, matrix by matrix, the bits of matrix @ vec(x) on that matrix alone."""
    rng = np.random.default_rng(d)
    x = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
    dense = SuperOperator(rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)))
    kernel = schur_multiplier_super(np.exp(-rng.random((d, d))))
    for s in (dense, kernel):
        one_by_one = np.array([unvec(s.matrix @ vec(m), d) for m in x])
        assert np.array_equal(s.apply(x), one_by_one)
        assert np.array_equal(s.apply(x[3]), one_by_one[3])
        assert s.apply(x[3]).flags.f_contiguous
    with pytest.raises(InputError):
        dense.apply(np.zeros((2, 3, d, d)))
    with pytest.raises(InputError):
        dense.apply(np.zeros((4, d + 1, d + 1)))


def test_herm_eig_batch_gives_each_matrix_its_own_bits():
    rng = np.random.default_rng(6)
    mats = np.array([as_herm(random_psd(rng, 5)).mat for _ in range(6)])
    w, v = herm_eig_batch(mats)
    assert w.shape == (6, 5) and v.shape == (6, 5, 5)
    for k, m in enumerate(mats):
        dec = herm_eig(m)
        assert np.array_equal(w[k], dec.eigenvalues)
        assert np.array_equal(v[k], dec.eigenvectors)


def test_herm_eig_batch_checks_every_residual(monkeypatch):
    """A decomposition that does not reconstruct its matrix fails the batch, wherever it sits."""
    rng = np.random.default_rng(7)
    mats = np.array([as_herm(random_psd(rng, 4)).mat for _ in range(3)])
    eigh = np.linalg.eigh

    def off_by_a_little(a):
        w, v = eigh(a)
        w = w.copy()
        w[-1, -1] *= 1 + 1e-6
        return w, v

    herm_eig_batch(mats)
    monkeypatch.setattr(np.linalg, "eigh", off_by_a_little)
    with pytest.raises(NumericalError, match="residual"):
        herm_eig_batch(mats)


def test_conjugation_super():
    rng = np.random.default_rng(5)
    k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = rng.normal(size=(2, 2))
    assert np.allclose(conjugation_super(k).apply(x), k @ x @ k.conj().T)


def test_adjoint_is_trace_pairing_adjoint():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    s = SuperOperator(m)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = np.trace(s.apply(x).conj().T @ y)
    rhs = np.trace(x.conj().T @ s.adjoint().apply(y))
    assert abs(lhs - rhs) < 1e-10


def test_choi_of_identity_is_maximally_entangled():
    c = choi_matrix(SuperOperator(np.eye(4)))
    # sum_ij E_ij (x) E_ij = 2 * projector onto the maximally entangled vector
    w = np.linalg.eigvalsh(c)
    assert np.allclose(sorted(w), [0, 0, 0, 2], atol=1e-12)


def test_transpose_map_choi_min_eig_is_minus_one():
    d = 2
    m = np.zeros((4, 4))
    for i in range(d):
        for j in range(d):
            m[i * d + j, j * d + i] = 1.0  # vec(X^T) = SWAP vec(X)
    s = SuperOperator(m)
    assert np.allclose(s.apply(PAULI_X + 1j * PAULI_Z), (PAULI_X + 1j * PAULI_Z).T)
    c = choi_matrix(s)
    assert abs(np.linalg.eigvalsh(c)[0] + 1.0) < 1e-12


def test_herm_preserving_detection():
    assert is_herm_preserving(conjugation_super(np.array([[1, 2], [3, 4.0]])))
    bad = SuperOperator(1j * np.eye(4))
    assert not is_herm_preserving(bad)


def test_expm_semigroup_property_nonnormal():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) * 0.5  # generically non-normal
    s = SuperOperator(m)
    one = expm_superop(s, 0.7).matrix
    two = expm_superop(s, 0.3).matrix @ expm_superop(s, 0.4).matrix
    assert np.allclose(one, two, atol=1e-12)


def _herm_super(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    return (g + g.conj().T) / (2 * d)


def _eigh_expm(m: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.exp(t * w)) @ v.conj().T


_SCHUR_DIAG = np.array([0.0, -1.5, -1.5, 0.0, -2.0, -0.25, 0.0, -3.0, 0.0])


@pytest.mark.parametrize(
    "m,t,expect,tol",
    [
        # left multiplication by a Hermitian matrix is a normal superoperator
        (
            np.kron(np.eye(2), PAULI_X),
            1.0,
            np.kron(np.eye(2), np.cosh(1) * np.eye(2) + np.sinh(1) * PAULI_X),
            {},
        ),
        # a Schur multiplier is diagonal and is exponentiated entrywise
        (np.diag(_SCHUR_DIAG), 0.3, np.diag(np.exp(0.3 * _SCHUR_DIAG)), {"rtol": 0.0, "atol": 1e-15}),
        # seeded Hermitian superoperators against their eigh exponential
        (_herm_super(3, 11), 0.7, _eigh_expm(_herm_super(3, 11), 0.7), 1e-12),
        (_herm_super(5, 12), 0.4, _eigh_expm(_herm_super(5, 12), 0.4), 1e-12),
    ],
    ids=["left-mult-pauli-x", "schur-diagonal", "hermitian-d3", "hermitian-d5"],
)
def test_expm_matches_closed_form(m, t, expect, tol):
    e = expm_superop(SuperOperator(m), t).matrix
    if isinstance(tol, dict):
        assert np.allclose(e, expect, **tol)
    else:  # relative Frobenius error
        assert np.linalg.norm(e - expect) <= tol * np.linalg.norm(expect)


def test_expm_superop_keeps_the_fresh_exponential_and_copies_caller_arrays(monkeypatch):
    made = []
    expm = scipy.linalg.expm

    def kept(*args, **kwargs):
        made.append(expm(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(scipy.linalg, "expm", kept)
    m = _herm_super(3, 13)
    s = SuperOperator(m)
    # a caller's array is copied, so freezing the copy leaves it writable
    assert not np.shares_memory(s.matrix, m) and m.flags.writeable
    e = expm_superop(s, 0.6)
    assert e.matrix is made[0] and not e.matrix.flags.writeable
    copied = SuperOperator(made[0].copy())
    x = np.random.default_rng(14).normal(size=(3, 3)) + 0j
    assert np.array_equal(e.apply(x), copied.apply(x))


@pytest.mark.parametrize("t", [0.0, 0.4, -1.3])
def test_expm_action_matches_expm_superop(t):
    s = SuperOperator(_herm_super(3, 15) + 0.3j * _herm_super(3, 16))
    x = np.random.default_rng(17).normal(size=(3, 3)) + 1j
    # both are accurate to rounding; they sum the series in different orders
    assert np.abs(expm_action(s, t, x) - expm_superop(s, t).apply(x)).max() <= 1e-13


def test_expm_action_takes_a_diagonal_entrywise(monkeypatch):
    calls = []
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", lambda *a, **k: calls.append(a))
    rng = np.random.default_rng(19)
    k = rng.uniform(0.0, 3.0, size=(4, 4))
    s = schur_multiplier_super(k + k.T)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for t in (0.0, -0.7, -40.0):
        assert np.array_equal(expm_action(s, t, x), expm_superop(s, t).apply(x))
    assert calls == []


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_expm_action_rejects_nonfinite_time_and_result():
    s = SuperOperator(_herm_super(2, 18))
    for t in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="finite"):
            expm_action(s, t, np.eye(2))
    with pytest.raises(NumericalError, match="overflowed"):
        expm_action(SuperOperator(np.eye(4)), 800.0, np.eye(2))


def test_clamp_psd_zeroes_small_negatives():
    a = np.diag([1.0, -1e-10])
    out = clamp_psd(a)
    assert np.linalg.eigvalsh(out)[0] >= 0.0
    with pytest.raises(NumericalError):
        clamp_psd(np.diag([1.0, -1e-6]))
