import math

import numpy as np
import pytest

import scipy.linalg

from entroflow.errors import DomainError, InputError
from entroflow.matcore import op_norm
from entroflow.statespace import (
    Density,
    _pencil_eigvals,
    balpha_factor,
    density,
    pinsker_gap,
    rel_entropy,
    rel_hamiltonian,
    resolvent_log_approx,
)

# frozen oracle: 0.25*log(0.5) + 0.75*log(1.5)
KL_QUARTER_HALF = 0.130812035941137
# frozen oracle: 2*log(2) - 1
PINSKER_TWO_POINT = 2 * math.log(2.0) - 1.0


def random_state(rng, d, rank=None):
    g = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    m = g @ g.conj().T
    return density(m / np.trace(m).real)


def random_cptp_kraus(rng, d, k=3):
    gs = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(k)]
    s = sum(g.conj().T @ g for g in gs)
    root = np.linalg.inv(scipy.linalg.sqrtm(s))
    return [g @ root for g in gs]


def apply_kraus(ks, rho):
    return sum(k @ rho @ k.conj().T for k in ks)


def test_density_validations():
    with pytest.raises(InputError):
        density(np.diag([1.0, -0.5]))
    with pytest.raises(InputError):
        density(np.zeros((2, 2)))
    rho = density(np.diag([2.0, 2.0]))
    assert abs(rho.trace - 4.0) < 1e-12
    assert abs(rho.normalize().trace - 1.0) < 1e-12


def test_rel_entropy_classical_value():
    rho = density(np.diag([0.25, 0.75]))
    sig = density(np.diag([0.5, 0.5]))
    assert abs(rel_entropy(rho, sig) - KL_QUARTER_HALF) < 1e-12


def test_rel_entropy_self_is_zero():
    rng = np.random.default_rng(10)
    rho = random_state(rng, 4)
    assert abs(rel_entropy(rho, rho)) < 1e-11


def test_rel_entropy_support_mismatch_is_inf():
    rho = density(np.diag([1.0, 0.0]))
    sig = density(np.diag([0.0, 1.0]))
    assert math.isinf(rel_entropy(rho, sig))
    # projector inside the support is finite
    sig2 = density(np.diag([0.5, 0.5]))
    assert abs(rel_entropy(rho, sig2) - math.log(2.0)) < 1e-12


def test_rel_entropy_unitary_covariance():
    rng = np.random.default_rng(11)
    rho, sig = random_state(rng, 3), random_state(rng, 3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    r2 = density(q @ rho.mat @ q.conj().T)
    s2 = density(q @ sig.mat @ q.conj().T)
    assert abs(rel_entropy(r2, s2) - rel_entropy(rho, sig)) < 1e-10


def test_rel_entropy_homogeneity():
    rng = np.random.default_rng(12)
    rho, sig = random_state(rng, 3), random_state(rng, 3)
    lam = 2.5
    r2 = density(lam * rho.mat)
    s2 = density(lam * sig.mat)
    assert abs(rel_entropy(r2, s2) - lam * rel_entropy(rho, sig)) < 1e-10


def test_rel_entropy_data_processing():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho, sig = random_state(rng, 3), random_state(rng, 3)
        ks = random_cptp_kraus(rng, 3)
        d_in = rel_entropy(rho, sig)
        d_out = rel_entropy(density(apply_kraus(ks, rho.mat)), density(apply_kraus(ks, sig.mat)))
        assert d_out <= d_in + 1e-9


def test_balpha_factor_commuting_value():
    rho = density(np.diag([0.75, 0.25]))
    sig = density(np.diag([0.5, 0.5]))
    assert abs(balpha_factor(rho, sig) - 2.0) < 1e-12


def test_balpha_factor_edge_cases():
    sig = density(np.diag([0.5, 0.5]))
    assert abs(balpha_factor(sig, sig) - 1.0) < 1e-12
    assert balpha_factor(density(np.diag([1.0, 0.0])), sig) is None
    with pytest.raises(DomainError):
        balpha_factor(sig, density(np.diag([1.0, 0.0])))


def test_sandwich_bound_witness():
    rho = density(np.diag([0.75, 0.25]))
    sig = density(np.diag([0.5, 0.5]))
    # rho lies in B_alpha(sig) exactly when balpha_factor(rho, sig) <= alpha
    assert balpha_factor(rho, sig) <= 2.0 + 1e-9
    assert not balpha_factor(rho, sig) <= 1.2 + 1e-9


def test_rel_hamiltonian_commuting_and_bound():
    rho = density(np.diag([0.75, 0.25]))
    sig = density(np.diag([0.5, 0.5]))
    h = rel_hamiltonian(rho, sig)
    assert np.allclose(h, np.diag([math.log(1.5), math.log(0.5)]), atol=1e-12)
    alpha = balpha_factor(rho, sig)
    assert op_norm(h) <= math.log(alpha) + 1e-12


def test_rel_hamiltonian_random_norm_bound():
    rng = np.random.default_rng(14)
    for _ in range(10):
        rho, sig = random_state(rng, 3), random_state(rng, 3)
        alpha = balpha_factor(rho, sig)
        h = rel_hamiltonian(rho, sig)
        assert op_norm(h) <= math.log(alpha) + 1e-9


def test_rel_hamiltonian_requires_faithful():
    sig = density(np.diag([0.5, 0.5]))
    with pytest.raises(DomainError):
        rel_hamiltonian(density(np.diag([1.0, 0.0])), sig)


def test_rel_hamiltonian_on_supplied_support():
    # both states live on the first two coordinates of dim 3
    v = np.zeros((3, 2))
    v[0, 0] = v[1, 1] = 1.0
    rho = density(np.diag([0.75, 0.25, 0.0]))
    sig = density(np.diag([0.5, 0.5, 0.0]))
    h = rel_hamiltonian(rho, sig, support=v)
    assert np.allclose(h, np.diag([math.log(1.5), math.log(0.5), 0.0]), atol=1e-12)


def test_rel_hamiltonian_rejects_a_support_off_orthonormal_by_4e_6():
    v = np.zeros((3, 2))
    v[0, 0] = v[1, 1] = 1.0 + 2e-6  # v^dag v - 1 = 4e-6, within allclose's default rtol of 1e-5
    rho = density(np.diag([0.75, 0.25, 0.0]))
    sig = density(np.diag([0.5, 0.5, 0.0]))
    with pytest.raises(InputError, match="orthonormal"):
        rel_hamiltonian(rho, sig, support=v)


def test_resolvent_scalar_oracle():
    rho = density(np.array([[2.0]]))
    sig = density(np.array([[1.0]]))
    # exact antiderivative: log((1+s)/(2+s)) evaluated on [1/n, n]
    for n in (10, 100, 1000):
        x = resolvent_log_approx(rho, sig, n)
        lo, hi = 1.0 / n, float(n)
        exact = (math.log((1 + hi) / (2 + hi)) - math.log((1 + lo) / (2 + lo)))
        assert abs(x[0, 0].real - exact) < 1e-12
    assert np.allclose(resolvent_log_approx(rho, sig, 1), 0.0)


def test_resolvent_converges_and_respects_bound():
    # states bounded away from singular so the truncation tail at n=1000 is small
    rng = np.random.default_rng(15)
    eye = np.eye(3) / 3
    rho = density(0.5 * random_state(rng, 3).mat + 0.5 * eye)
    sig = density(0.5 * random_state(rng, 3).mat + 0.5 * eye)
    h = rel_hamiltonian(rho, sig)
    alpha = balpha_factor(rho, sig)
    errs = []
    for n in (10, 100, 1000):
        x = resolvent_log_approx(rho, sig, n)
        assert op_norm(x) <= math.log(alpha) + 1e-8
        errs.append(op_norm(x - h))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-2


def test_pinsker_two_point_oracle():
    rho = density(np.diag([1.0, 0.0]))
    sig = density(np.diag([0.5, 0.5]))
    assert abs(pinsker_gap(rho, sig) - PINSKER_TWO_POINT) < 1e-12


def test_pinsker_gap_nonnegative_sweep():
    rng = np.random.default_rng(16)
    for d in (2, 3):
        for _ in range(200):
            rho, sig = random_state(rng, d), random_state(rng, d)
            assert pinsker_gap(rho, sig) >= -1e-10


def test_pinsker_requires_normalized():
    with pytest.raises(DomainError):
        pinsker_gap(density(np.diag([2.0, 0.0])), density(np.diag([0.5, 0.5])))


def test_rel_entropy_local_continuity():
    # qualitative regression: |D(rho+delta) - D(rho)| <= C * ||delta||_1^(1/2)
    rng = np.random.default_rng(17)
    rho, sig = random_state(rng, 3), random_state(rng, 3)
    base = rel_entropy(rho, sig)
    drift = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    drift = (drift + drift.conj().T) / 2
    drift -= np.trace(drift).real * np.eye(3) / 3
    drift /= np.abs(np.linalg.eigvalsh(drift)).sum()
    for step in (1e-3, 1e-4, 1e-5):
        pert = density(rho.mat + step * drift)
        c = abs(rel_entropy(pert, sig) - base) / math.sqrt(step)
        assert c < 50.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 17])
def test_pencil_eigvals_are_scipy_eigh_bit_for_bit(d):
    # the mlsi sizes of the benchmark workloads; both call LAPACK zhegvd
    rng = np.random.default_rng(200 + d)
    for _ in range(4):
        rho, sigma = random_state(rng, d), random_state(rng, d)
        assert np.array_equal(
            _pencil_eigvals(rho.mat, sigma.mat),
            scipy.linalg.eigh(rho.mat, sigma.mat, eigvals_only=True),
        )


def test_pencil_eigvals_raise_the_scipy_error():
    a = np.eye(2, dtype=complex)
    b = np.diag([1.0, -1.0]).astype(complex)  # not positive definite
    with pytest.raises(np.linalg.LinAlgError) as ours:
        _pencil_eigvals(a, b)
    with pytest.raises(np.linalg.LinAlgError) as ref:
        scipy.linalg.eigh(a, b, eigvals_only=True)
    assert str(ours.value) == str(ref.value)
