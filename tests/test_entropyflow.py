"""Entropy production, trajectories, and decay-rate estimation."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from entroflow import statespace
from entroflow.entropyflow import (
    ENTROPY_FLOOR,
    DecayReport,
    SamplerConfig,
    TrajectoryRecord,
    debruijn_residual,
    decay_certificate,
    entropy_production,
    fm_check,
    mlsi_estimate,
    state_samples,
    _ratio,
    trajectory,
)
from entroflow.errors import DomainError, InputError
from entroflow.groupsem import build_ball_semigroup
from entroflow.matcore import HermitianOperator, herm_eig
from entroflow.qms import fixed_point_expectation, gkls_generator, schur_generator
from entroflow.statespace import balpha_factor, density, rel_entropy, rel_hamiltonian


def depolarizing(d):
    jumps = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0 / np.sqrt(d)
            jumps.append(e)
    return gkls_generator(jumps=jumps, dim=d)


def dephasing_qubit():
    return schur_generator(np.array([[0.0, 1.0], [1.0, 0.0]]))


def bloch_diag(r):
    return density(np.diag([(1 + r) / 2, (1 - r) / 2]).astype(complex))


def dep_entropy(r):
    # D(rho_r || I/2) for the Bloch-diagonal qubit state
    return ((1 + r) / 2) * math.log(1 + r) + ((1 - r) / 2) * math.log(1 - r)


def dep_production(r):
    # I = D(rho||sigma) + D(sigma||rho) for the flat-fixed-point generator
    return (r / 2) * math.log((1 + r) / (1 - r))


MAX_MIX_2 = density(np.eye(2, dtype=complex) / 2)
MAX_MIX_3 = density(np.eye(3, dtype=complex) / 3)


def test_production_is_symmetrized_divergence_for_flat_generator():
    # L_* rho = rho - tr(rho) I/d makes I equal D(rho||sig) + D(sig||rho)
    gen = depolarizing(3)
    rng = np.random.default_rng(7)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = g @ g.conj().T
    rho = density(0.7 * m / np.trace(m).real + 0.3 * np.eye(3) / 3)
    got = entropy_production(gen, rho, MAX_MIX_3)
    want = rel_entropy(rho, MAX_MIX_3) + rel_entropy(MAX_MIX_3, rho)
    assert got == pytest.approx(want, abs=1e-10)
    assert got > 0


def test_production_zero_at_fixed_point():
    gen = depolarizing(2)
    assert entropy_production(gen, MAX_MIX_2, MAX_MIX_2) == pytest.approx(0.0, abs=1e-12)


def test_production_nonnegative_sweep():
    rng = np.random.default_rng(11)
    for gen, sigma in [(depolarizing(2), MAX_MIX_2), (dephasing_qubit(), MAX_MIX_2)]:
        for _ in range(40):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = g @ g.conj().T
            rho = density(0.8 * m / np.trace(m).real + 0.2 * np.eye(2) / 2)
            assert entropy_production(gen, rho, sigma) >= -1e-10


def test_production_requires_invariant_reference():
    damping = gkls_generator(jumps=[np.array([[0, 1], [0, 0]], dtype=complex)], dim=2)
    with pytest.raises(DomainError):
        entropy_production(damping, bloch_diag(0.3), MAX_MIX_2)


def test_production_requires_comparable_state():
    # faithful reference but a pure state: no finite sandwich factor
    gen = depolarizing(2)
    pure = density(np.array([[1, 0], [0, 0]], dtype=complex))
    with pytest.raises(DomainError):
        entropy_production(gen, pure, MAX_MIX_2)


def test_trajectory_matches_depolarizing_closed_form():
    gen = depolarizing(2)
    r0 = 0.8
    ts = np.array([0.1, 0.5, 1.0, 2.0])
    rec = trajectory(gen, bloch_diag(r0), MAX_MIX_2, ts)
    for k, t in enumerate(ts):
        r = r0 * math.exp(-t)
        assert rec.entropies[k] == pytest.approx(dep_entropy(r), abs=1e-10)
        assert rec.productions[k] == pytest.approx(dep_production(r), abs=1e-10)
        assert rec.alpha_track[k] == pytest.approx(max(1 + r, 1 / (1 - r)), abs=1e-9)


def test_trajectory_rejects_bad_grid():
    gen = depolarizing(2)
    with pytest.raises(Exception):
        trajectory(gen, bloch_diag(0.5), MAX_MIX_2, [0.5, 0.2])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_trajectory_and_residual_reject_nonfinite_times(bad):
    gen = depolarizing(2)
    with pytest.raises(InputError, match="finite"):
        trajectory(gen, bloch_diag(0.5), MAX_MIX_2, [0.1, bad])
    rec = trajectory(gen, bloch_diag(0.5), MAX_MIX_2, [0.1, 0.4])
    with pytest.raises(DomainError, match="finite"):
        debruijn_residual(rec, h=bad)


def random_state(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return density(m / np.trace(m).real)


def test_debruijn_run_builds_no_propagator(expm_calls):
    gen = random_unital_gkls(8, 23)
    ts = np.linspace(0.05, 1.0, 4)
    m = gen.schroedinger.matrix
    assert (ts[-1] + 1e-4) * np.abs(m).sum(axis=0).max() <= 64  # the action side
    rec = trajectory(gen, random_state(8, 24), density(np.eye(8) / 8), ts)
    debruijn_residual(rec, h=1e-4)
    assert expm_calls == []


def test_long_trajectory_node_takes_the_propagator(expm_calls):
    gen = depolarizing(2)
    rec = trajectory(gen, bloch_diag(0.5), MAX_MIX_2, [0.5, 1e4])
    assert expm_calls == [(4, 4)]
    assert rec.entropies[1] == pytest.approx(0.0, abs=1e-12)


def test_debruijn_residual_small_on_flow():
    gen = depolarizing(2)
    rec = trajectory(gen, bloch_diag(0.7), MAX_MIX_2, np.linspace(0.05, 2.0, 8))
    assert debruijn_residual(rec) < 1e-6


def test_debruijn_residual_small_dephasing():
    gen = dephasing_qubit()
    rho0 = density(np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]]))
    rec = trajectory(gen, rho0, MAX_MIX_2, np.linspace(0.05, 1.5, 6))
    assert debruijn_residual(rec) < 1e-6


def test_debruijn_residual_flags_tampered_production():
    gen = depolarizing(2)
    rec = trajectory(gen, bloch_diag(0.7), MAX_MIX_2, np.linspace(0.1, 1.0, 4))
    bad = TrajectoryRecord(
        times=rec.times,
        entropies=rec.entropies,
        productions=rec.productions * 1.1,
        alpha_track=rec.alpha_track,
        gen=rec.gen,
        rho0=rec.rho0,
        sigma=rec.sigma,
    )
    assert debruijn_residual(bad) > 1e-3


def test_state_samples_are_seeded_and_faithful():
    cfg = SamplerConfig(count=24)
    a = state_samples(2, MAX_MIX_2, cfg, seed=5)
    b = state_samples(2, MAX_MIX_2, cfg, seed=5)
    c = state_samples(2, MAX_MIX_2, cfg, seed=6)
    assert len(a) == 24
    for x, y in zip(a, b):
        assert np.array_equal(x.mat, y.mat)
    assert any(not np.array_equal(x.mat, y.mat) for x, y in zip(a, c))
    for s in a:
        assert s.trace == pytest.approx(1.0, abs=1e-12)
        assert s.is_faithful()
        assert balpha_factor(s, MAX_MIX_2) is not None


def test_state_samples_reject_a_negative_seed():
    with pytest.raises(InputError, match="seed"):
        state_samples(2, MAX_MIX_2, SamplerConfig(count=4), seed=-1)


def test_mlsi_depolarizing_qubit_rate_two():
    gen = depolarizing(2)
    rep = mlsi_estimate(gen, MAX_MIX_2, SamplerConfig(count=40), seed=3)
    # the entropy ratio is minimized in the flat-state limit, value 2
    assert 1.999 <= rep.beta_ratio <= 2.05
    assert rep.beta_fit == pytest.approx(2.0, abs=0.1)
    assert rep.sample_count == 40
    assert not rep.violations


def test_mlsi_dephasing_rate_bounded_by_twice_gap():
    gen = dephasing_qubit()
    rep = mlsi_estimate(gen, MAX_MIX_2, SamplerConfig(count=30), seed=1, restarts=3)
    assert 0.0 < rep.beta_ratio <= 2.0 + 1e-6
    assert rep.beta_fit > 0.0


def test_fm_check_depolarizing():
    gen = depolarizing(2)
    grid = np.linspace(0.0, 5.0, 11)
    ok = fm_check(gen, bloch_diag(0.8), MAX_MIX_2, beta=2.0, t_grid=grid)
    assert ok <= 1e-9
    bad = fm_check(gen, bloch_diag(0.9), MAX_MIX_2, beta=2.7, t_grid=grid)
    assert bad > 1e-6


def test_decay_certificate_depolarizing():
    gen = depolarizing(2)
    samples = state_samples(2, MAX_MIX_2, SamplerConfig(count=12), seed=4)
    good = decay_certificate(gen, MAX_MIX_2, beta=2.0, samples=samples)
    assert isinstance(good, DecayReport)
    assert good.passed
    assert good.worst_margin >= 0.0
    bad = decay_certificate(gen, MAX_MIX_2, beta=3.0, samples=samples)
    assert not bad.passed


def test_decay_certificate_exponentiates_once_per_grid_time(expm_calls):
    gen = depolarizing(2)
    fixed_point_expectation(gen, MAX_MIX_2)
    checks = len(expm_calls)  # the fixed point's absorption checks, rebuilt by the certificate
    expm_calls.clear()
    samples = state_samples(2, MAX_MIX_2, SamplerConfig(count=5), seed=4)
    rep = decay_certificate(gen, MAX_MIX_2, beta=2.0, samples=samples)
    assert all(math.isfinite(row["margin"]) for row in rep.per_state)
    assert expm_calls == [(4, 4)] * (checks + 10)  # the default grid has 10 times


def test_decay_certificate_skips_converged_sample():
    gen = depolarizing(2)
    rep = decay_certificate(gen, MAX_MIX_2, beta=2.0, samples=[MAX_MIX_2])
    assert rep.passed
    assert rep.per_state[0]["margin"] == math.inf


def pinching_model(d, seed):
    """Schur generator with symbol 1 - I, a faithful diagonal sigma (invariant)
    and a seeded full-rank rho comparable to it, as arrays."""
    rng = np.random.default_rng(seed)
    gen = schur_generator(np.ones((d, d)) - np.eye(d))
    sigma = np.diag(0.5 * rng.dirichlet(np.ones(d)) + 0.5 / d).astype(complex)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return gen, 0.7 * m / np.trace(m).real + 0.3 * sigma, sigma


def spectral_quantities(gen, rho, sigma):
    return (
        rel_entropy(rho, sigma),
        balpha_factor(rho, sigma),
        rel_hamiltonian(rho, sigma).tobytes(),
        entropy_production(gen, rho, sigma),
    )


@pytest.mark.parametrize("d,seed", [(2, 11), (5, 12), (17, 13)])
def test_memoized_spectrum_is_bit_identical(monkeypatch, d, seed):
    gen, rho_arr, sigma_arr = pinching_model(d, seed)
    fresh = spectral_quantities(gen, density(rho_arr), density(sigma_arr))

    rho, sigma = density(rho_arr), density(sigma_arr)
    spectral_quantities(gen, rho, sigma)
    warm = spectral_quantities(gen, rho, sigma)
    assert warm == fresh

    for dec in (rho.op.spectrum, sigma.op.spectrum):
        for arr in (dec.eigenvalues, dec.eigenvectors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    assert rho.op.spectrum is rho.op.spectrum

    # reference: every spectral read decomposes afresh, as with no memo
    monkeypatch.setattr(HermitianOperator, "spectrum", property(herm_eig))
    unmemoized = spectral_quantities(gen, density(rho_arr), density(sigma_arr))
    assert unmemoized == fresh


def test_production_decomposes_each_state_once(monkeypatch):
    gen, rho_arr, sigma_arr = pinching_model(5, 14)
    fp = fixed_point_expectation(gen, density(sigma_arr))
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (scipy.linalg, "eigh")):
        label = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, counted(label, getattr(owner, name)))
    # the generalized eigenproblem of balpha_factor calls LAPACK zhegvd directly
    monkeypatch.setattr(statespace, "_HEGVD", counted("zhegvd", statespace._HEGVD))
    # one I/D ratio evaluation as the rate estimator runs it, on a fresh state
    rho = density(rho_arr)
    sig = fp.project_state(rho)
    rel_entropy(rho, sig)
    entropy_production(gen, rho, sig)
    assert sum(counts.values()) <= 5, counts
    assert counts["zhegvd"] == 1  # balpha_factor runs once


def random_unital_gkls(d, seed):
    """Hamiltonian plus two scaled Haar-unitary jumps: unital, not symmetric."""
    rng = np.random.default_rng(seed)

    def haar():
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return gkls_generator(hamiltonian=h + h.conj().T, jumps=[np.sqrt(0.8) * haar(), np.sqrt(0.5) * haar()])


def reference_ratio(gen, fp, mat):
    """The I/D ratio composed from the public functions."""
    rho = density(mat)
    sig = fp.project_state(rho)
    d = rel_entropy(rho, sig)
    if not math.isfinite(d) or d < ENTROPY_FLOOR:
        return None, d
    return entropy_production(gen, rho, sig) / d, d


def polish_candidates(phi, rng, count):
    """Candidates built the way mlsi_estimate's polish builds them."""
    d = phi.dim
    out = []
    for _ in range(count):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a @ a.conj().T
        m = 0.999999 * (m / np.trace(m).real) + 1e-6 * phi.mat
        out.append((m + m.conj().T) / 2)
    return out


def coxeter_ball_model():
    ball = build_ball_semigroup("coxeter", 2, 2)
    return ball.gen, ball.phi


# the generators of the benchmark's rate jobs; the GKLS one is the only
# generator here that is not GNS-symmetric
RATE_MODELS = {
    "depolarizing-d2": lambda: (depolarizing(2), MAX_MIX_2),
    "depolarizing-d3": lambda: (depolarizing(3), MAX_MIX_3),
    "coxeter-2-2-d5": coxeter_ball_model,
    "unital-gkls-d4": lambda: (random_unital_gkls(4, 21), density(np.eye(4, dtype=complex) / 4)),
}


@pytest.mark.parametrize("name", sorted(RATE_MODELS))
def test_ratio_kernel_matches_public_composition(name):
    gen, phi = RATE_MODELS[name]()
    fp = fixed_point_expectation(gen, phi)
    samples = [s.mat for s in state_samples(gen.dim, phi, SamplerConfig(count=40), seed=8)]
    mats = samples + polish_candidates(phi, np.random.default_rng(9), 40) + [phi.mat]
    rows = [_ratio(gen, fp, m) for m in mats]
    assert rows == [reference_ratio(gen, fp, m) for m in mats]
    # phi is its own projection: D sits below the floor and no ratio is formed
    assert rows[-1][0] is None and rows[-1][1] < ENTROPY_FLOOR
    assert sum(r is not None for r, _ in rows) >= len(mats) // 2


@pytest.mark.parametrize(
    "gen,phi,mat",
    [
        # a pure state has no finite sandwich factor against the flat reference
        (depolarizing(2), MAX_MIX_2, np.diag([1.0, 0.0]).astype(complex)),
        # pinching keeps the roundoff-negative diagonal entry: the projection
        # is clamped, and the clamped reference is not faithful
        (
            schur_generator(np.ones((3, 3)) - np.eye(3)),
            MAX_MIX_3,
            np.array([[0.5, 0.2, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, -1e-12]], dtype=complex),
        ),
    ],
    ids=["pure-state", "clamped-projection"],
)
def test_ratio_kernel_raises_like_public_composition(gen, phi, mat):
    fp = fixed_point_expectation(gen, phi)
    with pytest.raises(DomainError) as kernel:
        _ratio(gen, fp, mat)
    with pytest.raises(DomainError) as composed:
        reference_ratio(gen, fp, mat)
    assert str(kernel.value) == str(composed.value)


def test_ratio_kernel_decomposes_once(monkeypatch):
    gen, rho_arr, sigma_arr = pinching_model(5, 15)
    fp = fixed_point_expectation(gen, density(sigma_arr))
    counts = Counter()
    shapes = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            counts[name] += 1
            shapes.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)

        return wrapper

    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (scipy.linalg, "eigh")):
        label = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, counted(label, getattr(owner, name)))
    # the generalized eigenproblem of balpha_factor calls LAPACK zhegvd directly
    monkeypatch.setattr(statespace, "_HEGVD", counted("zhegvd", statespace._HEGVD))
    r, _ = _ratio(gen, fp, rho_arr)
    assert r is not None
    assert counts == {"numpy.linalg.eigh": 1, "numpy.linalg.eigvalsh": 1, "zhegvd": 1}
    # rho and its projection share the one batched eigh
    assert ("numpy.linalg.eigh", (2, 5, 5)) in shapes
