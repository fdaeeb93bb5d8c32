"""Entropy production, trajectories, and decay-rate estimation."""

import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from entroflow import entropyflow, matcore, qms, statespace
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
    _dlog,
    _ratio,
    trajectory,
)
from entroflow.errors import DomainError, InputError
from entroflow.groupsem import build_ball_semigroup
from entroflow.matcore import (
    SUPPORT_CUTOFF,
    HermitianOperator,
    SpectralDecomposition,
    herm_eig,
    herm_eig_batch,
    unvec,
    vec,
)
from entroflow.qms import (
    fixed_point_expectation,
    gkls_generator,
    invariant_states,
    schur_generator,
)
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


def test_debruijn_run_evolves_its_grid_once(monkeypatch, expm_calls):
    """trajectory and debruijn_residual each evolve rho0 once along their times.

    On the 24-node grid of the benchmark's flows jobs the time handed to
    expm_action sums to about 2 (t_max + h); evolving every time afresh
    from rho0 sums to about 74.  A call's t is its largest time, the span
    of a run or the step of a stack.
    """
    evolved = []
    action = qms.expm_action

    def counted(s, t, x, *run):
        evolved.append(abs(t))
        return action(s, t, x, *run)

    monkeypatch.setattr(qms, "expm_action", counted)
    gen = random_unital_gkls(8, 23)
    ts = np.linspace(0.05, 2.0, 24)
    rec = trajectory(gen, random_state(8, 24), density(np.eye(8) / 8), ts)
    debruijn_residual(rec, h=1e-4)
    assert expm_calls == []
    assert sum(evolved) <= 2 * (ts[-1] + 1e-4)


def test_flows_debruijn_run_makes_five_exponential_calls(monkeypatch, expm_calls):
    """On a d = 16 flows job, trajectory takes a step to its first node and one
    run; debruijn_residual a step, one run over the t - h states, one stack."""
    calls = []
    action = scipy.sparse.linalg.expm_multiply

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return action(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", counted)
    gen = random_unital_gkls(16, 5, spread=1.7 * math.sqrt(16))  # as the flows jobs scale theirs
    ts = np.linspace(0.05, 2.0, 24)
    rec = trajectory(gen, random_state(16, 6), density(np.eye(16) / 16), ts)
    assert len(calls) == 2
    assert debruijn_residual(rec, h=1e-4) < 1e-6
    assert len(calls) <= 5 and expm_calls == []
    assert calls[-1] == (256, 24)  # the t + h states, one 2h step of the stack


def test_debruijn_quotient_matches_per_time_evolve():
    """Interior nodes divide by the 2h step between t - h and t + h; a node
    with t < h takes rho0 and rho0 evolved to t + h."""
    gen = random_unital_gkls(4, 31)
    rho0, sigma = random_state(4, 32), density(np.eye(4) / 4)
    h = 1e-4

    def want(ts):
        rec = trajectory(gen, rho0, sigma, ts)
        out = []
        for t, prod in zip(ts, rec.productions):
            lo = max(t - h, 0.0)
            d_lo, d_hi = (rel_entropy(qms.evolve(gen, rho0, s), sigma) for s in (lo, t + h))
            out.append(abs((d_hi - d_lo) / (t + h - lo) + prod))
        return rec, max(out)

    rec, inner = want(np.linspace(0.3, 1.2, 4))
    assert debruijn_residual(rec, h) == pytest.approx(inner, abs=1e-10)
    for ts in ([0.0, 5e-5, 0.3], [0.0, 5e-5]):  # with and without interior nodes
        rec, edge = want(np.array(ts))
        assert edge > 1e-6  # the one-sided nodes carry the first-order error
        assert debruijn_residual(rec, h) == pytest.approx(edge, rel=1e-6)


@pytest.mark.parametrize("h", [1e-17, 1e-300])
def test_debruijn_step_below_the_grid_resolution_raises_before_any_exponential(
    monkeypatch, expm_calls, h
):
    rec = trajectory(depolarizing(2), bloch_diag(0.5), MAX_MIX_2, [0.0, 0.5, 1.0])
    actions = []
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", lambda *a, **k: actions.append(a))
    expm_calls.clear()
    with pytest.raises(InputError, match="resolution"):
        debruijn_residual(rec, h=h)
    assert actions == [] and expm_calls == []


def test_fm_check_takes_its_grid_in_any_order():
    sem = build_ball_semigroup("coxeter", 2, 2)
    (rho,) = state_samples(sem.ball.size, sem.phi, SamplerConfig(count=1), seed=2)
    want = fm_check(sem.gen, rho, sem.phi, 2.0, [0.1, 0.5, 1.0, 2.0])
    assert fm_check(sem.gen, rho, sem.phi, 2.0, [1.0, 0.1, 2.0, 0.5, 1.0]) == want


@pytest.mark.parametrize("bad, error", [(-0.1, DomainError), (float("nan"), InputError)])
def test_fm_check_rejects_a_bad_time_before_any_exponential(monkeypatch, expm_calls, bad, error):
    actions = []
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", lambda *a, **k: actions.append(a))
    with pytest.raises(error):
        fm_check(depolarizing(2), bloch_diag(0.8), MAX_MIX_2, 2.0, [0.5, bad])
    assert expm_calls == [] and actions == []


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


def random_unital_gkls(d, seed, spread=None):
    """Hamiltonian plus two scaled Haar-unitary jumps: unital, not symmetric.

    With spread, the Hamiltonian is scaled to that spectral spread."""
    rng = np.random.default_rng(seed)

    def haar():
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = h + h.conj().T
    if spread is not None:
        w = np.linalg.eigvalsh(h)
        h *= spread / (w[-1] - w[0])
    return gkls_generator(hamiltonian=h, jumps=[np.sqrt(0.8) * haar(), np.sqrt(0.5) * haar()])


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
    rows = [_ratio(gen, fp, m)[:2] for m in mats]
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
    r, _, _ = _ratio(gen, fp, rho_arr)
    assert r is not None
    assert counts == {"numpy.linalg.eigh": 1, "numpy.linalg.eigvalsh": 1, "zhegvd": 1}
    # rho and its projection share the one batched eigh
    assert ("numpy.linalg.eigh", (2, 5, 5)) in shapes


def nonunital_gkls(d, seed):
    """Hamiltonian plus two Gaussian jumps, with its faithful invariant state (not 1/d)."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
    gen = gkls_generator(hamiltonian=h + h.conj().T, jumps=jumps)
    return gen, invariant_states(gen)


GRADIENT_MODELS = {
    "coxeter-2-2-d5": RATE_MODELS["coxeter-2-2-d5"],
    "depolarizing-d3": RATE_MODELS["depolarizing-d3"],
    "nonunital-gkls-d3": lambda: nonunital_gkls(3, 14),
}


@pytest.mark.parametrize("name", sorted(GRADIENT_MODELS))
def test_ratio_gradient_matches_central_differences(name):
    # d(I/D)[K] = tr(G K) on trace-zero Hermitian K, against the central
    # difference at step 1e-6, to 1e-6 of the norm of G's trace-zero part
    gen, phi = GRADIENT_MODELS[name]()
    fp = fixed_point_expectation(gen, phi)
    rng = np.random.default_rng(17)
    d = gen.dim
    mats = [s.mat for s in state_samples(d, phi, SamplerConfig(count=8), seed=16)]
    mats += polish_candidates(phi, rng, 8)
    checked = 0
    for mat in mats:
        r, _, grad = _ratio(gen, fp, mat)
        if r is None:
            continue
        k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        k = k + k.conj().T
        k -= np.trace(k) / d * np.eye(d)
        k /= np.linalg.norm(k)
        step = 1e-6
        central = (_ratio(gen, fp, mat + step * k)[0] - _ratio(gen, fp, mat - step * k)[0]) / (2 * step)
        scale = np.linalg.norm(grad - np.trace(grad) / d * np.eye(d))
        assert abs(np.vdot(grad, k).real - central) <= 1e-6 * scale
        checked += 1
    assert checked >= 12


@pytest.mark.parametrize(
    "spectrum",
    [(0.1, 0.3, 0.6), (1 / 3, 1 / 3, 1 / 3), (0.2, 0.2 + 1e-12, 0.6 - 1e-12)],
    ids=["distinct", "degenerate", "close-pair"],
)
def test_dlog_matches_the_block_logarithm(spectrum):
    # log [[A, K], [0, A]] = [[log A, Dlog_A[K]], [0, log A]]
    rng = np.random.default_rng(23)
    w = np.array(spectrum)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    a = (u * w) @ u.conj().T
    k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    k = k + k.conj().T
    block = np.block([[a, k], [np.zeros((3, 3)), a]])
    expected = scipy.linalg.logm(block)[:3, 3:]
    got = _dlog(SpectralDecomposition(w, u), k)
    assert np.allclose(got, expected, rtol=0, atol=1e-9 * np.linalg.norm(expected))


def test_polish_stops_at_a_domain_exit_and_keeps_the_best_checked_point(monkeypatch):
    gen, phi = coxeter_ball_model()
    kernel = entropyflow._ratio
    checked = []

    def exits_once(gen_, fp, mat):
        # the 15th evaluation of the first restart leaves the domain
        if len(checked) == 40 + 14:
            checked.append("exit")
            raise DomainError("forced exit")
        row = kernel(gen_, fp, mat)
        checked.append(row[0])
        return row

    monkeypatch.setattr(entropyflow, "_ratio", exits_once)
    rep = mlsi_estimate(gen, phi, SamplerConfig(count=40), seed=1, restarts=2, polish_budget=60)
    assert checked[54] == "exit"
    assert len(checked) > 56  # the second restart ran after the exit
    assert rep.beta_ratio != 1e6
    assert rep.beta_ratio in checked
    assert rep.beta_ratio <= min(r for r in checked[:40] if r is not None)


def test_polish_allocates_no_simplex():
    # a Nelder-Mead simplex on the 2 d^2 = 5618 real entries of A at d = 53
    # is 5619 x 5618 doubles, 253 MB
    sem = build_ball_semigroup("free", 2, 3)
    assert sem.gen.dim == 53
    tracemalloc.start()
    try:
        rep = mlsi_estimate(sem.gen, sem.phi, seed=1, restarts=1, polish_budget=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.beta_ratio > 0.0
    assert peak <= 64 * 2**20


def per_state_certificate(gen, phi, beta, samples):
    """The decay certificate's margins as one loop over states and grid times.

    Each state is evolved alone, by the propagator's matrix-vector product,
    and gets evolve's postconditions and rel_entropy one at a time.
    """
    fp = fixed_point_expectation(gen, phi)
    margins = []
    for rho in samples:
        sig = fp.project_state(rho)
        d0 = rel_entropy(rho, sig)
        margin = math.inf
        if math.isfinite(d0) and d0 >= ENTROPY_FLOOR:
            for t in np.linspace(0.05, 3.0 / max(beta, 0.5), 10):
                out = unvec(gen.presemigroup(float(t)).matrix @ vec(rho.mat), gen.dim)
                dt = rel_entropy(qms._evolved_density(rho, out), sig)
                margin = min(margin, math.exp(-beta * t) * d0 - dt + 1e-8 * (1.0 + d0))
        margins.append(margin)
    return margins


def free_ball_model():
    ball = build_ball_semigroup("free", 2, 2)
    return ball.gen, ball.phi


CERTIFICATE_MODELS = {
    "coxeter-2-2-d5": (coxeter_ball_model, 12),
    "unital-gkls-d4": (RATE_MODELS["unital-gkls-d4"], 12),
    "depolarizing-d3": (RATE_MODELS["depolarizing-d3"], 12),
    "free-2-2-d17": (free_ball_model, 30),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_MODELS))
def test_decay_certificate_matches_the_per_state_loop(monkeypatch, name):
    """Seeded differential test of the stacked certificate against one state at a time.

    Every margin is bit-identical, on kernels and dense generators, with a
    converged sample (phi itself) among them, and with the samples cut
    into several stacks: at d = 17 by the module's own entry budget,
    elsewhere by a budget of five states.
    """
    make, count = CERTIFICATE_MODELS[name]
    gen, phi = make()
    samples = state_samples(gen.dim, phi, SamplerConfig(count=count), seed=17) + [phi]
    if count * gen.dim**2 <= qms._STACK_ENTRIES:
        monkeypatch.setattr(qms, "_STACK_ENTRIES", 5 * gen.dim**2)
    assert len(qms._chunks(count, gen.dim**2)) > 1
    rep = decay_certificate(gen, phi, 2.0, samples)
    want = per_state_certificate(gen, phi, 2.0, samples)
    assert [row["margin"] for row in rep.per_state] == want
    assert rep.worst_margin == min(want)
    assert want[-1] == math.inf and rep.per_state[-1]["ok"]


def test_decay_certificate_makes_one_eigh_per_grid_time_and_stack(monkeypatch):
    gen, phi = free_ball_model()
    samples = state_samples(gen.dim, phi, SamplerConfig(count=30), seed=5)
    shapes = []
    eigh = np.linalg.eigh

    def counted(a):
        shapes.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rep = decay_certificate(gen, phi, 2.0, samples)
    # the diagonal samples sit at the fixed point and are not evolved
    live = sum(math.isfinite(row["margin"]) for row in rep.per_state)
    size = qms._STACK_ENTRIES // gen.dim**2

    def stacks(n):
        return [(min(size, n - i), 17, 17) for i in range(0, n, size)]

    assert len(stacks(live)) > 1 and size > 1
    # one batched eigh per stack of projections, then one per stack of live
    # samples at each of the 10 grid times
    assert Counter(shapes) == Counter(stacks(30) + stacks(live) * 10)


def test_decay_certificate_memory_is_bounded_by_its_stacks():
    gen, phi = free_ball_model()
    samples = state_samples(gen.dim, phi, SamplerConfig(count=100), seed=5)
    tracemalloc.start()
    try:
        decay_certificate(gen, phi, 2.0, samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 10**6


@pytest.mark.parametrize(
    "grid, error",
    [([0.1, np.nan], InputError), ([0.1, np.inf], InputError), ([0.1, -0.5], DomainError), ([], InputError)],
    ids=["nan", "inf", "negative", "empty"],
)
@pytest.mark.parametrize("model", ["coxeter-2-2-d5", "depolarizing-d2"])
def test_decay_certificate_checks_its_grid_before_any_exponential(monkeypatch, model, grid, error):
    gen, phi = RATE_MODELS[model]()
    samples = state_samples(gen.dim, phi, SamplerConfig(count=3), seed=2)
    calls = []
    monkeypatch.setattr(qms, "expm_superop", lambda *args: calls.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            decay_certificate(gen, phi, 2.0, samples, t_grid=grid)
    assert calls == []
    if grid and not np.isfinite(grid[-1]):
        # the exponential refuses a non-finite time itself, kernel or dense
        with pytest.raises(InputError, match="finite"):
            matcore.expm_superop(gen.schroedinger, -grid[-1])


def scalar_rel_entropy(dr, rho_trace, ds):
    """D from two spectra as sums over the supports, for one pair of states."""
    p = np.clip(dr.eigenvalues, 0.0, None)
    q = np.clip(ds.eigenvalues, 0.0, None)
    p_on = p > SUPPORT_CUTOFF * p[-1]
    q_on = q > SUPPORT_CUTOFF * q[-1]
    p_sup = p[p_on]
    overlap = (np.abs(dr.eigenvectors.conj().T @ ds.eigenvectors) ** 2).compress(p_on, axis=0)
    leak = float(p_sup @ overlap.compress(~q_on, axis=1).sum(axis=1)) if (~q_on).any() else 0.0
    if leak > 1e-10 * rho_trace:
        return math.inf
    return float(p_sup @ np.log(p_sup)) - float(p_sup @ overlap.compress(q_on, axis=1) @ np.log(q[q_on]))


def random_states(rng, d, count, rank=None):
    g = rng.normal(size=(count, d, rank or d)) + 1j * rng.normal(size=(count, d, rank or d))
    m = g @ g.conj().swapaxes(-1, -2)
    return [density(x / np.trace(x).real) for x in m]


@pytest.mark.parametrize("d", [2, 3, 5, 8, 17])
def test_stacked_relative_entropy_matches_the_sums_over_the_supports(d):
    """On faithful states a stack of one and a stack of 30 give the scalar sums' bits."""
    rng = np.random.default_rng(40 + d)
    rhos, sigmas = random_states(rng, d, 30), random_states(rng, d, 30)
    want = [scalar_rel_entropy(r.op.spectrum, r.trace, s.op.spectrum) for r, s in zip(rhos, sigmas)]
    assert [rel_entropy(r, s) for r, s in zip(rhos, sigmas)] == want
    pw, pv = herm_eig_batch(np.array([r.mat for r in rhos]))
    qw, qv = herm_eig_batch(np.array([s.mat for s in sigmas]))
    traces = np.array([r.trace for r in rhos])
    assert statespace._rel_entropy_spectral(pw, pv, traces, qw, qv).tolist() == want
    # a singular reference: a faithful state leaks into its kernel, the state itself does not
    pure = random_states(rng, d, 1, rank=1)[0]
    assert rel_entropy(rhos[0], pure) == math.inf
    assert math.isclose(rel_entropy(pure, pure), 0.0, abs_tol=1e-12)


@pytest.mark.parametrize("name", sorted(RATE_MODELS))
def test_sample_map_matches_the_ratio_kernel_without_gradients(monkeypatch, name):
    gen, phi = RATE_MODELS[name]()
    fp = fixed_point_expectation(gen, phi)
    samples = state_samples(gen.dim, phi, SamplerConfig(count=30), seed=8) + [phi]
    want = [_ratio(gen, fp, s.mat)[:2] for s in samples]
    dlogs = []
    monkeypatch.setattr(entropyflow, "_dlog", lambda *args: dlogs.append(args))
    monkeypatch.setattr(qms, "_STACK_ENTRIES", 2 * 7 * gen.dim**2)  # stacks of 7 samples
    assert entropyflow._sample_ratios(gen, fp, samples) == want
    assert dlogs == []


def test_sample_map_raises_like_the_ratio_kernel():
    # pinching keeps the roundoff-negative diagonal entry: the projection is
    # clamped, and the clamped reference is not faithful
    gen = schur_generator(np.ones((3, 3)) - np.eye(3))
    fp = fixed_point_expectation(gen, MAX_MIX_3)
    mat = np.array([[0.5, 0.2, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, -1e-12]], dtype=complex)
    with pytest.raises(DomainError) as kernel:
        _ratio(gen, fp, mat)
    with pytest.raises(DomainError) as mapped:
        entropyflow._sample_ratios(gen, fp, [MAX_MIX_3, density(mat)])
    assert str(mapped.value) == str(kernel.value)
