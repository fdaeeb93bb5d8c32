"""Entropy flow along a quantum Markov semigroup.

For a semigroup with generator L and an invariant reference state
sigma, the relative entropy t -> D(rho_t || sigma) of an evolving
state is differentiable with

    d/dt D(rho_t || sigma) = -I(rho_t || sigma),
    I(rho || sigma) = tr( L_*(rho) (log rho - log sigma) ),

and I >= 0.  This module computes I, trajectories of (D, I, alpha),
the finite-difference residual of the identity above, and two derived
certificates: a lower estimate of the exponential decay rate

    beta_ratio = inf I/D  over sampled states        (entropy ratio)

and direct checks of I(rho_t)/I(rho_0) <= e^{-beta t} (production
monotonicity) and D(rho_t) <= e^{-beta t} D(rho_0) (decay).

Sampling is deterministic: the sample list is generated up front from
per-index random streams split off one seed, then evaluated in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .errors import DegenerateInputError, DomainError, InputError
from .matcore import (
    SUPPORT_CUTOFF,
    SpectralDecomposition,
    _clamp_spectrum,
    _frobenius,
    _hermitian_part,
    herm_eig_batch,
)
from .qms import FixedPointData, Generator, _evolved_density, evolve, fixed_point_expectation
from .statespace import (
    Density,
    _balpha_spectral,
    _density_trace,
    _rel_entropy_spectral,
    _rel_hamiltonian_spectral,
    balpha_factor,
    density,
    rel_entropy,
)

# relative entropies below this floor are treated as "already converged"
ENTROPY_FLOOR = 1e-10


def entropy_production(gen: Generator, rho: Density, sigma: Density) -> float:
    """Entropy production I(rho || sigma) = tr(L_*(rho) (log rho - log sigma)).

    Requires sigma invariant under the semigroup and rho comparable to
    sigma (finite balpha_factor), so the relative Hamiltonian is
    bounded.
    """
    if rho.dim != gen.dim or sigma.dim != gen.dim:
        raise InputError("state dimensions do not match generator")
    return _production(gen, rho.mat, rho.op.spectrum, sigma.mat, sigma.op.spectrum)


def _production(
    gen: Generator,
    rho_mat: np.ndarray,
    dr: SpectralDecomposition,
    sigma_mat: np.ndarray,
    ds: SpectralDecomposition,
) -> float:
    """entropy_production from the matrices and decompositions of rho and sigma."""
    resid = _frobenius(gen.schroedinger.apply(sigma_mat))
    if resid > 1e-9 * max(1.0, _frobenius(sigma_mat)):
        raise DomainError(f"reference state is not invariant: ||L_* sigma|| = {resid:.3e}")
    alpha = _balpha_spectral(rho_mat, dr, sigma_mat, ds, SUPPORT_CUTOFF)
    if alpha is None:
        raise DomainError("state is not comparable to the reference (singular direction)")
    # a finite alpha means both states are faithful
    h = _rel_hamiltonian_spectral(dr, ds, alpha)
    lrho = gen.schroedinger.apply(rho_mat)
    val = (lrho @ h).trace()
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise DomainError(f"entropy production came out non-real: {val:.3e}")
    return float(val.real)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled trajectory of relative entropy data along the flow."""

    times: np.ndarray
    entropies: np.ndarray  # D(rho_t || sigma)
    productions: np.ndarray  # I(rho_t || sigma)
    alpha_track: np.ndarray  # balpha_factor(rho_t, sigma)
    gen: Generator = field(repr=False)
    rho0: Density = field(repr=False)
    sigma: Density = field(repr=False)


def trajectory(gen: Generator, rho0: Density, sigma: Density, t_grid) -> TrajectoryRecord:
    """Evaluate (D, I, alpha) along the evolution at the given times.

    Only rho0 is evolved, once per node (see evolve).
    """
    ts = np.asarray(t_grid, dtype=float)
    if (
        ts.ndim != 1
        or ts.size == 0
        or not np.all(np.isfinite(ts))
        or np.any(np.diff(ts) <= 0)
        or ts[0] < 0
    ):
        raise InputError("t_grid must be a strictly increasing, finite, nonnegative sequence")
    ds, is_, als = [], [], []
    for t in ts:
        rt = evolve(gen, rho0, float(t))
        ds.append(rel_entropy(rt, sigma))
        is_.append(entropy_production(gen, rt, sigma))
        als.append(balpha_factor(rt, sigma) or math.inf)
    return TrajectoryRecord(
        times=ts,
        entropies=np.array(ds),
        productions=np.array(is_),
        alpha_track=np.array(als),
        gen=gen,
        rho0=rho0,
        sigma=sigma,
    )


def debruijn_residual(record: TrajectoryRecord, h: float = 1e-4) -> float:
    """Max |dD/dt + I| over the trajectory nodes.

    The derivative is a difference quotient of D between two fresh
    evolutions of rho0, to t + h and to max(t - h, 0): a second-order
    central difference at every node with t >= h, and a one-sided,
    first-order one at a node closer than h to 0.  The residual thus
    measures the identity d/dt D = -I rather than the grid resolution.
    h must be positive and finite.  Each evolution is one evolve call.
    """
    if not 0 < h < math.inf:
        raise DomainError(f"step must be positive and finite, got {h}")
    gen, rho0, sigma = record.gen, record.rho0, record.sigma
    worst = 0.0
    for t, prod in zip(record.times, record.productions):
        t = float(t)
        lo = max(t - h, 0.0)
        hi = t + h
        d_hi = rel_entropy(evolve(gen, rho0, hi), sigma)
        d_lo = rel_entropy(evolve(gen, rho0, lo), sigma)
        deriv = (d_hi - d_lo) / (hi - lo)
        worst = max(worst, abs(deriv + prod))
    return worst


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic state-sampler settings."""

    count: int = 100
    blend_epsilons: tuple = (0.01, 0.1)
    near_pure_fraction: float = 0.25
    dirichlet_fraction: float = 0.25


def _sample_one(rng, dim: int, phi_mat: np.ndarray, kind: str, eps: float) -> Density:
    if kind == "dirichlet":
        w = rng.dirichlet(np.ones(dim))
        base = np.diag(w).astype(complex)
        eps = max(eps, 1e-6)
    elif kind == "near_pure":
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        base = np.outer(v, v.conj())
        eps = max(eps, 1e-3)
    else:  # sandwiched Hilbert-Schmidt blend
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        root = np.linalg.cholesky(phi_mat + 1e-14 * np.eye(dim))
        m = root @ (g @ g.conj().T) @ root.conj().T
        base = m / np.trace(m).real
    mix = (1.0 - eps) * base + eps * phi_mat
    mix = (mix + mix.conj().T) / 2
    return density(mix / np.trace(mix).real)


def state_samples(dim: int, phi: Density, config: SamplerConfig, seed: int) -> list:
    """Seeded sample of faithful states comparable to phi.

    Every sample is blended with the faithful reference, which keeps
    balpha_factor finite; the per-index streams make the list
    independent of how it is later consumed.
    """
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if config.count < 1:
        raise InputError("sampler count must be positive")
    if not config.blend_epsilons:
        raise InputError("sampler needs at least one blend epsilon")
    for eps in config.blend_epsilons:
        if not 0.0 <= eps <= 1.0:
            raise InputError(f"blend epsilon must lie in [0, 1], got {eps}")
    fractions = (config.near_pure_fraction, config.dirichlet_fraction)
    if not all(0.0 <= f <= 1.0 for f in fractions) or sum(fractions) > 1.0:
        raise InputError(f"sampler fractions must lie in [0, 1] and sum to <= 1, got {fractions}")
    phi_n = phi.normalize()
    n_pure = int(round(config.near_pure_fraction * config.count))
    n_dir = int(round(config.dirichlet_fraction * config.count))
    kinds = ["near_pure"] * n_pure + ["dirichlet"] * n_dir
    kinds += ["blend"] * (config.count - len(kinds))
    kinds = kinds[: config.count]
    streams = np.random.SeedSequence(seed).spawn(config.count)
    out = []
    for i, (kind, ss) in enumerate(zip(kinds, streams)):
        eps = config.blend_epsilons[i % len(config.blend_epsilons)]
        out.append(_sample_one(np.random.default_rng(ss), dim, phi_n.mat, kind, eps))
    return out


@dataclass(frozen=True)
class MlsiReport:
    """Entropy-ratio estimate of the exponential decay rate."""

    beta_ratio: float
    beta_fit: float
    worst_state: Density
    sample_count: int
    skipped: int
    violations: tuple
    samples: tuple = field(repr=False)  # the seeded states the estimate sampled


def _ratio(gen: Generator, fp: FixedPointData, mat: np.ndarray):
    """(I/D, D) of the state rho with matrix mat against sigma = E_*(rho).

    The I/D kernel of the rate estimator.  It runs the checks of
    density(mat), fp.project_state, rel_entropy and entropy_production,
    once each and with their tolerances, but decomposes rho and sigma
    together in one batched eigh and reads D and I off those two
    spectra.  I/D is None when D is not finite or below ENTROPY_FLOOR.
    """
    rho = _hermitian_part(mat)
    sig = _hermitian_part(fp.project_matrix(rho))
    dr, ds = herm_eig_batch(rho, sig)
    rho_trace = _density_trace(dr, rho)
    clamped = _clamp_spectrum(ds, sig, 1e-9, "projected state")
    if clamped is not sig:
        sig = _hermitian_part(clamped)
        (ds,) = herm_eig_batch(sig)
    _density_trace(ds, sig)
    d = _rel_entropy_spectral(dr, rho_trace, ds, SUPPORT_CUTOFF)
    if not math.isfinite(d) or d < ENTROPY_FLOOR:
        return None, d
    return _production(gen, rho, dr, sig, ds) / d, d


def mlsi_estimate(
    gen: Generator,
    phi: Density,
    sampler: SamplerConfig | None = None,
    seed: int = 0,
    polish_budget: int = 500,
    restarts: int = 8,
) -> MlsiReport:
    """Estimate the optimal entropy decay rate as inf I/D over states.

    Samples states comparable to phi, evaluates the entropy ratio
    I(rho || E_* rho) / D(rho || E_* rho), and polishes the worst case
    with a derivative-free search over rho = A A^dag / tr(A A^dag).
    beta_fit is the decay slope of log D along the worst-case
    trajectory, reported alongside as a cross-check.
    """
    if polish_budget < 1:
        raise InputError(f"polish budget must be >= 1, got {polish_budget}")
    if restarts < 0:
        raise InputError(f"restarts must be >= 0, got {restarts}")
    sampler = sampler or SamplerConfig()
    fp = fixed_point_expectation(gen, phi)
    samples = state_samples(gen.dim, phi, sampler, seed)

    rows = [_ratio(gen, fp, s.mat) for s in samples]
    ratios = []
    skipped = 0
    violations = []
    for idx, (r, d) in enumerate(rows):
        if r is None:
            skipped += 1
            continue
        if r < -1e-10:
            violations.append({"sample": idx, "kind": "negative_ratio", "value": float(r)})
        ratios.append((r, idx))
    if not ratios:
        raise DegenerateInputError(
            "all sampled states already sit at the fixed point; decay rate undefined"
        )
    best_r, best_idx = min(ratios, key=lambda p: p[0])
    worst = samples[best_idx]
    worst_d = rows[best_idx][1]

    d = gen.dim
    phi_n = phi.normalize()

    def unpack(theta):
        a = theta[: d * d].reshape(d, d) + 1j * theta[d * d :].reshape(d, d)
        m = a @ a.conj().T
        tr = np.trace(m).real
        if not np.isfinite(tr) or tr <= 1e-12:
            return None
        m = m / tr
        # tiny faithful blend keeps the objective inside its domain
        m = 0.999999 * m + 1e-6 * phi_n.mat
        return (m + m.conj().T) / 2

    def objective(theta):
        cand = unpack(theta)
        if cand is None:
            return 1e6
        try:
            r, _ = _ratio(gen, fp, cand)
        except DomainError:
            return 1e6
        return r if r is not None else 1e6

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(sampler.count + 1)[-1])
    # seed the search at a matrix square root of the worst sample
    dec = worst.op.spectrum
    a0 = (dec.eigenvectors * np.sqrt(np.clip(dec.eigenvalues, 0, None))) @ dec.eigenvectors.conj().T
    theta0 = np.concatenate([a0.real.ravel(), a0.imag.ravel()])
    best_theta, best_val = theta0, best_r
    for k in range(restarts):
        start = best_theta if k == 0 else best_theta + 0.1 * rng.normal(size=theta0.size)
        res = scipy.optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"maxfev": polish_budget, "xatol": 1e-9, "fatol": 1e-11},
        )
        if res.fun < best_val:
            best_val, best_theta = float(res.fun), res.x
    polished = unpack(best_theta)
    if polished is not None:
        r, d_polished = _ratio(gen, fp, polished)
        if r is not None and r < best_r:
            best_r, worst_d = r, d_polished
            worst = density(polished)

    beta_ratio = float(best_r)

    # decay-rate fit along the worst trajectory, on a window where D is resolved
    fit_state = worst
    if worst_d < 1e-6:
        cands = [(rows[i][1], i) for (_, i) in ratios if rows[i][1] >= 1e-6]
        if cands:
            fit_state = samples[min(cands, key=lambda p: abs(rows[p[1]][0] - best_r))[1]]
    sig = fp.project_state(fit_state)
    horizon = 3.0 / max(beta_ratio, 0.1)
    ts = np.linspace(0.0, horizon, 12)
    logd, used_t = [], []
    for t in ts:
        dv = rel_entropy(evolve(gen, fit_state, float(t)), sig)
        if math.isfinite(dv) and dv > ENTROPY_FLOOR:
            logd.append(math.log(dv))
            used_t.append(t)
    if len(used_t) >= 3:
        slope = np.polyfit(used_t, logd, 1)[0]
        beta_fit = float(-slope)
    else:
        beta_fit = beta_ratio
    return MlsiReport(
        beta_ratio=beta_ratio,
        beta_fit=beta_fit,
        worst_state=worst,
        sample_count=sampler.count,
        skipped=skipped,
        violations=tuple(violations),
        samples=tuple(samples),
    )


def fm_check(gen: Generator, rho: Density, phi: Density, beta: float, t_grid) -> float:
    """Worst violation of I(rho_t) <= e^{-beta t} I(rho_0).

    Returns max over the grid of I(rho_t || E_* rho) - e^{-beta t} *
    I(rho_0 || E_* rho); nonpositive (within tolerance) certifies
    production monotonicity at rate beta for this state.
    """
    fp = fixed_point_expectation(gen, phi)
    sig = fp.project_state(rho)
    if not sig.is_faithful():
        raise DomainError("projected reference is not faithful for this state")
    i0 = entropy_production(gen, rho, sig)
    worst = -math.inf
    for t in np.asarray(t_grid, dtype=float):
        if t < 0:
            raise DomainError("t_grid must be nonnegative")
        it = entropy_production(gen, evolve(gen, rho, float(t)), sig)
        worst = max(worst, it - math.exp(-beta * t) * i0)
    return worst


@dataclass(frozen=True)
class DecayReport:
    """Result of checking D(rho_t) <= e^{-beta t} D(rho_0) over samples."""

    beta: float
    worst_margin: float  # min over samples/times of e^{-beta t} D0 - D(t) + slack
    passed: bool
    per_state: tuple


def decay_certificate(
    gen: Generator,
    phi: Density,
    beta: float,
    samples,
    t_grid=None,
    slack: float = 1e-8,
) -> DecayReport:
    """Check exponential entropy decay at rate beta across sampled states.

    Every grid time's propagator is built once and applied to each
    sample not already at the fixed point, one time at a time.
    """
    fp = fixed_point_expectation(gen, phi)
    if t_grid is None:
        t_grid = np.linspace(0.05, 3.0 / max(beta, 0.5), 10)
    per_state = []
    live = []  # (row, rho, sigma, D0) of every sample the grid evolves
    for idx, rho in enumerate(samples):
        sig = fp.project_state(rho)
        d0 = rel_entropy(rho, sig)
        row = {"sample": idx, "d0": d0, "margin": math.inf, "ok": True}
        per_state.append(row)
        if math.isfinite(d0) and d0 >= ENTROPY_FLOOR:
            live.append((row, rho, sig, d0))
    for t in np.asarray(t_grid, dtype=float) if live else ():
        prop = gen.presemigroup(float(t))
        for row, rho, sig, d0 in live:
            dt = rel_entropy(_evolved_density(rho, prop.apply(rho.mat)), sig)
            row["margin"] = min(row["margin"], math.exp(-beta * t) * d0 - dt + slack * (1.0 + d0))
    worst = math.inf
    for row, _, _, _ in live:
        worst = min(worst, row["margin"])
        row["ok"] = row["margin"] >= 0.0
    return DecayReport(
        beta=beta,
        worst_margin=worst,
        passed=all(row["ok"] for row in per_state),
        per_state=tuple(per_state),
    )
