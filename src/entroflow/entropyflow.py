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

from .errors import DegenerateInputError, DomainError, InputError, SizeError
from .groupsem import BALL_CAP
from .matcore import (
    SpectralDecomposition,
    _clamp_spectrum,
    _frobenius,
    _hermitian_part,
    herm_eig_batch,
)
from .qms import (
    FixedPointData,
    Generator,
    _checked_times,
    _chunks,
    _evolve_along,
    _evolved_spectra,
    _step_all,
    fixed_point_expectation,
)
from .statespace import (
    Density,
    _balpha_spectral,
    _density_trace,
    _rel_entropy_one,
    _rel_entropy_spectral,
    _rel_hamiltonian_spectral,
    balpha_factor,
    density,
    rel_entropy,
)

# relative entropies below this floor are treated as "already converged"
ENTROPY_FLOOR = 1e-10

# Most numbers a requested sample or grid may hold: BALL_CAP^4, the entries
# of the largest dense superoperator the ball cap admits.
SIZE_BUDGET = BALL_CAP**4

def _spectra(states) -> tuple:
    """(w, v): the eigenvalues and eigenvectors of densities, stacked."""
    decs = [s.op.spectrum for s in states]
    return np.array([dec.eigenvalues for dec in decs]), np.array([dec.eigenvectors for dec in decs])


def entropy_production(gen: Generator, rho: Density, sigma: Density) -> float:
    """Entropy production I(rho || sigma) = tr(L_*(rho) (log rho - log sigma)).

    Requires sigma invariant under the semigroup and rho comparable to
    sigma (finite balpha_factor), so the relative Hamiltonian is
    bounded.
    """
    if rho.dim != gen.dim or sigma.dim != gen.dim:
        raise InputError("state dimensions do not match generator")
    return _production(gen, rho.mat, rho.op.spectrum, sigma.mat, sigma.op.spectrum)[0]


def _production(
    gen: Generator,
    rho_mat: np.ndarray,
    dr: SpectralDecomposition,
    sigma_mat: np.ndarray,
    ds: SpectralDecomposition,
) -> tuple:
    """(I, log rho - log sigma, L_*(rho)): entropy_production from the
    matrices and decompositions of rho and sigma, with the two matrices
    it is read off."""
    resid = _frobenius(gen.schroedinger.apply(sigma_mat))
    if resid > 1e-9 * max(1.0, _frobenius(sigma_mat)):
        raise DomainError(f"reference state is not invariant: ||L_* sigma|| = {resid:.3e}")
    alpha = _balpha_spectral(rho_mat, dr, sigma_mat, ds)
    if alpha is None:
        raise DomainError("state is not comparable to the reference (singular direction)")
    # a finite alpha means both states are faithful
    h = _rel_hamiltonian_spectral(dr, ds, alpha)
    lrho = gen.schroedinger.apply(rho_mat)
    val = (lrho @ h).trace()
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise DomainError(f"entropy production came out non-real: {val:.3e}")
    return float(val.real), h, lrho


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

    rho0 is evolved once along the grid (see qms._evolve_along): an
    evenly spaced grid is one step from rho0 to its first time and one
    run over the rest, two exponential calls in all.
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
    for rt in _evolve_along(gen, rho0, ts):
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

    The derivative is a difference quotient of D between the states at
    max(t - h, 0) and t + h.  At a node with t > h it is a second-order
    central difference: the t - h states are evolved from rho0 as one
    run (see qms._evolve_along), and the t + h states are that stack
    stepped by 2h in one call (qms._step_all), so the quotient divides
    by the 2h step taken.  At a node with t <= h it is a one-sided,
    first-order one: rho0 itself and rho0 evolved to t + h.  The
    residual thus measures the identity d/dt D = -I rather than the
    grid resolution.  h must be positive and finite (else DomainError),
    and large enough that t + h exceeds max(t - h, 0) and the 2h step
    moves t - h at every node (else InputError, before any exponential).
    """
    if not 0 < h < math.inf:
        raise DomainError(f"step must be positive and finite, got {h}")
    gen, rho0, sigma = record.gen, record.rho0, record.sigma
    ts = np.asarray(record.times, dtype=float)
    lo = np.maximum(ts - h, 0.0)
    hi = ts + h
    inner = lo > 0.0
    if np.any(hi <= lo) or np.any(lo[inner] + 2 * h == lo[inner]):
        raise InputError(f"step {h} is below the resolution of the time grid")
    below = _evolve_along(gen, rho0, lo[inner])
    above = _step_all(gen, rho0, below, 2 * h)
    d_lo = np.full(ts.size, rel_entropy(rho0, sigma))
    d_hi = np.empty(ts.size)
    d_lo[inner] = [rel_entropy(s, sigma) for s in below]
    d_hi[inner] = [rel_entropy(s, sigma) for s in above]
    d_hi[~inner] = [rel_entropy(s, sigma) for s in _evolve_along(gen, rho0, hi[~inner])]
    deriv = (d_hi - d_lo) / np.where(inner, 2 * h, hi)
    return float(np.abs(deriv + record.productions).max(initial=0.0))


# The fixed sample mix: a quarter near-pure states, a quarter Dirichlet
# diagonals, the rest sandwiched blends; sample i is blended with phi at
# _BLEND_EPSILONS[i % 2].
_BLEND_EPSILONS = (0.01, 0.1)
_NEAR_PURE_FRACTION = 0.25
_DIRICHLET_FRACTION = 0.25


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic state-sampler settings."""

    count: int = 100


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
    independent of how it is later consumed.  A sample of more than
    SIZE_BUDGET matrix entries raises SizeError before anything is drawn.
    """
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if config.count < 1:
        raise InputError("sampler count must be positive")
    if config.count * dim * dim > SIZE_BUDGET:
        raise SizeError(
            f"sample exceeds the cap of {SIZE_BUDGET} entries: {config.count} x {dim}^2"
        )
    phi_n = phi.normalize()
    n_pure = int(round(_NEAR_PURE_FRACTION * config.count))
    n_dir = int(round(_DIRICHLET_FRACTION * config.count))
    kinds = ["near_pure"] * n_pure + ["dirichlet"] * n_dir
    kinds += ["blend"] * (config.count - len(kinds))
    streams = np.random.SeedSequence(seed).spawn(config.count)
    out = []
    for i, (kind, ss) in enumerate(zip(kinds, streams)):
        eps = _BLEND_EPSILONS[i % len(_BLEND_EPSILONS)]
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


def _dlog(dec: SpectralDecomposition, k: np.ndarray) -> np.ndarray:
    """Derivative of log at a positive definite matrix, in direction k.

    V (G * V^dag k V) V^dag for the decomposition V diag(w) V^dag of the
    matrix, where G holds the divided differences of log on w:
    (log w_i - log w_j) / (w_i - w_j), and 1/w_i where w_i = w_j.  As
    log1p(x)/x / w_j with x = (w_i - w_j)/w_j, close pairs lose no digits.
    """
    w = dec.eigenvalues
    v = dec.eigenvectors
    x = (w[:, None] - w[None, :]) / w[None, :]
    same = x == 0.0
    x1 = np.where(same, 1.0, x)
    g = np.where(same, 1.0, np.log1p(x1) / x1) / w[None, :]
    return v @ (g * (v.conj().T @ k @ v)) @ v.conj().T


def _ratio(gen: Generator, fp: FixedPointData, mat: np.ndarray):
    """(I/D, D, gradient) of the state rho with matrix mat against sigma = E_*(rho).

    The I/D kernel of the rate estimator.  It runs the checks of
    density(mat), fp.project_state, rel_entropy and entropy_production,
    once each and with their tolerances, but decomposes rho and sigma
    together in one batched eigh and reads D, I and the gradient off
    those two spectra.  With h = log rho - log sigma and Dlog the
    derivative of log (see _dlog), on trace-zero Hermitian directions

        grad D = h - E(Dlog_sigma[rho])
        grad I = L(h) + Dlog_rho[L_* rho] - E(Dlog_sigma[L_* rho])
        grad (I/D) = (grad I - (I/D) grad D) / D,

    with L the Heisenberg generator and E the fixed-point expectation;
    the gradient is the Hermitian matrix G with d(I/D)[K] = tr(G K).
    I/D and the gradient are None when D is not finite or below
    ENTROPY_FLOOR.
    """
    rho = _hermitian_part(mat)
    sig = _hermitian_part(fp.project_matrix(rho))
    w, v = herm_eig_batch(np.array([rho, sig]))
    r, d, dr, ds, h, lrho = _ratio_value(gen, rho, sig, w, v)
    if r is None:
        return None, d, None
    grad = (
        gen.heisenberg.apply(h)
        - r * h
        + _dlog(dr, lrho)
        - fp.expectation.apply(_dlog(ds, lrho - r * rho))
    ) / d
    return r, d, (grad + grad.conj().T) / 2


def _ratio_value(gen: Generator, rho: np.ndarray, sig: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple:
    """_ratio up to its gradient: every check, and I/D and D.

    rho and sig are the Hermitian parts of the state and of its
    projection E_*(rho), and w, v (2, d) and (2, d, d) their computed
    spectra.  Returns (I/D, D, dr, ds, h, L_* rho), with dr and ds the
    decompositions of rho and of the reference (re-decomposed if it had
    to be clamped) and h = log rho - log sigma; all but D are None when
    D is not finite or below ENTROPY_FLOOR.
    """
    dr, ds = SpectralDecomposition(w[0], v[0]), SpectralDecomposition(w[1], v[1])
    rho_trace = _density_trace(dr, rho)
    clamped = _clamp_spectrum(ds, sig, "projected state")
    if clamped is not sig:
        sig = _hermitian_part(clamped)
        ws, vs = herm_eig_batch(sig[None])
        ds = SpectralDecomposition(ws[0], vs[0])
    _density_trace(ds, sig)
    d = _rel_entropy_one(dr, rho_trace, ds)
    if not math.isfinite(d) or d < ENTROPY_FLOOR:
        return None, d, None, None, None, None
    # _production refuses a state or reference that is not faithful, so past
    # it sig is E_*(rho) itself: a clamped sig would have a zero eigenvalue
    prod, h, lrho = _production(gen, rho, dr, sig, ds)
    return prod / d, d, dr, ds, h, lrho


def _sample_ratios(gen: Generator, fp: FixedPointData, samples) -> list:
    """[_ratio(gen, fp, s.mat)[:2] for s in samples], without the gradients.

    Every check of _ratio runs on every sample, but the samples and their
    projections are decomposed in one batched eigh per stack of at most
    qms._STACK_ENTRIES entries.
    """
    rows = []
    for part in _chunks(len(samples), 2 * gen.dim**2):
        rhos = np.array([_hermitian_part(s.mat) for s in samples[part]])
        sigs = np.array([_hermitian_part(m) for m in fp.project_matrix(rhos)])
        w, v = herm_eig_batch(np.concatenate([rhos, sigs]))
        k = len(rhos)
        # w[i::k] holds the spectra of sample i and of its projection
        rows.extend(_ratio_value(gen, rhos[i], sigs[i], w[i::k], v[i::k])[:2] for i in range(k))
    return rows


class _DomainExit(Exception):
    """A polish step left the domain of _ratio; the restart ends there."""


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
    by gradient descent (L-BFGS-B with the analytic gradient of _ratio)
    over rho = A A^dag / tr(A A^dag), blended with 1e-6 phi.  Each of
    the restarts (the first from the worst sample, the others perturbed
    from the best point so far) takes at most polish_budget evaluations
    of I/D and its gradient, and ends early when L-BFGS-B converges or
    a step leaves the states where I/D is defined.  beta_ratio is the
    least I/D evaluated.  beta_fit is the decay slope of log D along
    the worst-case trajectory, reported alongside as a cross-check.
    """
    if polish_budget < 1:
        raise InputError(f"polish budget must be >= 1, got {polish_budget}")
    if restarts < 0:
        raise InputError(f"restarts must be >= 0, got {restarts}")
    sampler = sampler or SamplerConfig()
    fp = fixed_point_expectation(gen, phi)
    samples = state_samples(gen.dim, phi, sampler, seed)

    rows = _sample_ratios(gen, fp, samples)
    ratios = []
    skipped = 0
    violations = []
    for idx, (r, _) in enumerate(rows):
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
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(sampler.count + 1)[-1])
    # seed the search at a matrix square root of the worst sample
    dec = worst.op.spectrum
    a0 = (dec.eigenvectors * np.sqrt(np.clip(dec.eigenvalues, 0, None))) @ dec.eigenvectors.conj().T
    best_theta = np.concatenate([a0.real.ravel(), a0.imag.ravel()])
    polished = None  # the state of best_r once a polish step undercuts the samples

    def objective(theta):
        nonlocal best_r, worst_d, polished, best_theta
        a = theta[: d * d].reshape(d, d) + 1j * theta[d * d :].reshape(d, d)
        m = a @ a.conj().T
        tr = np.trace(m).real
        if not np.isfinite(tr) or tr <= 1e-12:
            raise _DomainExit
        m = m / tr
        # tiny faithful blend keeps the objective inside its domain
        cand = 0.999999 * m + 1e-6 * phi_n.mat
        cand = (cand + cand.conj().T) / 2
        try:
            r, d_cand, grad = _ratio(gen, fp, cand)
        except DomainError:
            raise _DomainExit from None
        if r is None:
            raise _DomainExit
        if r < best_r:
            best_r, worst_d, polished, best_theta = r, d_cand, cand, theta.copy()
        # chain rule through rho = 0.999999 m / tr(m) + 1e-6 phi and m = A A^dag
        grad_m = (0.999999 / tr) * (grad - np.vdot(grad, m).real * np.eye(d))
        ga = grad_m @ a
        return r, 2.0 * np.concatenate([ga.real.ravel(), ga.imag.ravel()])

    import scipy.optimize  # only the polish needs it: off the start-up of every other suite

    for k in range(restarts):
        start = best_theta if k == 0 else best_theta + 0.1 * rng.normal(size=best_theta.size)
        try:
            scipy.optimize.minimize(
                objective, start, jac=True, method="L-BFGS-B", options={"maxfun": polish_budget}
            )
        except _DomainExit:
            pass  # best_r already holds the least I/D this restart evaluated
    if polished is not None:
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
    for t, state in zip(ts, _evolve_along(gen, fit_state, ts)):
        dv = rel_entropy(state, sig)
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
    production monotonicity at rate beta for this state.  The grid may
    be in any order and repeat times: rho is evolved once along it in
    ascending order (see qms._evolve_along), and a negative or
    non-finite time raises before any exponential.
    """
    ts = np.asarray(t_grid, dtype=float)
    states = _evolve_along(gen, rho, ts)  # first: it checks the grid before any exponential
    fp = fixed_point_expectation(gen, phi)
    sig = fp.project_state(rho)
    if not sig.is_faithful():
        raise DomainError("projected reference is not faithful for this state")
    i0 = entropy_production(gen, rho, sig)
    worst = -math.inf
    for t, state in zip(ts, states):
        it = entropy_production(gen, state, sig)
        worst = max(worst, it - math.exp(-beta * t) * i0)
    return worst


@dataclass(frozen=True)
class DecayReport:
    """Result of checking D(rho_t) <= e^{-beta t} D(rho_0) over samples."""

    beta: float
    worst_margin: float  # min over samples/times of e^{-beta t} D0 - D(t) + 1e-8 (1 + D0)
    passed: bool
    per_state: tuple


def decay_certificate(
    gen: Generator, phi: Density, beta: float, samples, t_grid=None
) -> DecayReport:
    """Check exponential entropy decay at rate beta across sampled states.

    D0 = D(rho || E_* rho) of each sample; every sample not already at
    the fixed point (D0 finite and at least ENTROPY_FLOOR) is evolved to
    each grid time and checked against e^{-beta t} D0, and its margin is
    the least of e^{-beta t} D0 - D(t) + 1e-8 (1 + D0) over the grid.
    The default grid is ten times from 0.05 to 3 / max(beta, 0.5).  The
    samples are taken as stacks of at most qms._STACK_ENTRIES entries: one
    stacked projection and one stacked relative entropy per stack for
    D0, then, with each grid time's propagator built once, one stacked
    product, one call of evolve's postconditions (qms._evolved_spectra,
    one batched eigh) and one stacked relative entropy per stack and
    time.  An empty or non-finite grid raises InputError and a negative
    time DomainError, before any exponential.
    """
    ts = _checked_times(np.linspace(0.05, 3.0 / max(beta, 0.5), 10) if t_grid is None else t_grid)
    if ts.size == 0:
        raise InputError("t_grid must hold at least one time")
    fp = fixed_point_expectation(gen, phi)
    samples = list(samples)
    sigmas, d0s = [], []  # E_*(rho) and D0 of every sample
    for part in _chunks(len(samples), gen.dim**2):
        rhos = samples[part]
        sigs = fp.project_states(rhos)
        pw, pv = _spectra(rhos)
        d0s.extend(_rel_entropy_spectral(pw, pv, [r.trace for r in rhos], *_spectra(sigs)).tolist())
        sigmas.extend(sigs)
    per_state = [{"sample": idx, "d0": d0, "margin": math.inf, "ok": True} for idx, d0 in enumerate(d0s)]
    # the samples the grid evolves: those not already at the fixed point
    live = [i for i, d0 in enumerate(d0s) if math.isfinite(d0) and d0 >= ENTROPY_FLOOR]
    d0s = np.array(d0s)[live]
    margins = np.full(len(live), math.inf)
    for t in ts if live else ():
        prop = gen.presemigroup(float(t))
        decay = math.exp(-beta * t)
        for part in _chunks(len(live), gen.dim**2):
            rhos = [samples[i] for i in live[part]]
            _, w, v, tr = _evolved_spectra(
                [rho.trace for rho in rhos], prop.apply(np.array([rho.mat for rho in rhos]))
            )
            dt = _rel_entropy_spectral(w, v, tr, *_spectra(sigmas[i] for i in live[part]))
            d0 = d0s[part]
            np.minimum(margins[part], decay * d0 - dt + 1e-8 * (1.0 + d0), out=margins[part])
    for i, margin in zip(live, margins.tolist()):
        per_state[i]["margin"] = margin
        per_state[i]["ok"] = margin >= 0.0
    return DecayReport(
        beta=beta,
        worst_margin=min(margins.tolist(), default=math.inf),
        passed=all(row["ok"] for row in per_state),
        per_state=tuple(per_state),
    )
