"""Quantum Markov semigroups on matrix algebras.

Sign convention: the generator L is positive, the Heisenberg semigroup
is P_t = exp(-t L) acting on observables, and the Schroedinger picture
evolves states by the trace-pairing adjoint, d/dt rho_t = -L_*(rho_t).
For GKLS data (H, {V_k}) this means

    L(x)   = -i[H, x] + sum_k ( {V_k^dag V_k, x}/2 - V_k^dag x V_k )
    L_*(r) =  i[H, r] + sum_k ( {V_k^dag V_k, r}/2 - V_k r V_k^dag )

so L(1) = 0 (unital) and tr L_*(r) = 0 (trace preserving).

Three generator variants are supported: explicit GKLS data, a Schur
multiplier symbol acting entrywise on matrix units, and a raw
superoperator matrix in the Heisenberg picture.  Schur and raw input
must give CP maps exp(-tL) for every t >= 0, decided exactly and with no
exponential by one Choi spectrum (matcore._choi_floor).

A generator holds L and L_* as matcore.SuperOperators, and only
matcore knows how each is stored.  A generator keeps nothing else:
every propagator and fixed point is built when asked for, and a caller
that evolves many states by one propagator applies it to them as one
stack.

The stationary structure is the spectral projection E at 0, a
semisimple eigenvalue of a QMS generator, built in one place
(matcore._fixed_point_projection).  The conditional expectation onto
the fixed points (fixed_point_expectation) is E itself, and the
faithful invariant state (invariant_states) is E_*(1/d).  phi-symmetry
(gns_symmetry_residual) is checked on the generator itself, not on the
semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericalError
from .matcore import (
    HermitianOperator,
    SpectralDecomposition,
    SuperOperator,
    _choi_floor,
    _clamp_spectrum,
    _fixed_point_projection,
    _hermitian_part,
    as_herm,
    expm_action,
    expm_superop,
    herm_eig,  # noqa: F401  unused here; perfbench/tests/test_tracer.py looks it up
    herm_eig_batch,
    is_herm_preserving,
    mat_fn,
    schur_multiplier_super,
)
from .statespace import Density, _checked_trace

# Most matrix entries in one stack of states that is decomposed at once:
# evolve's postconditions on a run, and the sample map and the decay
# certificate of entropyflow, cut their stacks to this size.  That bounds
# the memory of a stacked step whatever the number of states, and at d = 17
# a larger stack saves no time, since there each state's eigh dominates.
_STACK_ENTRIES = 2048


def _chunks(count: int, entries: int) -> list:
    """Slices that cut count items, of entries matrix entries each, into
    stacks of at most _STACK_ENTRIES entries (of one item if it is larger)."""
    size = max(1, _STACK_ENTRIES // entries)
    return [slice(i, i + size) for i in range(0, count, size)]


@dataclass(frozen=True)
class Generator:
    """Generator of a quantum Markov semigroup.

    heisenberg / schroedinger are the superoperator matrices of L and
    L_*; they are trace-pairing adjoints of each other.
    """

    dim: int
    heisenberg: SuperOperator
    schroedinger: SuperOperator

    def semigroup(self, t: float) -> SuperOperator:
        """Heisenberg semigroup P_t = exp(-t L)."""
        if t < 0:
            raise DomainError(f"semigroup time must be >= 0, got {t}")
        return self._propagator("h", self.heisenberg, t)

    def presemigroup(self, t: float) -> SuperOperator:
        """Schroedinger semigroup exp(-t L_*) acting on states."""
        if t < 0:
            raise DomainError(f"semigroup time must be >= 0, got {t}")
        return self._propagator("s", self.schroedinger, t)

    def _propagator(self, tag: str, gen: SuperOperator, t: float) -> SuperOperator:
        # tag ("h" or "s") names the picture for perfbench/tracer.py, which wraps this
        return expm_superop(gen, -t)


def _check_unital(l_heis: SuperOperator, dim: int):
    lu = l_heis.apply(np.eye(dim))
    if np.linalg.norm(lu) > 1e-10 * max(1.0, l_heis.norm()):
        raise InputError(f"generator is not unital: ||L(1)|| = {np.linalg.norm(lu):.3e}")


def gkls_generator(hamiltonian=None, jumps=(), dim: int | None = None) -> Generator:
    """Build a generator from GKLS data (Hamiltonian and jump operators)."""
    if hamiltonian is None and not jumps:
        raise InputError("need a Hamiltonian or at least one jump operator")
    if hamiltonian is not None:
        h = as_herm(hamiltonian).mat
        d = h.shape[0]
    else:
        d = np.asarray(jumps[0], dtype=complex).shape[0]
        h = np.zeros((d, d), dtype=complex)
    if dim is not None and dim != d:
        raise InputError(f"declared dim {dim} does not match operator size {d}")
    eye = np.eye(d)
    vs = [np.asarray(v, dtype=complex) for v in jumps]
    for v in vs:
        if v.shape != (d, d):
            raise InputError(f"jump operator shape {v.shape} does not match dim {d}")
    # Heisenberg: L(x) = -i[H,x] + sum {V^dag V, x}/2 - V^dag x V
    l_h = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    # Schroedinger: L_*(r) = +i[H,r] + sum {V^dag V, r}/2 - V r V^dag
    l_s = 1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v in vs:
        k = v.conj().T @ v
        anti = 0.5 * (np.kron(eye, k) + np.kron(k.T, eye))
        l_h += anti - np.kron(v.T, v.conj().T)
        l_s += anti - np.kron(v.conj(), v)
    heis = SuperOperator._owned(l_h)
    _check_unital(heis, d)
    return Generator(dim=d, heisenberg=heis, schroedinger=SuperOperator._owned(l_s))


def schur_generator(symbol) -> Generator:
    """Build the Schur-multiplier generator L(E_gh) = symbol[g,h] * E_gh.

    The symbol must be real, symmetric to 1e-12, entrywise >= 0, with
    zero diagonal, and conditionally negative definite (J symbol J <= 1e-12
    * max symbol, J = 1 - 11^T/d): Schoenberg's criterion for every
    exp(-t*symbol) to be a PSD kernel.  L and L_* are the Schur
    multiplier of the symbol, held as its kernel.
    """
    psi = np.asarray(symbol)
    if np.iscomplexobj(psi):
        if np.any(psi.imag != 0):
            raise InputError("symbol must be real")
        psi = psi.real
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
        raise InputError(f"symbol must be square, got {psi.shape}")
    d = psi.shape[0]
    if not np.allclose(psi, psi.T, rtol=0, atol=1e-12):
        raise InputError("symbol must be symmetric")
    if np.any(psi < 0):
        raise InputError("symbol must be entrywise nonnegative")
    if np.any(np.abs(np.diag(psi)) > 1e-12):
        raise InputError("symbol must have zero diagonal")
    lo = _choi_floor(schur_multiplier_super(-psi), off_omega=True)
    if lo < -1e-12 * psi.max(initial=0.0):
        raise InputError(f"exp(-t*symbol) is not a PSD kernel for small t: max eig of J symbol J {-lo:.3e}")
    m = schur_multiplier_super(psi)
    return Generator(dim=d, heisenberg=m, schroedinger=m)


def raw_generator(matrix) -> Generator:
    """Build a generator from a raw Heisenberg superoperator matrix.

    Validates Hermiticity preservation, unitality, and conditional complete
    positivity of -L (Choi floor off Omega >= -1e-12 * ||L||_1): with them, CP
    of every exp(-tL); rejects e.g. the transpose map dressed up as a semigroup.
    """
    heis = matrix if isinstance(matrix, SuperOperator) else SuperOperator(matrix)
    d = heis.dim
    if not is_herm_preserving(heis):
        raise InputError("raw generator does not preserve Hermiticity")
    _check_unital(heis, d)
    lo = _choi_floor(SuperOperator._owned(-heis.matrix), off_omega=True)
    if lo < -1e-12 * heis.norm(1):
        raise InputError(f"exp(-tL) is not completely positive for small t: Choi floor of -L {lo:.3e}")
    return Generator(dim=d, heisenberg=heis, schroedinger=heis.adjoint())


def evolve(gen: Generator, rho: Density, t: float) -> Density:
    """Schroedinger evolution of a state: exp(-t L_*) rho.

    The exponential is applied by _propagated: to rho alone
    (expm_action) while t * ||L_*||_1 is at most d^2, the side of L_*,
    and through the propagator gen.presemigroup(t) past that, where one
    scaling-and-squaring exponential is cheaper than the series on the
    vector.  Neither is kept.  Postconditions (see _evolved_density):
    trace preserved within 1e-10 (relative), output PSD within -1e-9
    (slightly negative eigenvalues are clamped and logged).  A grid of
    times goes through _evolve_along, which evolves the state once, each
    evenly spaced stretch of the grid in one call.
    """
    if rho.dim != gen.dim:
        raise InputError("state dimension does not match generator")
    if t < 0:
        raise DomainError(f"semigroup time must be >= 0, got {t}")
    return _evolved_density(rho, _propagated(gen, rho.mat, t, gen.schroedinger.norm(1)))


# Sorted times count as evenly spaced, and form a run, when each is within
# this many ulp of its largest time from the linspace of their two ends.
_RUN_ULPS = 4


def _evolve_along(gen: Generator, rho0: Density, times) -> list:
    """[exp(-t L_*) rho0 for t in times], in the order given.

    The distinct times are taken in ascending order and split into runs:
    stretches that are evenly spaced to rounding (_run_end).  A run
    starts from the state at its first time and is evolved to the rest
    in one call of evolve's route (_propagated), so the time evolved adds
    up to max(times), not to their sum, and a linspace grid takes one
    step from rho0 to its first time and one run.  A run is cut where
    its span would leave the action route, and a grid that is not evenly
    spaced is a chain of single steps.  Every state gets evolve's PSD
    clamp, and its trace is checked against rho0's, not the previous
    state's, so rounding cannot drift along the chain past evolve's
    1e-10.  A repeated time shares its state, and the state at time 0 is
    rho0 itself.  Every time must be finite (else InputError) and
    nonnegative (else DomainError); both are checked before any
    exponential.
    """
    if rho0.dim != gen.dim:
        raise InputError("state dimension does not match generator")
    ts = _checked_times(times)
    norm1 = gen.schroedinger.norm(1)
    u, where = np.unique(ts, return_inverse=True)
    states = [rho0] if u.size and u[0] == 0.0 else []
    while len(states) < u.size:
        k = len(states)
        if k == 0:  # rho0 is not on the grid: one step to its first time
            start, now, j = rho0, 0.0, 0
        else:
            start, now, j = states[-1], u[k - 1], _run_end(gen, norm1, u, k - 1)
        out = _propagated(gen, start.mat, float(u[j] - now), norm1, j - k + 1)
        states.extend(_evolved_density(rho0, out.reshape(-1, gen.dim, gen.dim)))
    return [states[w] for w in where]


def _checked_times(times) -> np.ndarray:
    """times as a flat float array, once every time is finite (else
    InputError) and nonnegative (else DomainError)."""
    ts = np.asarray(times, dtype=float).ravel()
    if not np.all(np.isfinite(ts)):
        raise InputError(f"evolution times must be finite, got {ts[~np.isfinite(ts)][0]}")
    if np.any(ts < 0):
        raise DomainError(f"semigroup time must be >= 0, got {ts.min()}")
    return ts


def _run_end(gen: Generator, norm1: float, u: np.ndarray, i: int) -> int:
    """Index of the last time of the run that starts at u[i], at least i + 1.

    u[i..j] is a run when it is within _RUN_ULPS ulp of u[j] of
    linspace(u[i], u[j], j - i + 1) and, past a single step, its span
    stays on the action route.  j is found by doubling and then bisecting,
    so a grid of n times costs O(n log n) comparisons.
    """

    def run(j: int) -> bool:
        seg = u[i : j + 1]
        even = np.abs(seg - np.linspace(seg[0], seg[-1], seg.size)).max()
        return _takes_action(gen, seg[-1] - seg[0], norm1) and even <= _RUN_ULPS * np.spacing(seg[-1])

    good, bad = i + 1, i + 2
    while bad < u.size and run(bad):
        good, bad = bad, i + 2 * (bad - i)
    bad = min(bad, u.size)
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if run(mid) else (good, mid)
    return good


def _step_all(gen: Generator, rho0: Density, states, t: float) -> list:
    """[exp(-t L_*) s for s in states], one stack stepped in one call of evolve's route.

    Every state must have been evolved from rho0: each result gets
    evolve's PSD clamp and its trace is checked against rho0's.
    """
    if not states:
        return []
    mats = np.array([s.mat for s in states])
    return _evolved_density(rho0, _propagated(gen, mats, t, gen.schroedinger.norm(1)))


def _takes_action(gen: Generator, t: float, norm1: float) -> bool:
    """The route rule of every evolution: expm_action while t * norm1 <= d^2, the side of L_*."""
    return t * norm1 <= gen.dim**2


def _propagated(gen: Generator, mat: np.ndarray, t: float, norm1: float, num: int = 1) -> np.ndarray:
    """exp(-t L_*) mat, computed; norm1 is gen.schroedinger.norm(1).

    mat is one matrix or a stack of them, all stepped by t; num > 1
    makes a run of num evenly spaced steps up to t (see expm_action).
    The one route choice of every evolution: expm_action while
    _takes_action, gen.presemigroup(t) past that, where _run_end has
    left only single steps.
    """
    if _takes_action(gen, t, norm1):
        return expm_action(gen.schroedinger, -t, mat, num)
    return gen.presemigroup(t).apply(mat)


def _evolved_density(rho: Density, out: np.ndarray):
    """Density of out, the computed exp(-t L_*) rho, after evolve's postconditions.

    out is one matrix, or a stack of them that were all evolved from rho;
    a stack gives a list of densities.  The postconditions run on stacks
    of at most _STACK_ENTRIES entries at once (see _evolved_spectra),
    each matrix's trace checked against rho's, and each density keeps
    the spectrum they computed.
    """
    stack = out.reshape(-1, rho.dim, rho.dim)
    states = []
    for part in _chunks(len(stack), rho.dim**2):
        states.extend(_densities(*_evolved_spectra(rho.trace, stack[part])[:3]))
    return states if out.ndim == 3 else states[0]


def _evolved_spectra(traces, out: np.ndarray) -> tuple:
    """evolve's postconditions on a stack (k, d, d) of computed states exp(-t L_*) rho_i.

    traces holds the trace of each rho_i (k of them, or one for all).  The
    Hermitian part of every matrix must keep its own rho_i's trace within
    1e-10 (relative), or NumericalError is raised; then every matrix is
    made a density by _clamped_spectra.  Returns (mats, w, v, tr) as that
    does.
    """
    mats = out + out.swapaxes(-1, -2).conj()
    mats /= 2
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    ref = np.broadcast_to(np.asarray(traces, dtype=float), tr.shape)
    off = np.abs(tr - ref) > 1e-10 * np.maximum(ref, 1.0)
    if off.any():
        i = np.flatnonzero(off)[0]
        raise NumericalError(
            f"evolution broke trace preservation: {ref[i]:.12e} -> {tr[i]:.12e}"
        )
    return _clamped_spectra(mats, "evolved state")


def _clamped_spectra(mats: np.ndarray, what: str) -> tuple:
    """A stack (k, d, d) of computed, nearly-PSD Hermitian matrices, made densities.

    One batched eigh decomposes them all (herm_eig_batch).  A matrix whose
    least eigenvalue is in [-1e-9, 0) is clamped as clamp_psd clamps it,
    logged and decomposed again, that matrix alone; one below -1e-9
    raises NumericalError.  Every matrix then passes the checks of a
    density.  Returns (mats, w, v, tr): the matrices, replaced in place
    where clamped, their eigenvalues and eigenvectors, and their traces.
    """
    w, v = herm_eig_batch(mats)
    for i in np.flatnonzero(w[:, 0] < 0.0):
        clamped = _clamp_spectrum(SpectralDecomposition(w[i], v[i]), mats[i], what)
        mats[i] = _hermitian_part(clamped)
        wi, vi = herm_eig_batch(mats[i : i + 1])
        w[i], v[i] = wi[0], vi[0]
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    for lo, hi, t in zip(w[:, 0].tolist(), w[:, -1].tolist(), tr.tolist()):
        _checked_trace(lo, hi, t)
    return mats, w, v, tr


def _densities(mats: np.ndarray, w: np.ndarray, v: np.ndarray) -> list:
    """Densities of a stack of Hermitian matrices, each keeping its computed spectrum."""
    return [Density(HermitianOperator._decomposed(*item)) for item in zip(mats, w, v)]


def invariant_states(gen: Generator) -> Density | None:
    """The faithful invariant state E_*(1/d), or None if there is none.

    E_* is positive and fixes every invariant state sigma, so sigma =
    E_* sigma <= d ||sigma|| E_*(1/d): a faithful invariant state exists
    exactly when E_*(1/d) is faithful (least eigenvalue above 1e-10).
    """
    d = gen.dim
    mean = _fixed_point_projection(gen.heisenberg).adjoint().apply(np.eye(d) / d)
    mean = (mean + mean.conj().T) / 2
    if float(np.linalg.eigvalsh(mean)[0]) <= 1e-10:
        return None
    return Density(HermitianOperator(mean / np.trace(mean).real))


def _weigh(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """kron(a^T, 1) @ m for d x d a and d^2 x d^2 m, as one d x d^3 product.

    kron(a^T, 1) is the matrix of x -> x a; row (i, k) of the product
    is sum_j a[j, i] * row (j, k) of m.
    """
    d = a.shape[0]
    return (a.T @ m.reshape(d, -1)).reshape(d * d, d * d)


def gns_symmetry_residual(gen: Generator, phi: Density) -> float:
    """Deviation from phi-symmetry of the generator, max over matrix-unit pairs.

    Measures |tr(phi L(x)^dag y) - tr(phi x^dag L(y))| for all matrix
    units x, y: the entries of L^dag F - F L with F = kron(phi^T, 1),
    the matrix of x -> x phi.  F is Hermitian, so that is the
    anti-Hermitian part of F L.  Zero means every P_t = exp(-tL) is
    symmetric in the phi-weighted (GNS) inner product.
    """
    if phi.dim != gen.dim:
        raise InputError("state dimension does not match generator")
    fl = _weigh(phi.mat, gen.heisenberg.matrix)
    return float(np.abs(fl.conj().T - fl).max())


@dataclass(frozen=True)
class FixedPointData:
    """Conditional expectation onto the fixed-point algebra and its predual."""

    expectation: SuperOperator  # E, Heisenberg picture
    predual: SuperOperator  # E_*, acts on states
    phi: Density

    def project_state(self, rho: Density) -> Density:
        return self.project_states([rho])[0]

    def project_states(self, states) -> list:
        """[project_state(s) for s in states]: E_*(s), clamped to a density, as one stack.

        The Hermitian parts of the projections are made densities by
        _clamped_spectra, each clamped alone where it dipped below 0.
        """
        mats = self.project_matrix(np.array([s.mat for s in states]))
        return _densities(*_clamped_spectra(mats, "projected state")[:3])

    def project_matrix(self, mat) -> np.ndarray:
        """Hermitian part of E_*(mat), of each matrix of a stack: project_state before its PSD clamp."""
        out = self.predual.apply(mat)
        return (out + out.swapaxes(-1, -2).conj()) / 2


def _validate_expectation(fp: FixedPointData, gen: Generator):
    """Raise NumericalError unless fp is a conditional expectation for gen.

    E must be idempotent, unital and CP with LE = EL = 0, which is E P_t =
    P_t E = E for every t, and E_* must fix phi.  The norms of E E - E,
    LE and EL are Frobenius norms of SuperOperators, taken in the form
    they are stored in.
    """
    d = gen.dim
    e, l = fp.expectation, gen.heisenberg
    if (e @ e - e).norm() > 1e-9 * max(1.0, e.norm()):
        raise NumericalError("fixed-point expectation is not idempotent")
    if np.linalg.norm(e.apply(np.eye(d)) - np.eye(d)) > 1e-9:
        raise NumericalError("fixed-point expectation is not unital")
    lo = _choi_floor(e)
    if lo < -1e-8:
        raise NumericalError(f"fixed-point expectation is not CP: min Choi eig {lo:.3e}")
    # relative to max |L| as _fixed_point_projection's zero cutoff is, so a 0/1 pattern E passes
    tol = 1e-10 * max(l.norm("max"), 1.0) * e.norm()
    if max((l @ e).norm(), (e @ l).norm()) > tol:
        raise NumericalError("expectation does not absorb the semigroup")
    # phi-preservation: tr(phi E(x)) = tr(phi x) for all x, i.e. E_* phi = phi
    f = fp.phi.mat
    if np.linalg.norm(fp.predual.apply(f) - f) > 1e-8 * max(1.0, np.linalg.norm(f)):
        raise NumericalError("expectation does not preserve the reference state")


def fixed_point_expectation(gen: Generator, phi: Density) -> FixedPointData:
    """Conditional expectation E onto ker(L), with predual E_*.

    phi must be a faithful invariant state.  0 is a semisimple
    eigenvalue of the generator of a QMS, so E is the spectral
    projection onto ker(L) along ran(L) (matcore._fixed_point_projection).
    E is then checked, with no exponential: idempotent, unital, CP, LE =
    EL = 0 and preserving phi, or NumericalError is raised.  For a
    phi-symmetric semigroup E is orthogonal in <x,y> = tr(phi x^dag y).
    E is built, and checked, on every call.
    """
    if phi.dim != gen.dim:
        raise InputError("state dimension does not match generator")
    if not phi.is_faithful():
        raise DomainError("reference state must be faithful")
    resid = np.linalg.norm(gen.schroedinger.apply(phi.mat))
    if resid > 1e-8 * max(1.0, np.linalg.norm(phi.mat)):
        raise DomainError(f"reference state is not invariant: ||L_* phi|| = {resid:.3e}")

    e = _fixed_point_projection(gen.heisenberg)
    fp = FixedPointData(expectation=e, predual=e.adjoint(), phi=phi)
    _validate_expectation(fp, gen)
    return fp


def spectral_gap(gen: Generator, phi: Density) -> float:
    """Smallest nonzero eigenvalue of L in the phi-weighted implementation.

    The weighted implementation is g L g^-1 with g = kron((phi^1/2)^T, 1),
    the matrix of x -> x phi^(1/2): L in the phi-weighted inner product.
    It requires the semigroup to be phi-symmetric (within 1e-8), and is
    then Hermitian with real spectrum.  g and g^-1 come from phi's
    memoized spectrum and act as two d x d^3 products (see _weigh).
    """
    if not phi.is_faithful():
        raise DomainError("reference state must be faithful")
    if gns_symmetry_residual(gen, phi) > 1e-8:
        raise DomainError("spectral gap requires a state-symmetric semigroup")
    root = mat_fn(phi.op, np.sqrt)
    root_inv = mat_fn(phi.op, lambda x: 1 / np.sqrt(x))
    # (g L) g^-1 = (kron(root_inv, 1) (g L)^T)^T
    l2 = _weigh(root_inv.T, _weigh(root, gen.heisenberg.matrix).T).T
    herm_resid = np.linalg.norm(l2 - l2.conj().T)
    if herm_resid > 1e-7 * max(1.0, np.linalg.norm(l2)):
        raise NumericalError(
            f"weighted implementation failed to be Hermitian: residual {herm_resid:.3e}"
        )
    w = np.linalg.eigvalsh((l2 + l2.conj().T) / 2)
    top = max(abs(w[0]), abs(w[-1]), 1.0)
    nz = w[np.abs(w) > 1e-10 * top]
    if nz.size == 0:
        raise DomainError("generator is zero; no spectral gap")
    gap = float(nz.min())
    if gap <= 0:
        raise NumericalError(f"weighted implementation has negative spectrum: {gap:.3e}")
    return gap
