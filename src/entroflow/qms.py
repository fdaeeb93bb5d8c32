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
superoperator matrix in the Heisenberg picture.  Raw input is vetted:
unitality, Hermiticity preservation, and complete positivity of
exp(-tL) at spot-check times.

A Schur generator holds only the d x d kernel of its multiplier (see
matcore.SuperOperator), so its propagators, evolutions and fixed-point
projections are entrywise; the other variants hold dense d^2 x d^2
matrices.  A generator keeps nothing else: every propagator and fixed
point is built when asked for, and a caller that applies one
propagator to many states holds it itself.

The stationary structure is the spectral projection at 0, a
semisimple eigenvalue of a QMS generator.  For a dense generator the
conditional expectation E onto the fixed points (fixed_point_expectation)
and the projection onto invariant states (invariant_states) are both
read off one SVD; for a Schur generator E is the 0/1 pattern of the
zeros of its symbol.  phi-symmetry (gns_symmetry_residual) is checked
on the generator itself, not on the semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericalError
from .matcore import (
    HermitianOperator,
    SuperOperator,
    as_herm,
    choi_matrix,
    clamp_psd,
    expm_action,
    expm_superop,
    herm_eig,  # noqa: F401  unused here; perfbench/tests/test_tracer.py looks it up
    is_herm_preserving,
    mat_fn,
    schur_multiplier_super,
    unvec,
    vec,
)
from .statespace import Density

_CP_CHECK_TIMES = (0.1, 1.0)
_CP_TOL = 1e-9


@dataclass(frozen=True)
class Generator:
    """Generator of a quantum Markov semigroup.

    heisenberg / schroedinger are the superoperator matrices of L and
    L_*; they are trace-pairing adjoints of each other.
    """

    dim: int
    heisenberg: SuperOperator
    schroedinger: SuperOperator
    symbol: np.ndarray | None = None

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
    if np.linalg.norm(lu) > 1e-10 * max(1.0, np.linalg.norm(l_heis.matrix)):
        raise InputError(f"generator is not unital: ||L(1)|| = {np.linalg.norm(lu):.3e}")


def _check_cp_semigroup(l_heis: SuperOperator, times=_CP_CHECK_TIMES):
    for t in times:
        c = choi_matrix(expm_superop(l_heis, -t))
        lo = float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])
        if lo < -_CP_TOL:
            raise InputError(
                f"exp(-tL) is not completely positive at t={t}: min Choi eig {lo:.3e}"
            )


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

    The symbol must be real symmetric, entrywise >= 0, with zero
    diagonal; exp(-t*symbol) must be entrywise a PSD kernel for the
    semigroup to be completely positive, which is spot-checked.  A
    complex symbol with a nonzero imaginary part is rejected.  L and
    L_* are the Schur multiplier of the symbol, held as its kernel.
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
    if not np.allclose(psi, psi.T, atol=1e-12):
        raise InputError("symbol must be symmetric")
    if np.any(psi < 0):
        raise InputError("symbol must be entrywise nonnegative")
    if np.any(np.abs(np.diag(psi)) > 1e-12):
        raise InputError("symbol must have zero diagonal")
    for t in _CP_CHECK_TIMES:
        k = np.exp(-t * psi)
        lo = float(np.linalg.eigvalsh((k + k.T) / 2)[0])
        if lo < -1e-10:
            raise InputError(
                f"exp(-t*symbol) is not a PSD kernel at t={t}: min eig {lo:.3e}"
            )
    m = schur_multiplier_super(psi)
    return Generator(dim=d, heisenberg=m, schroedinger=m, symbol=psi)


def raw_generator(matrix) -> Generator:
    """Build a generator from a raw Heisenberg superoperator matrix.

    Validates unitality, Hermiticity preservation, and complete
    positivity of exp(-tL) at spot-check times; rejects e.g. the
    transpose map dressed up as a semigroup.
    """
    heis = matrix if isinstance(matrix, SuperOperator) else SuperOperator(matrix)
    d = heis.dim
    if not is_herm_preserving(heis):
        raise InputError("raw generator does not preserve Hermiticity")
    _check_unital(heis, d)
    _check_cp_semigroup(heis)
    return Generator(dim=d, heisenberg=heis, schroedinger=heis.adjoint())


def evolve(gen: Generator, rho: Density, t: float) -> Density:
    """Schroedinger evolution of a state: exp(-t L_*) rho.

    When t * ||L_*||_1 is at most d^2, the side of L_*, it applies the
    exponential to rho alone (expm_action); a longer time, where one
    scaling-and-squaring exponential is cheaper than the series on the
    vector, applies the propagator gen.presemigroup(t).  Neither is
    kept.  Postconditions (see _evolved_density): trace preserved
    within 1e-10 (relative), output PSD within -1e-9 (slightly negative
    eigenvalues are clamped and logged).
    """
    if rho.dim != gen.dim:
        raise InputError("state dimension does not match generator")
    if t < 0:
        raise DomainError(f"semigroup time must be >= 0, got {t}")
    s = gen.schroedinger
    # ||L_*||_1, the largest absolute column sum; on a diagonal, max |psi|
    norm1 = np.abs(s.matrix).sum(axis=0).max() if s.kernel is None else np.abs(s.kernel).max()
    if t * norm1 <= gen.dim**2:
        return _evolved_density(rho, expm_action(s, -t, rho.mat))
    return _evolved_density(rho, gen.presemigroup(t).apply(rho.mat))


def _evolved_density(rho: Density, out: np.ndarray) -> Density:
    """Density of out, the computed exp(-t L_*) rho, after evolve's postconditions.

    The Hermitian part of out must keep rho's trace within 1e-10
    (relative), or NumericalError is raised; eigenvalues in [-1e-9, 0)
    are clamped (see _clamped_density).
    """
    out = (out + out.conj().T) / 2
    tr_out = float(np.trace(out).real)
    if abs(tr_out - rho.trace) > 1e-10 * max(1.0, rho.trace):
        raise NumericalError(
            f"evolution broke trace preservation: {rho.trace:.12e} -> {tr_out:.12e}"
        )
    return _clamped_density(out, "evolved state")


def _clamped_density(out: np.ndarray, what: str) -> Density:
    """Density of a computed, nearly-PSD Hermitian matrix (see clamp_psd).

    The operator that clamp_psd decomposed is handed on unless it had to
    be clamped, so the state keeps the spectrum already computed.
    """
    h = HermitianOperator(out)
    clamped = clamp_psd(h, tol=1e-9, what=what)
    return Density(h if clamped is h.mat else HermitianOperator(clamped))


def _spectral_projection_zero(m: np.ndarray, empty: str):
    """Projection onto ker(m) along ran(m), and an orthonormal basis of ker(m).

    One SVD m = U S V^dag gives both kernels: the trailing columns of V
    span ker(m), those of U span ker(m^dag).  With v and w those bases,
    the projection is v (w^dag v)^-1 w^dag, which needs 0 to be a
    semisimple eigenvalue: w^dag v is singular exactly when it is
    defective.  An empty kernel raises NumericalError with message empty.
    """
    u, s, vh = np.linalg.svd(m)
    # svd lists singular values descending; the kernel is the trailing block
    k = int((s <= 1e-10 * max(s.max(initial=0.0), 1.0)).sum())
    if k == 0:
        raise NumericalError(empty)
    v = vh[-k:].conj().T
    w = u[:, -k:]
    try:
        x = np.linalg.solve(w.conj().T @ v, w.conj().T)
    except np.linalg.LinAlgError:
        x = None
    # w has orthonormal columns, so ||x|| = ||(w^dag v)^-1||: 1/cos of the
    # widest angle between the two kernels, unbounded as 0 turns defective
    if x is None or not np.linalg.norm(x) < 1e8:
        raise NumericalError("zero eigenvalue of the generator is defective")
    return v @ x, v


@dataclass(frozen=True)
class InvariantStates:
    """Stationary structure of a semigroup in the Schroedinger picture."""

    basis: tuple  # PSD Densities spanning the stationary cone
    hermitian_basis: tuple  # orthonormal Hermitian kernel basis (arrays)
    faithful_exists: bool
    faithful_state: Density | None


def _hermitian_frame(d: int) -> np.ndarray:
    """Unitary whose columns are vec of a trace-orthonormal basis of Hermitian matrices.

    Column j*d+i belongs to the matrix unit E_ij: E_ii itself, and for
    i < j (E_ij + E_ji)/sqrt(2), for i > j i(E_ij - E_ji)/sqrt(2).  A
    superoperator that preserves Hermiticity is real in this frame.
    """
    t = np.zeros((d * d, d * d), dtype=complex)
    r = 1 / np.sqrt(2)
    for i in range(d):
        for j in range(d):
            c, c_t = j * d + i, i * d + j  # vec indices of E_ij and E_ji
            if i == j:
                t[c, c] = 1.0
            elif i < j:
                t[c, c] = t[c_t, c] = r
            else:
                t[c, c], t[c_t, c] = 1j * r, -1j * r
    return t


def invariant_states(gen: Generator) -> InvariantStates:
    """Kernel of L_* intersected with Hermitian matrices, plus faithfulness flag.

    L_* preserves Hermiticity, so in the Hermitian frame it is a real
    matrix whose kernel is exactly the Hermitian part of ker(L_*): one
    SVD gives an orthonormal Hermitian basis of it and the projection
    E_* that carries 1/d to the faithful mean.
    """
    d = gen.dim
    t = _hermitian_frame(d)
    l_real = (t.conj().T @ gen.schroedinger.matrix @ t).real
    proj, kern = _spectral_projection_zero(
        l_real, "trace-preserving semigroup lost its stationary state"
    )
    herm_basis = [unvec(t @ c, d) for c in kern.T]
    # the frame keeps E_ii, so 1/d has the same coordinates in it
    mean = unvec(t @ (proj @ vec(np.eye(d) / d)), d)
    mean_min = float(np.linalg.eigvalsh(mean)[0])
    faithful = mean_min > 1e-10
    faithful_state = None
    if faithful:
        faithful_state = Density(HermitianOperator(mean / np.trace(mean).real))

    basis = []
    for h in herm_basis:
        # orient so the dominant spectral weight is positive
        w = np.linalg.eigvalsh(h)
        if abs(w[0]) > abs(w[-1]):
            h = -h
        lo = float(np.linalg.eigvalsh(h)[0])
        if lo >= -1e-12:
            cand = h
        elif faithful:
            # shift along the faithful mean until PSD
            cand = h + (1.1 * abs(lo) / mean_min) * mean
        else:
            continue
        tr = float(np.trace(cand).real)
        if tr <= 1e-12:
            continue
        basis.append(Density(HermitianOperator(cand / tr)))
    return InvariantStates(
        basis=tuple(basis),
        hermitian_basis=tuple(herm_basis),
        faithful_exists=faithful,
        faithful_state=faithful_state,
    )


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
    d = gen.dim
    # row (a, i) of F L is sum_b phi[b, a] * row (b, i) of L: a d x d^3 product
    fl = (phi.mat.T @ gen.heisenberg.matrix.reshape(d, -1)).reshape(d * d, d * d)
    return float(np.abs(fl.conj().T - fl).max())


def is_gns_symmetric(gen: Generator, phi: Density, tol: float = 1e-8) -> bool:
    return gns_symmetry_residual(gen, phi) <= tol


@dataclass(frozen=True)
class FixedPointData:
    """Conditional expectation onto the fixed-point algebra and its predual."""

    expectation: SuperOperator  # E, Heisenberg picture
    predual: SuperOperator  # E_*, acts on states
    phi: Density

    def project_state(self, rho: Density) -> Density:
        return _clamped_density(self.project_matrix(rho.mat), "projected state")

    def project_matrix(self, mat) -> np.ndarray:
        """Hermitian part of E_*(mat): project_state before its PSD clamp."""
        out = self.predual.apply(mat)
        return (out + out.conj().T) / 2


def _validate_expectation(fp: FixedPointData, gen: Generator, tol: float = 1e-9):
    """Raise NumericalError unless fp is a conditional expectation for gen.

    E must be idempotent, unital and CP and absorb P_0.5 and P_2 on both
    sides, and E_* must fix phi.  A Schur multiplier E is checked on its
    kernel: Schur multipliers compose entrywise, and the Choi matrix of
    x -> K * x has the spectrum of K's Hermitian part plus zeros.
    """
    d = gen.dim
    e = fp.expectation
    schur = e.kernel is not None
    e_mat = e.kernel if schur else e.matrix
    compose = np.multiply if schur else np.matmul
    scale = max(1.0, np.linalg.norm(e_mat))
    if np.linalg.norm(compose(e_mat, e_mat) - e_mat) > tol * scale:
        raise NumericalError("fixed-point expectation is not idempotent")
    if np.linalg.norm(e.apply(np.eye(d)) - np.eye(d)) > tol:
        raise NumericalError("fixed-point expectation is not unital")
    if schur:
        lo = min(float(np.linalg.eigvalsh((e_mat + e_mat.conj().T) / 2)[0]), 0.0)
    else:
        c = choi_matrix(e)
        lo = float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])
    if lo < -1e-8:
        raise NumericalError(f"fixed-point expectation is not CP: min Choi eig {lo:.3e}")
    for t in (0.5, 2.0):
        p = expm_superop(gen.heisenberg, -t)
        p = p.kernel if schur else p.matrix
        if np.linalg.norm(compose(e_mat, p) - e_mat) > 1e-8 * scale or np.linalg.norm(
            compose(p, e_mat) - e_mat
        ) > 1e-8 * scale:
            raise NumericalError("expectation does not absorb the semigroup")
    # phi-preservation: tr(phi E(x)) = tr(phi x) for all x, i.e. E_* phi = phi
    f = fp.phi.mat
    if np.linalg.norm(fp.predual.apply(f) - f) > 1e-8 * max(1.0, np.linalg.norm(f)):
        raise NumericalError("expectation does not preserve the reference state")


def fixed_point_expectation(gen: Generator, phi: Density) -> FixedPointData:
    """Conditional expectation E onto ker(L), with predual E_*.

    phi must be a faithful invariant state.  0 is a semisimple
    eigenvalue of the generator of a QMS, so E is the spectral
    projection onto ker(L) along ran(L).  For a dense L one SVD gives
    ker(L) and ker(L^dag), and E = v (w^dag v)^-1 w^dag (see
    _spectral_projection_zero).  A Schur generator is diagonal, so E =
    E_* is the Schur multiplier of the 0/1 pattern |psi| <= 1e-10 *
    max(max |psi|, 1), the cutoff that route puts on the singular
    values.  E is then checked: idempotent, unital, CP, absorbing P_t
    on both sides and preserving phi, or NumericalError is raised.  For
    a phi-symmetric semigroup E is orthogonal in <x,y> = tr(phi x^dag y).
    E is built, and checked, on every call.
    """
    if phi.dim != gen.dim:
        raise InputError("state dimension does not match generator")
    if not phi.is_faithful():
        raise DomainError("reference state must be faithful")
    resid = np.linalg.norm(gen.schroedinger.apply(phi.mat))
    if resid > 1e-8 * max(1.0, np.linalg.norm(phi.mat)):
        raise DomainError(f"reference state is not invariant: ||L_* phi|| = {resid:.3e}")

    heis = gen.heisenberg
    if heis.kernel is not None:
        size = np.abs(heis.kernel)
        pattern = size <= 1e-10 * max(size.max(initial=0.0), 1.0)
        if not pattern.any():
            raise NumericalError("generator has no fixed points")
        e = schur_multiplier_super(pattern)
    else:
        e_mat, _ = _spectral_projection_zero(heis.matrix, "generator has no fixed points")
        e = SuperOperator._owned(e_mat)
    fp = FixedPointData(expectation=e, predual=e.adjoint(), phi=phi)
    _validate_expectation(fp, gen)
    return fp


def _weighted_implementation(gen: Generator, phi: Density) -> np.ndarray:
    """g L g^-1 with g vec(x) = vec(x phi^(1/2)).

    It is L in the phi-weighted inner product, Hermitian exactly when
    the semigroup is phi-symmetric.  g and g^-1 = kron((phi^-1/2)^T, 1)
    both come from phi's memoized spectrum.
    """
    eye = np.eye(gen.dim)
    g = np.kron(mat_fn(phi.op, np.sqrt).T, eye)
    ginv = np.kron(mat_fn(phi.op, lambda x: 1 / np.sqrt(x)).T, eye)
    return g @ gen.heisenberg.matrix @ ginv


def spectral_gap(gen: Generator, phi: Density) -> float:
    """Smallest nonzero eigenvalue of L in the phi-weighted implementation.

    Requires the semigroup to be phi-symmetric (within 1e-8); the
    weighted implementation is then Hermitian with real spectrum.
    """
    if not phi.is_faithful():
        raise DomainError("reference state must be faithful")
    if not is_gns_symmetric(gen, phi):
        raise DomainError("spectral gap requires a state-symmetric semigroup")
    l2 = _weighted_implementation(gen, phi)
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
