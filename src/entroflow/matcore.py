"""Dense linear-algebra core: Hermitian operators, spectral calculus, superoperators.

Conventions used throughout the package:

- Vectorization is column-major ("stack the columns"), so that
  vec(A X B) = (B^T (x) A) vec(X).  All superoperator matrices are
  written in this convention.
- Hermitian inputs are symmetrized at construction, (A + A^dag)/2,
  rather than rejected for roundoff-level asymmetry.
- Spectral support is decided relative to the largest eigenvalue:
  eigenvalues below support_cutoff * max_eig count as zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import InputError, NumericalError

logger = logging.getLogger(__name__)

# Default relative threshold separating numerical kernel from support.
SUPPORT_CUTOFF = 1e-12

# Construction rejects inputs whose asymmetry exceeds this (relative Frobenius).
_ASYM_TOL = 1e-6


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a square matrix."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec for a dim x dim matrix."""
    return np.asarray(v).reshape((dim, dim), order="F")


@dataclass(frozen=True)
class HermitianOperator:
    """A finite-dimensional Hermitian matrix, symmetrized at construction."""

    mat: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        sym = _hermitian_part(self.mat)
        sym.setflags(write=False)
        object.__setattr__(self, "mat", sym)
        object.__setattr__(self, "dim", sym.shape[0])

    @property
    def spectrum(self) -> "SpectralDecomposition":
        """Eigendecomposition of this operator, computed on first use and kept.

        The operator is immutable, so one herm_eig (with its residual
        check) serves every later spectral read.  setdefault keeps the
        memo write-once when threads race on the first read.
        """
        dec = self.__dict__.get("_spectrum")
        if dec is None:
            dec = self.__dict__.setdefault("_spectrum", herm_eig(self))
        return dec

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


def _hermitian_part(mat) -> np.ndarray:
    """(A + A^dag)/2 of a finite square matrix that is Hermitian up to _ASYM_TOL."""
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError("matrix has non-finite entries")
    ah = a.conj().T
    scale = max(_frobenius(a), 1.0)
    asym = _frobenius(a - ah)
    if asym > _ASYM_TOL * scale:
        raise InputError(
            f"matrix is not Hermitian: relative asymmetry {asym / scale:.3e}"
        )
    return (a + ah) / 2.0


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a complex array, in one BLAS call."""
    return math.sqrt(np.vdot(a, a).real)


def as_herm(x) -> HermitianOperator:
    """Coerce an array-like or HermitianOperator to HermitianOperator."""
    if isinstance(x, HermitianOperator):
        return x
    return HermitianOperator(np.asarray(x, dtype=complex))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and an orthonormal eigenbasis of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=complex)
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)


def herm_eig(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending.

    Always decomposes afresh; HermitianOperator.spectrum is the memoized read.
    """
    return herm_eig_batch(as_herm(a).mat)[0]


def herm_eig_batch(*mats: np.ndarray) -> tuple:
    """herm_eig of Hermitian matrices of one size, in one batched eigh.

    The inputs must already be Hermitian, as HermitianOperator.mat is.
    LAPACK decomposes each matrix of the stack on its own, so every
    result has the bits a separate eigh gives.  Each decomposition must
    reconstruct its matrix to within 1e-10 * max(1, max |eig|) * dim in
    Frobenius norm, or NumericalError is raised.
    """
    w, v = np.linalg.eigh(np.array(mats, dtype=complex))
    decs = []
    for wk, vk, mat in zip(w, v, mats):
        resid = _frobenius((vk * wk) @ vk.conj().T - mat)
        # eigenvalues ascend, so the largest magnitude is -wk[0] or wk[-1]
        if resid > 1e-10 * max(1.0, -wk[0], wk[-1]) * len(wk):
            raise NumericalError(f"eigendecomposition residual too large: {resid:.3e}")
        decs.append(SpectralDecomposition(wk, vk))
    return tuple(decs)


def mat_fn(a, f, support_cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Apply a scalar function to a PSD matrix through its eigenvalues.

    Eigenvalues below support_cutoff * max_eig are treated as exact
    zeros and mapped to 0 in the output (the function is never called
    on them), so f = log and f = inverse powers are safe on singular
    PSD inputs.  A min eigenvalue below -1e-8 * max_eig is rejected.
    """
    return _spectral_fn(as_herm(a).spectrum, f, support_cutoff)


def _spectral_fn(dec: SpectralDecomposition, f, support_cutoff: float) -> np.ndarray:
    """mat_fn of the PSD matrix whose decomposition is dec."""
    w = dec.eigenvalues  # ascending
    top = max(float(w[-1]), 0.0)
    if top <= 0.0:
        if w[0] < -1e-12:
            raise InputError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
        return np.zeros_like(dec.eigenvectors)
    if w[0] < -1e-8 * top:
        raise InputError(
            f"matrix is not PSD: min eigenvalue {w[0]:.3e} vs max {top:.3e}"
        )
    cut = support_cutoff * top
    fw = np.zeros_like(w)
    on = w > cut
    fw[on] = [float(f(x)) for x in w[on]]
    return (dec.eigenvectors * fw) @ dec.eigenvectors.conj().T


def support_projector(a, support_cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Orthogonal projection onto the numerical range of a PSD matrix."""
    dec = as_herm(a).spectrum
    w = dec.eigenvalues
    top = float(w.max(initial=0.0))
    on = w > support_cutoff * top if top > 0 else np.zeros_like(w, dtype=bool)
    v = dec.eigenvectors[:, on]
    return v @ v.conj().T


def min_eig(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(as_herm(a).mat)[0])


def trace_norm(a) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(as_herm(a).mat)).sum())


def op_norm(a) -> float:
    """Operator norm of a Hermitian matrix."""
    w = np.linalg.eigvalsh(as_herm(a).mat)
    return float(np.abs(w).max())


class SuperOperator:
    """Linear map on dim x dim matrices, held in one of two forms.

    A dense map holds its dim^2 x dim^2 matrix, which acts on column-major
    vectorizations: apply(X) = unvec(matrix @ vec(X)).  A Schur
    multiplier X -> K * X (entrywise) holds only its dim x dim kernel K;
    its matrix is diagonal with vec(K) on the diagonal, built whenever
    .matrix is read and never kept.  On kernels apply, @, adjoint,
    expm_superop and expm_action act entrywise; on a real kernel, as a
    Schur generator's is, they give the bits the diagonal matrix gives.
    kernel is None for a dense map.  Immutable.
    """

    __slots__ = ("_matrix", "kernel", "dim")

    def __init__(self, matrix):
        # C order even for a transposed view: the layout sets how apply rounds.
        # A copy, so that freezing it leaves the caller's array writable.
        self._freeze(np.array(matrix, dtype=complex, order="C"), None)

    @classmethod
    def _owned(cls, m: np.ndarray) -> "SuperOperator":
        """SuperOperator of an array just computed here, which no caller holds.

        The array is frozen in place instead of copied; it is copied only
        if it is not already complex and in C order.
        """
        s = object.__new__(cls)
        s._freeze(np.asarray(m, dtype=complex, order="C"), None)
        return s

    @classmethod
    def _schur(cls, diag: np.ndarray) -> "SuperOperator":
        """Schur multiplier whose kernel is unvec(diag), a fresh complex vector."""
        s = object.__new__(cls)
        s._freeze(None, unvec(diag, math.isqrt(diag.shape[0])))
        return s

    def _freeze(self, m, kernel):
        """Validate and freeze the one stored form: matrix m, or kernel if m is None."""
        if m is None:
            a, d = kernel, kernel.shape[0]
        else:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InputError(f"superoperator matrix must be square, got {m.shape}")
            a, d = m, math.isqrt(m.shape[0])
            if d * d != m.shape[0]:
                raise InputError(f"superoperator side {m.shape[0]} is not a square")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise InputError("superoperator has non-finite entries")
        a.setflags(write=False)
        object.__setattr__(self, "_matrix", m)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "dim", d)

    def __setattr__(self, name, value):
        raise AttributeError(f"SuperOperator is immutable; cannot set {name!r}")

    @property
    def matrix(self) -> np.ndarray:
        """The dim^2 x dim^2 matrix; for a Schur multiplier a new diagonal one."""
        if self.kernel is None:
            return self._matrix
        m = np.diag(vec(self.kernel))
        m.setflags(write=False)
        return m

    def apply(self, x) -> np.ndarray:
        a = x.mat if isinstance(x, HermitianOperator) else np.asarray(x, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise InputError(f"operand shape {a.shape} does not match dim {self.dim}")
        if self.kernel is not None:
            # + 0.0 turns -0 into +0, as the diagonal matrix-vector product does
            return unvec(vec(self.kernel) * vec(a) + 0.0, self.dim)
        return unvec(self.matrix @ vec(a), self.dim)

    def __matmul__(self, other: "SuperOperator") -> "SuperOperator":
        if self.dim != other.dim:
            raise InputError("superoperator dimensions do not match")
        if self.kernel is not None and other.kernel is not None:
            return SuperOperator._schur(vec(self.kernel) * vec(other.kernel) + 0.0)
        return SuperOperator._owned(self.matrix @ other.matrix)

    def adjoint(self) -> "SuperOperator":
        """Adjoint with respect to the trace pairing tr(S(x)^dag y)."""
        if self.kernel is not None:
            return SuperOperator._schur(vec(self.kernel).conj())
        return SuperOperator(self.matrix.conj().T)


def schur_multiplier_super(kernel: np.ndarray) -> SuperOperator:
    """Schur multiplier A -> kernel * A (entrywise), held as its kernel.

    Its matrix is diagonal: vec(E_gh) has column-major index h*d+g.
    """
    k = np.array(kernel, dtype=complex, order="F")
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise InputError(f"Schur kernel must be square, got shape {k.shape}")
    return SuperOperator._schur(vec(k))


def conjugation_super(k: np.ndarray) -> SuperOperator:
    """Superoperator of A -> k A k^dag."""
    k = np.asarray(k, dtype=complex)
    return SuperOperator._owned(np.kron(k.conj(), k))


def choi_matrix(s: SuperOperator) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) S(E_ij); PSD iff S is completely positive."""
    d = s.dim
    # matrix[(b, a), (j, i)] holds S(E_ij)[a, b] (column-major vec), and the
    # Choi matrix puts it at row (i, a), column (j, b)
    return s.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def is_herm_preserving(s: SuperOperator, tol: float = 1e-10) -> bool:
    """Whether S maps Hermitian matrices to Hermitian matrices."""
    c = choi_matrix(s)
    scale = max(1.0, np.linalg.norm(c))
    return bool(np.linalg.norm(c - c.conj().T) <= tol * scale)


def expm_superop(s: SuperOperator, t: float) -> SuperOperator:
    """Matrix exponential exp(t * S) of a superoperator.

    A Schur multiplier is exponentiated entrywise, exp(t * kernel) on
    its complex kernel: the bits scipy.linalg.expm gives for the
    diagonal matrix.  A dense map goes through scipy.linalg.expm
    (scaling and squaring).  An overflowed result raises NumericalError.
    """
    if s.kernel is not None:
        out = np.exp(vec(s.kernel) * t)
        _check_exponential(out, s, t)
        return SuperOperator._schur(out)
    out = scipy.linalg.expm(s.matrix * t)
    _check_exponential(out, s, t)
    return SuperOperator._owned(out)


def expm_action(s: SuperOperator, t: float, x) -> np.ndarray:
    """unvec(exp(t * S) vec(x)): the exponential applied to one matrix.

    scipy.sparse.linalg.expm_multiply (Al-Mohy and Higham, 2011) sums
    the Taylor series of exp(t * S) on the vector itself, in about
    |t| * ||S||_1 matrix-vector products, and never forms exp(t * S).
    That beats expm_superop for one operand while |t| * ||S||_1 stays
    below the side of S; past that, expm_superop's scaling and squaring
    is cheaper.  A Schur multiplier is exponentiated entrywise instead,
    as expm_superop does.  A non-finite t raises InputError, a
    non-finite result NumericalError.
    """
    if not math.isfinite(t):
        raise InputError(f"exponential time must be finite, got {t}")
    a = np.asarray(x, dtype=complex)
    if a.shape != (s.dim, s.dim):
        raise InputError(f"operand shape {a.shape} does not match dim {s.dim}")
    if s.kernel is not None:
        out = np.exp(vec(s.kernel) * t) * vec(a)
    else:
        out = scipy.sparse.linalg.expm_multiply(s.matrix * t, vec(a))
    _check_exponential(out, s, t)
    return unvec(out, s.dim)


def _check_exponential(out: np.ndarray, s: SuperOperator, t: float):
    """Raise NumericalError if out, computed from exp(t * S), is not finite."""
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        norm = np.linalg.norm(s.matrix if s.kernel is None else s.kernel)
        raise NumericalError(f"superoperator exponential overflowed at t={t}; ||S||={norm:.3e}")


def clamp_psd(a, tol: float = 1e-9, what: str = "matrix") -> np.ndarray:
    """Zero out slightly negative eigenvalues of a nearly-PSD Hermitian matrix.

    Eigenvalues in [-tol, 0) are clamped to 0 (logged); anything below
    -tol is an error for the caller to raise on, signalled here.  When
    nothing is clamped the result is the operator's own matrix object,
    so a caller that passed a HermitianOperator can tell by identity
    that the operator, and its memoized spectrum, still stand.
    """
    h = as_herm(a)
    return _clamp_spectrum(h.spectrum, h.mat, tol, what)


def _clamp_spectrum(dec: SpectralDecomposition, mat: np.ndarray, tol: float, what: str):
    """clamp_psd of mat, whose decomposition is dec; mat itself if nothing is clamped."""
    w = dec.eigenvalues
    if w[0] >= 0.0:
        return mat
    if w[0] < -tol:
        raise NumericalError(
            f"{what} lost positivity: min eigenvalue {w[0]:.3e} below -{tol:.1e}"
        )
    logger.warning("clamping %s eigenvalues in [%.3e, 0) to zero", what, w[0])
    wc = np.clip(w, 0.0, None)
    return (dec.eigenvectors * wc) @ dec.eigenvectors.conj().T
