"""Dense linear-algebra core: Hermitian operators, spectral calculus, superoperators.

Conventions used throughout the package:

- Vectorization is column-major ("stack the columns"), so that
  vec(A X B) = (B^T (x) A) vec(X).  All superoperator matrices are
  written in this convention.
- Hermitian inputs are symmetrized at construction, (A + A^dag)/2,
  rather than rejected for roundoff-level asymmetry.
- Spectral support is decided relative to the largest eigenvalue:
  eigenvalues below SUPPORT_CUTOFF * max_eig count as zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

logger = logging.getLogger(__name__)

# Relative threshold separating numerical kernel from support.
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

    @classmethod
    def _decomposed(cls, mat: np.ndarray, w: np.ndarray, v: np.ndarray) -> "HermitianOperator":
        """The operator of a Hermitian mat, with its computed eigendecomposition (w, v) as spectrum."""
        h = cls(mat)
        h.__dict__["_spectrum"] = SpectralDecomposition(w, v)
        return h

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
    w, v = herm_eig_batch(as_herm(a).mat[None])
    return SpectralDecomposition(w[0], v[0])


def herm_eig_batch(mats: np.ndarray) -> tuple:
    """(w, v): herm_eig of each matrix of a stack (k, n, n), in one batched eigh.

    w (k, n) holds the eigenvalues of each matrix, ascending, and v
    (k, n, n) its orthonormal eigenvectors as columns.  The matrices must
    already be Hermitian, as HermitianOperator.mat is.  LAPACK decomposes
    each matrix of the stack on its own, so every result has the bits a
    separate eigh gives.  Each decomposition must reconstruct its matrix
    to within 1e-10 * max(1, max |eig|) * n in Frobenius norm, or
    NumericalError is raised.
    """
    w, v = np.linalg.eigh(mats)
    r = np.matmul(v * w[..., None, :], v.swapaxes(-1, -2).conj())
    r -= mats
    x = r.view(float).reshape(len(w), -1)
    resid = np.sqrt(np.einsum("ij,ij->i", x, x))
    # eigenvalues ascend, so the largest magnitude is -w[:, 0] or w[:, -1]
    bad = resid > 1e-10 * np.maximum(np.maximum(-w[:, 0], w[:, -1]), 1.0) * w.shape[1]
    if bad.any():
        raise NumericalError(f"eigendecomposition residual too large: {resid[bad][0]:.3e}")
    return w, v


def mat_fn(a, f) -> np.ndarray:
    """Apply a scalar function to a PSD matrix through its eigenvalues.

    Eigenvalues below SUPPORT_CUTOFF * max_eig are treated as exact
    zeros and mapped to 0 in the output (the function is never called
    on them), so f = log and f = inverse powers are safe on singular
    PSD inputs.  A min eigenvalue below -1e-8 * max_eig is rejected.
    """
    return _spectral_fn(as_herm(a).spectrum, f)


def _spectral_fn(dec: SpectralDecomposition, f) -> np.ndarray:
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
    cut = SUPPORT_CUTOFF * top
    fw = np.zeros_like(w)
    on = w > cut
    fw[on] = [float(f(x)) for x in w[on]]
    return (dec.eigenvectors * fw) @ dec.eigenvectors.conj().T


def support_projector(a) -> np.ndarray:
    """Orthogonal projection onto the numerical range of a PSD matrix."""
    dec = as_herm(a).spectrum
    w = dec.eigenvalues
    top = float(w.max(initial=0.0))
    on = w > SUPPORT_CUTOFF * top if top > 0 else np.zeros_like(w, dtype=bool)
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
    .matrix is read and never kept.  Only this module reads the form
    (kernel is None for a dense map).  apply, @, -, adjoint, norm,
    resolvent, expm_superop, expm_action and _fixed_point_projection act
    entrywise on kernels; @ of a kernel and a dense map scales the rows
    or columns of the dense matrix.  On a real kernel, as a Schur
    generator's is, they give the values of the diagonal matrix to the
    bit, but for the Frobenius norm and the resolvent.  Immutable.
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
        """S applied to one dim x dim matrix, or to each matrix of a stack (k, dim, dim).

        A kernel acts by one broadcast product, a dense map by one stacked
        matrix-vector product, so each matrix of a stack gets the bits that
        matrix @ vec(X) gives it alone.  The result has x's shape, each of
        its matrices in column-major order.
        """
        a = x.mat if isinstance(x, HermitianOperator) else np.asarray(x, dtype=complex)
        if a.ndim not in (2, 3) or a.shape[-2:] != (self.dim, self.dim):
            raise InputError(f"operand shape {a.shape} does not match dim {self.dim}")
        # one row per operand, each its column-major vectorization
        b = a.swapaxes(-1, -2).reshape(a.shape[:-2] + (self.dim * self.dim,))
        if self.kernel is not None:
            out = vec(self.kernel) * b
            out += 0.0  # turns -0 into +0, as the diagonal matrix-vector product does
        else:
            out = np.matmul(self._matrix, b[..., None])
        return out.reshape(a.shape).swapaxes(-1, -2)

    def __matmul__(self, other: "SuperOperator") -> "SuperOperator":
        if self.dim != other.dim:
            raise InputError("superoperator dimensions do not match")
        if self.kernel is None and other.kernel is None:
            return SuperOperator._owned(self._matrix @ other._matrix)
        if other.kernel is None:  # diag(vec K) @ M scales the rows of M
            return SuperOperator._owned(vec(self.kernel)[:, None] * other._matrix)
        if self.kernel is None:  # M @ diag(vec K) scales its columns
            return SuperOperator._owned(self._matrix * vec(other.kernel))
        return SuperOperator._schur(vec(self.kernel) * vec(other.kernel) + 0.0)

    def __sub__(self, other: "SuperOperator") -> "SuperOperator":
        if self.dim != other.dim:
            raise InputError("superoperator dimensions do not match")
        if self.kernel is not None and other.kernel is not None:
            return SuperOperator._schur(vec(self.kernel) - vec(other.kernel))
        return SuperOperator._owned(self.matrix - other.matrix)

    def norm(self, kind=None) -> float:
        """Frobenius norm of the matrix (kind None), its largest absolute
        entry ("max") or its largest absolute column sum (1)."""
        a = self._matrix if self.kernel is None else self.kernel
        if kind is None:
            return float(np.linalg.norm(a))
        if kind == 1 and self.kernel is None:
            return float(np.abs(a).sum(axis=0).max())
        if kind not in (1, "max"):
            raise InputError(f"unknown norm kind {kind!r}")
        return float(np.abs(a).max())

    def resolvent(self, n: float, x) -> np.ndarray:
        """n (n + S)^-1 x for one dim x dim matrix x: n x / (n + K) on a kernel, one solve else."""
        n = float(n)
        if self.kernel is not None:
            return n * x / (n + self.kernel)
        return unvec(np.linalg.solve(n * np.eye(self.dim**2) + self._matrix, vec(x)) * n, self.dim)

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


def _choi_floor(s: SuperOperator, off_omega: bool = False) -> float:
    """Least eigenvalue of the Hermitian part C of S's Choi matrix; with off_omega, of Q C Q.

    Q = 1 - |Omega><Omega| projects off Omega = vec(1) / sqrt(d), and every
    exp(tS), t >= 0, is CP exactly when S preserves Hermiticity and Q C Q
    >= 0 (Lindblad, CMP 1976).  A Schur multiplier's C is its kernel K on
    span{e_i (x) e_i}, where Omega is the all-ones vector / sqrt(d), and 0
    off it: Q C Q is J K J there, J = 1 - 11^T/d (Schoenberg, 1938).
    """
    d = s.dim
    c = choi_matrix(s) if s.kernel is None else s.kernel
    c = (c + c.conj().T) / 2
    if off_omega:
        omega = (np.eye(d).ravel() if s.kernel is None else np.ones(d)) / math.sqrt(d)
        p = np.outer(omega, omega @ c)
        c = c - p - p.conj().T + (omega @ c @ omega) * np.outer(omega, omega)
    lo = float(np.linalg.eigvalsh(c)[0])
    return min(lo, 0.0) if s.kernel is not None and d > 1 else lo


def is_herm_preserving(s: SuperOperator) -> bool:
    """Whether S maps Hermitian matrices to Hermitian matrices, to 1e-10 relative."""
    c = choi_matrix(s)
    scale = max(1.0, np.linalg.norm(c))
    return bool(np.linalg.norm(c - c.conj().T) <= 1e-10 * scale)


def expm_superop(s: SuperOperator, t: float) -> SuperOperator:
    """Matrix exponential exp(t * S) of a superoperator.

    A Schur multiplier is exponentiated entrywise, exp(t * kernel) on
    its complex kernel: the bits scipy.linalg.expm gives for the
    diagonal matrix.  A dense map goes through scipy.linalg.expm
    (scaling and squaring).  A non-finite t raises InputError, an
    overflowed result NumericalError.
    """
    if not math.isfinite(t):
        raise InputError(f"exponential time must be finite, got {t}")
    if s.kernel is not None:
        out = np.exp(vec(s.kernel) * t)
        _check_exponential(out, s, t)
        return SuperOperator._schur(out)
    import scipy.linalg  # loaded on first use, off the start-up of every suite

    out = scipy.linalg.expm(s.matrix * t)
    _check_exponential(out, s, t)
    return SuperOperator._owned(out)


def expm_action(s: SuperOperator, t: float, x, num: int = 1) -> np.ndarray:
    """exp(t * S) applied to matrices, without forming exp(t * S).

    x is one dim x dim matrix, or a stack of k of them (shape
    (k, dim, dim)) that are all stepped by the same t: a stack.  With
    num = 1 the result has x's shape.  With num > 1 it is a run: the
    matrices at the num evenly spaced times t/num, 2t/num, ..., t,
    stacked ahead of x's shape in that order.  Either is one call.

    scipy.sparse.linalg.expm_multiply (Al-Mohy and Higham, 2011) sums
    the Taylor series of exp(t * S) on the operands themselves, in about
    |t| * ||S||_1 matrix-vector products per column, and never forms
    exp(t * S); a stack is one d^2 x k block.  A run is their algorithm
    5.2, with one choice of parameters for the span [0, t]; it always
    starts at x, at offset 0, since from a later start scipy would choose
    them for the span and not for the start.  That beats expm_superop
    while |t| * ||S||_1 stays below the side of S; past that,
    expm_superop's scaling and squaring is cheaper.  A Schur multiplier
    is exponentiated entrywise instead, as expm_superop does.  A
    non-finite t raises InputError, a non-finite result NumericalError.
    """
    if not math.isfinite(t):
        raise InputError(f"exponential time must be finite, got {t}")
    a = np.asarray(x, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2:] != (s.dim, s.dim):
        raise InputError(f"operand shape {a.shape} does not match dim {s.dim}")
    # one row per operand, each its column-major vectorization
    b = np.swapaxes(a, -1, -2).reshape(a.shape[:-2] + (s.dim * s.dim,))
    if s.kernel is not None:
        times = t if num == 1 else np.linspace(0.0, t, num + 1)[1:].reshape((num,) + (1,) * b.ndim)
        out = np.exp(vec(s.kernel) * times) * b
    else:
        import scipy.sparse.linalg  # loaded on first use, off the start-up of every suite

        if num == 1:
            out = scipy.sparse.linalg.expm_multiply(s.matrix * t, b.T).T
        else:
            # offsets k/num of t * S; drop offset 0, and put a stack's columns back in rows
            out = scipy.sparse.linalg.expm_multiply(s.matrix * t, b.T, start=0.0, stop=1.0, num=num + 1)
            out = np.moveaxis(out[1:], 1, -1)
    _check_exponential(out, s, t)
    return np.swapaxes(out.reshape(out.shape[:-1] + (s.dim, s.dim)), -1, -2)


def _check_exponential(out: np.ndarray, s: SuperOperator, t: float):
    """Raise NumericalError if out, computed from exp(t * S), is not finite."""
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise NumericalError(f"superoperator exponential overflowed at t={t}; ||S||={s.norm():.3e}")


def _spectral_projection_zero(m: np.ndarray) -> np.ndarray:
    """Projection onto ker(m) along ran(m).

    One SVD m = U S V^dag gives both kernels: the trailing columns of V
    span ker(m), those of U span ker(m^dag).  With v and w those bases,
    the projection is v (w^dag v)^-1 w^dag, which needs 0 to be a
    semisimple eigenvalue: w^dag v is singular exactly when it is
    defective.  An empty kernel raises NumericalError.
    """
    u, s, vh = np.linalg.svd(m)
    # svd lists singular values descending; the kernel is the trailing block
    k = int((s <= 1e-10 * max(s.max(initial=0.0), 1.0)).sum())
    if k == 0:
        raise NumericalError("generator has no fixed points")
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
    return v @ x


def _fixed_point_projection(s: SuperOperator) -> SuperOperator:
    """E, the spectral projection of S at 0: onto ker(S) along ran(S).

    For a generator L, E projects onto its fixed points.  A kernel K is
    diagonal, so E is the Schur multiplier of the 0/1 pattern |K| <=
    1e-10 * max(max |K|, 1), the cutoff that the SVD route puts on the
    singular values; a dense S goes through _spectral_projection_zero.
    The adjoint of E is the projection of the adjoint of S.
    """
    if s.kernel is None:
        return SuperOperator._owned(_spectral_projection_zero(s.matrix))
    size = np.abs(s.kernel)
    pattern = size <= 1e-10 * max(size.max(initial=0.0), 1.0)
    if not pattern.any():
        raise NumericalError("generator has no fixed points")
    return schur_multiplier_super(pattern)


def clamp_psd(a, what: str = "matrix") -> np.ndarray:
    """Zero out slightly negative eigenvalues of a nearly-PSD Hermitian matrix.

    Eigenvalues in [-1e-9, 0) are clamped to 0 (logged); one below
    -1e-9 raises NumericalError.  When nothing is clamped the result is
    the operator's own matrix object, so a caller that passed a
    HermitianOperator can tell by identity that the operator, and its
    memoized spectrum, still stand.
    """
    h = as_herm(a)
    return _clamp_spectrum(h.spectrum, h.mat, what)


def _clamp_spectrum(dec: SpectralDecomposition, mat: np.ndarray, what: str):
    """clamp_psd of mat, whose decomposition is dec; mat itself if nothing is clamped."""
    w = dec.eigenvalues
    if w[0] >= 0.0:
        return mat
    if w[0] < -1e-9:
        raise NumericalError(f"{what} lost positivity: min eigenvalue {w[0]:.3e} below -1.0e-09")
    logger.warning("clamping %s eigenvalues in [%.3e, 0) to zero", what, w[0])
    wc = np.clip(w, 0.0, None)
    return (dec.eigenvectors * wc) @ dec.eigenvectors.conj().T
