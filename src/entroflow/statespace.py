"""States and relative-entropy quantities on a matrix algebra.

A Density is a PSD matrix together with its trace; normalization is
always an explicit step, never implicit.  Relative entropy follows the
standard convention

    D(rho || sigma) = tr rho (log rho - log sigma),

returning math.inf when the support of rho leaks outside the support
of sigma.  Infinity is the genuine IEEE extended-real value; no finite
sentinel is ever used.

The two-sided comparison region used throughout is

    B_alpha(sigma) = { rho : sigma / alpha <= rho <= alpha * sigma },

and balpha_factor computes the smallest alpha placing rho in it.  On
that region log rho - log sigma is bounded by log alpha in operator
norm, which resolvent_log_approx witnesses through the integral
representation of the operator logarithm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError
from .matcore import (
    SUPPORT_CUTOFF,
    HermitianOperator,
    SpectralDecomposition,
    _hermitian_part,
    _spectral_fn,
    as_herm,
    herm_eig,  # noqa: F401  unused here; perfbench/tests/test_tracer.py looks it up
    mat_fn,
    trace_norm,
)


@dataclass(frozen=True)
class Density:
    """An unnormalized state: PSD operator plus its trace."""

    op: HermitianOperator
    trace: float = field(init=False)

    def __post_init__(self):
        h = as_herm(self.op)
        tr = _density_trace(h.spectrum, h.mat)
        object.__setattr__(self, "op", h)
        object.__setattr__(self, "trace", tr)

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    def normalize(self) -> "Density":
        return Density(HermitianOperator(self.op.mat / self.trace))

    def is_faithful(self) -> bool:
        return _faithful(self.op.spectrum)


def density(mat) -> Density:
    """Build a Density from an array-like PSD matrix."""
    return Density(as_herm(mat))


# The spectral helpers below work on (matrix, SpectralDecomposition) data,
# so that the public functions on Density and the I/D kernel of
# entropyflow._ratio share one implementation of each quantity and check.


def _density_trace(dec: SpectralDecomposition, mat: np.ndarray) -> float:
    """Trace of a density matrix, after its PSD and positive-trace checks."""
    w = dec.eigenvalues  # ascending
    return _checked_trace(float(w[0]), float(w[-1]), float(mat.trace().real))


def _checked_trace(lo: float, hi: float, tr: float) -> float:
    """tr, the trace of a density matrix with least and largest eigenvalues lo and hi,
    once it passes the PSD and positive-trace checks of every density."""
    top = max(hi, 0.0)
    if lo < -1e-10 * max(top, 1e-300):
        raise InputError(
            f"density is not PSD: min eigenvalue {lo:.3e} vs max {top:.3e}"
        )
    if tr <= 0.0:
        raise InputError(f"density must have positive trace, got {tr:.3e}")
    return tr


def _faithful(dec: SpectralDecomposition) -> bool:
    w = dec.eigenvalues
    return bool(w[0] > SUPPORT_CUTOFF * w[-1])


def rel_entropy(rho: Density, sigma: Density) -> float:
    """Relative entropy D(rho || sigma), math.inf on support mismatch.

    Evaluated in the two eigenbases through the overlap matrix
    |<u_i|v_j>|^2, which is exact for commuting pairs and stable for
    nearly-singular inputs.
    """
    if rho.dim != sigma.dim:
        raise InputError("dimension mismatch between states")
    return _rel_entropy_one(rho.op.spectrum, rho.trace, sigma.op.spectrum)


def _rel_entropy_one(dr: SpectralDecomposition, rho_trace: float, ds: SpectralDecomposition) -> float:
    """rel_entropy from the decompositions of rho and sigma, as a stack of one."""
    return float(
        _rel_entropy_spectral(
            dr.eigenvalues[None], dr.eigenvectors[None], rho_trace, ds.eigenvalues[None], ds.eigenvectors[None]
        )[0]
    )


def _rel_entropy_spectral(pw, pv, rho_trace, qw, qv) -> np.ndarray:
    """rel_entropy of each pair (rho_i, sigma_i) of a stack, from their decompositions.

    pw, qw (k, d) hold the eigenvalues of rho_i and sigma_i, ascending, and
    pv, qv (k, d, d) their eigenvectors; rho_trace is the trace of each
    rho_i (k of them, or one for all).  With p and q the clipped
    eigenvalues, pm = p with its entries off the support of rho_i zeroed,
    and logs taken on the supports only, D_i = pm @ log p - (pm @ overlap)
    @ log q: each sum is one product per item, which for faithful states
    has the bits the sums over the supports give.  D_i is math.inf when
    the mass of rho_i on the kernel of sigma_i, the entries of pm @ overlap
    off the support of sigma_i, exceeds 1e-10 of its trace.
    """
    # clipped eigenvalues of rho and sigma, still ascending: the last is the largest
    e = np.array((pw, qw), dtype=float)
    np.maximum(e, 0.0, out=e)
    on = e > SUPPORT_CUTOFF * e[..., -1:]
    log_p, log_q = np.log(np.where(on, e, 1.0))[..., None]  # log 1 = 0 off the supports
    pm = (e[0] * on[0])[:, None, :]
    # |<u_i|v_j>|^2, and the mass of rho on each eigenvector of sigma
    mass = pm @ (np.abs(pv.swapaxes(-1, -2).conj() @ qv) ** 2)
    d = (pm @ log_p - mass @ log_q)[:, 0, 0]
    if on[1].all():
        return d
    leak = np.where(on[1], 0.0, mass[:, 0, :]).sum(axis=1)
    return np.where(leak > 1e-10 * np.asarray(rho_trace), math.inf, d)


def balpha_factor(rho: Density, sigma: Density):
    """Smallest alpha >= 1 with sigma/alpha <= rho <= alpha*sigma, or None.

    sigma must be faithful; a singular rho returns None (no finite
    alpha exists).  Computed through the generalized eigenvalues of the
    pair (rho, sigma), i.e. the spectrum of sigma^{-1/2} rho sigma^{-1/2}.
    """
    if rho.dim != sigma.dim:
        raise InputError("dimension mismatch between states")
    return _balpha_spectral(rho.mat, rho.op.spectrum, sigma.mat, sigma.op.spectrum)


def _balpha_spectral(
    rho_mat: np.ndarray, dr: SpectralDecomposition, sigma_mat: np.ndarray, ds: SpectralDecomposition
):
    """balpha_factor of the states with these matrices and decompositions."""
    if not _faithful(ds):
        raise DomainError("reference state must be faithful")
    if not _faithful(dr):
        return None
    # both matrices come from validated operators, already checked finite
    w = _pencil_eigvals(rho_mat, sigma_mat)
    lo, hi = float(w[0]), float(w[-1])
    if lo <= 0.0:
        return None
    return max(hi, 1.0 / lo, 1.0)


def _HEGVD(*args, **kwargs):
    """zhegvd, the LAPACK routine scipy.linalg.eigh(a, b) calls on complex matrices."""
    return _lapack_hegvd()(*args, **kwargs)


@functools.cache
def _lapack_hegvd():
    """scipy's zhegvd, looked up on first use so that importing the package loads no scipy."""
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs("hegvd", dtype=np.complex128)


def _pencil_eigvals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a x = w b x for Hermitian a and positive definite b.

    scipy.linalg.eigh(a, b, eigvals_only=True) without its wrapper,
    which costs most of the time at the sizes here: the same zhegvd
    call, and the LinAlgError scipy raises when it fails.
    """
    w, _, info = _HEGVD(a, b, itype=1, jobz="N", uplo="L")
    if info == 0:
        return w
    n = a.shape[0]
    if info < -1:
        msg = f"Illegal value in argument {-info} of internal zhegvd"
    elif info > n:
        msg = (
            f"The leading minor of order {info - n} of B is not positive definite. "
            "The factorization of B could not be completed and no eigenvalues "
            "or eigenvectors were computed."
        )
    else:
        msg = (
            f"The algorithm failed to converge; {info} off-diagonal elements "
            "of an intermediate tridiagonal form did not converge to zero."
        )
    raise np.linalg.LinAlgError(msg)


def rel_hamiltonian(rho: Density, sigma: Density, support=None) -> np.ndarray:
    """log rho - log sigma on a common support.

    Both states must be faithful, or a common support isometry/projector
    must be supplied on which they are.  When rho is in some B_alpha(sigma)
    the result is bounded by log alpha in operator norm; that bound is
    asserted as a postcondition.
    """
    if rho.dim != sigma.dim:
        raise InputError("dimension mismatch between states")
    if support is None:
        if not (rho.is_faithful() and sigma.is_faithful()):
            raise DomainError(
                "states must be faithful (or pass an explicit common support)"
            )
        alpha = balpha_factor(rho, sigma)
        return _rel_hamiltonian_spectral(rho.op.spectrum, sigma.op.spectrum, alpha)
    v = np.asarray(support, dtype=complex)
    if v.ndim != 2 or v.shape[0] != rho.dim:
        raise InputError("support must be a dim x r isometry")
    if not np.allclose(v.conj().T @ v, np.eye(v.shape[1]), rtol=0, atol=1e-10):
        raise InputError("support columns must be orthonormal")
    r_small = v.conj().T @ rho.op.mat @ v
    s_small = v.conj().T @ sigma.op.mat @ v
    if min(np.linalg.eigvalsh(r_small)) <= 0 or min(np.linalg.eigvalsh(s_small)) <= 0:
        raise DomainError("states are singular on the supplied support")
    h_small = mat_fn(r_small, np.log) - mat_fn(s_small, np.log)
    h = v @ h_small @ v.conj().T
    return (h + h.conj().T) / 2


def _rel_hamiltonian_spectral(dr: SpectralDecomposition, ds: SpectralDecomposition, alpha):
    """log rho - log sigma of faithful states, from their decompositions.

    alpha is their balpha_factor, computed by the caller; when it is not
    None, the log(alpha) bound on the result is asserted.
    """
    h = _spectral_fn(dr, np.log) - _spectral_fn(ds, np.log)
    if alpha is None:
        return (h + h.conj().T) / 2
    # the Hermitian part op_norm(h) would decompose is also the result
    sym = _hermitian_part(h)
    norm = float(np.abs(np.linalg.eigvalsh(sym)).max())
    if norm > math.log(alpha) + 1e-9:
        raise DomainError(
            f"relative Hamiltonian norm {norm:.6e} exceeds log(alpha)={math.log(alpha):.6e}"
        )
    return sym


def resolvent_log_approx(rho: Density, sigma: Density, n: int) -> np.ndarray:
    """Truncated integral representation of log rho - log sigma.

        x_n = int_{1/n}^{n} ((sigma + s)^{-1} - (rho + s)^{-1}) ds

    evaluated by 200-node Gauss-Legendre quadrature after the substitution
    s = e^u, which makes the integrand smooth and exponentially
    decaying at both ends.  Satisfies ||x_n|| <= log alpha whenever rho
    lies in B_alpha(sigma), and converges to the relative Hamiltonian
    as n grows.
    """
    if rho.dim != sigma.dim:
        raise InputError("dimension mismatch between states")
    if n < 1:
        raise DomainError(f"truncation index must be >= 1, got {n}")
    d = rho.dim
    if n == 1:
        return np.zeros((d, d), dtype=complex)
    half = math.log(n)
    u, w = np.polynomial.legendre.leggauss(200)
    u = u * half
    w = w * half
    eye = np.eye(d)
    out = np.zeros((d, d), dtype=complex)
    for ui, wi in zip(u, w):
        s = math.exp(ui)
        term = np.linalg.solve(sigma.op.mat + s * eye, eye) - np.linalg.solve(
            rho.op.mat + s * eye, eye
        )
        out += wi * s * term
    return (out + out.conj().T) / 2


def pinsker_gap(rho: Density, sigma: Density) -> float:
    """Slack 2 D(rho||sigma) - ||rho - sigma||_1^2 of the Pinsker bound.

    Both inputs must be normalized states (trace 1 within 1e-9).
    Returns math.inf when the relative entropy is infinite.
    """
    if abs(rho.trace - 1.0) > 1e-9 or abs(sigma.trace - 1.0) > 1e-9:
        raise DomainError("pinsker_gap requires normalized states")
    d = rel_entropy(rho, sigma)
    if math.isinf(d):
        return math.inf
    tn = trace_norm(rho.op.mat - sigma.op.mat)
    return 2.0 * d - tn * tn
