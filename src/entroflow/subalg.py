"""Block subalgebras, pinching expectations, and entropy chain rules.

A subalgebra here is a direct sum of full matrix blocks, optionally
rotated by a fixed unitary.  Its trace-compatible conditional
expectation is the pinching E(x) = sum_B P_B x P_B, which is its own
predual and preserves every block-diagonal state.

Pinchings make the entropy chain rule exact: for block-diagonal
faithful sigma,

    D(rho || sigma) = D(rho || E_* rho) + D(E_* rho || sigma),

because log E_* rho - log sigma lies in the subalgebra and rho - E_* rho
has no block-diagonal part.  Subalgebra states embed as block-diagonal
densities as they are, and their relative entropy can be recomputed
blockwise; both routes must agree.

Along a nested family of such subalgebras the pinched relative
entropies increase toward the full value, and the resolvent
regularization R_n = n (n + L_*)^{-1} of a semigroup replays the same
chain rule asymptotically: its defect

    D(psi || sigma) - D(psi || psi_n) - D(psi_n || sigma)

is O(1/n) instead of exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .matcore import (
    SUPPORT_CUTOFF,
    SuperOperator,
    conjugation_super,
    mat_fn,
    schur_multiplier_super,
    unvec,
    vec,
)
from .qms import Generator, invariant_states
from .statespace import Density, density, rel_entropy


@dataclass(frozen=True)
class SubalgebraSpec:
    """Direct sum of full matrix blocks, rotated by an optional unitary."""

    blocks: tuple
    unitary: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    def slices(self) -> list:
        out, start = [], 0
        for b in self.blocks:
            out.append(slice(start, start + b))
            start += b
        return out

    def projectors(self) -> list:
        d = self.dim
        out = []
        for s in self.slices():
            p = np.zeros((d, d), dtype=complex)
            p[s, s] = np.eye(s.stop - s.start)
            if self.unitary is not None:
                p = self.unitary @ p @ self.unitary.conj().T
            out.append(p)
        return out


def subalgebra(blocks, unitary=None) -> SubalgebraSpec:
    try:
        bl = tuple(int(b) for b in blocks)
    except (TypeError, ValueError) as exc:
        raise InputError(f"block sizes must be integers, got {blocks!r}") from exc
    if not bl or any(b < 1 for b in bl):
        raise InputError(f"block sizes must be positive integers, got {bl}")
    if unitary is not None:
        unitary = np.asarray(unitary, dtype=complex)
        d = sum(bl)
        if unitary.shape != (d, d):
            raise InputError(f"unitary shape {unitary.shape} does not match dimension {d}")
        if not np.allclose(unitary @ unitary.conj().T, np.eye(d), atol=1e-10):
            raise InputError("rotation matrix is not unitary")
        unitary = unitary.copy()
        unitary.setflags(write=False)
    return SubalgebraSpec(blocks=bl, unitary=unitary)


def conditional_expectation(spec: SubalgebraSpec, phi: Density | None = None) -> SuperOperator:
    """Pinching onto the block subalgebra; self-adjoint for the trace.

    Without a rotation the pinching keeps the diagonal blocks of a
    matrix and zeroes the rest: the Schur multiplier of the 0/1 block
    pattern, held as its d x d kernel.  A rotated one is the dense sum
    of the conjugations x -> P_B x P_B.  If a state is supplied it must
    already be block diagonal, so that the pinching is its conditional
    expectation as well.
    """
    if spec.unitary is None:
        pattern = np.zeros((spec.dim, spec.dim))
        for s in spec.slices():
            pattern[s, s] = 1.0
        pinch = schur_multiplier_super(pattern)
    else:
        pinch = SuperOperator(sum(conjugation_super(p).matrix for p in spec.projectors()))
    if phi is not None:
        if phi.dim != spec.dim:
            raise InputError("state dimension does not match the subalgebra")
        defect = np.linalg.norm(pinch.apply(phi.mat) - phi.mat)
        if defect > 1e-9 * max(1.0, np.linalg.norm(phi.mat)):
            raise DomainError(
                f"state is not block diagonal; pinching moves it by {defect:.3e}"
            )
    return pinch


def pinch_state(spec: SubalgebraSpec, rho: Density) -> Density:
    out = conditional_expectation(spec).apply(rho.mat)
    return density((out + out.conj().T) / 2)


def _block_of(spec: SubalgebraSpec, mat: np.ndarray, s: slice) -> np.ndarray:
    if spec.unitary is not None:
        mat = spec.unitary.conj().T @ mat @ spec.unitary
    return mat[s, s]


@dataclass(frozen=True)
class ExtensionEntropyCheck:
    """Blockwise vs joint relative entropy of embedded subalgebra states."""

    joint: float
    blockwise: float
    residual: float


def entropy_extension_check(
    spec: SubalgebraSpec, rho: Density, sigma: Density
) -> ExtensionEntropyCheck:
    """Embed pinched states unscaled and compare the joint relative
    entropy against an independent block-by-block evaluation."""
    if rho.dim != spec.dim or sigma.dim != spec.dim:
        raise InputError("state dimensions do not match the subalgebra")
    rho_n = pinch_state(spec, rho)
    sigma_n = pinch_state(spec, sigma)
    joint = rel_entropy(rho_n, sigma_n)

    total = 0.0
    for s in spec.slices():
        rb = _block_of(spec, rho_n.mat, s)
        sb = _block_of(spec, sigma_n.mat, s)
        wr, ur = np.linalg.eigh((rb + rb.conj().T) / 2)
        ws, us = np.linalg.eigh((sb + sb.conj().T) / 2)
        cut_r = SUPPORT_CUTOFF * max(wr.max(), 0) if wr.size else 0.0
        on_r = wr > cut_r
        if not on_r.any():
            continue
        overlap = np.abs(ur.conj().T @ us) ** 2
        on_s = ws > SUPPORT_CUTOFF * max(ws.max(), 0)
        leak = wr[on_r] @ overlap[on_r][:, ~on_s].sum(axis=1)
        if leak > 1e-10:
            total = np.inf
            break
        total += float(wr[on_r] @ np.log(wr[on_r]))
        total -= float(wr[on_r] @ (overlap[on_r][:, on_s] @ np.log(ws[on_s])))
    residual = abs(joint - total) if np.isfinite(joint) and np.isfinite(total) else (
        0.0 if joint == total else np.inf
    )
    return ExtensionEntropyCheck(joint=joint, blockwise=total, residual=residual)


@dataclass(frozen=True)
class ProjectionIdentityCheck:
    """Exactness of the pinched entropy chain rule."""

    orthogonality: float
    chain_residual: float


def rel_hamiltonian_projection_check(
    spec: SubalgebraSpec, rho: Density, sigma: Density
) -> ProjectionIdentityCheck:
    """Check tr((rho - E_* rho)(log E_* rho - log sigma)) = 0 and the
    chain rule D(rho||sigma) = D(rho||E_* rho) + D(E_* rho||sigma)."""
    pinch = conditional_expectation(spec, phi=sigma)
    rho_n = density(pinch.apply(rho.mat))
    if not (rho_n.is_faithful() and sigma.is_faithful()):
        raise DomainError("projection identities need faithful pinched states")
    h = mat_fn(rho_n.op, np.log) - mat_fn(sigma.op, np.log)
    orth = abs(np.trace((rho.mat - rho_n.mat) @ h))
    chain = abs(
        rel_entropy(rho, sigma) - rel_entropy(rho, rho_n) - rel_entropy(rho_n, sigma)
    )
    return ProjectionIdentityCheck(orthogonality=float(orth), chain_residual=float(chain))


@dataclass(frozen=True)
class MartingaleReport:
    """Pinched relative entropies along a nested subalgebra family."""

    entropies: tuple
    limit: float
    max_violation: float


def martingale_entropy_check(specs, rho: Density, sigma: Density) -> MartingaleReport:
    """Entropies D(E_n rho || E_n sigma) along subalgebras ordered from
    smallest to largest; data processing makes the sequence increase
    toward D(rho || sigma)."""
    specs = list(specs)
    if len(specs) < 2:
        raise InputError("need at least two nested subalgebras")
    if any(s.dim != rho.dim for s in specs):
        raise InputError("subalgebra dimensions do not match the state")
    pinches = [conditional_expectation(s) for s in specs]
    for a, b in zip(pinches, pinches[1:]):
        if a.kernel is not None and b.kernel is not None:
            # Schur multipliers compose entrywise: compare kernels, build no matrix
            ab, ba, aa = (a @ b).kernel, (b @ a).kernel, a.kernel
        else:
            ab, ba, aa = (a @ b).matrix, (b @ a).matrix, a.matrix
        if not (np.allclose(ab, aa, atol=1e-10) and np.allclose(ba, aa, atol=1e-10)):
            raise InputError("subalgebras are not nested smallest-first")
    values = []
    for s in specs:
        conditional_expectation(s, phi=sigma)  # sigma must live in every level
        values.append(rel_entropy(pinch_state(s, rho), sigma))
    limit = rel_entropy(rho, sigma)
    steps = np.diff(np.array(values + [limit]))
    return MartingaleReport(
        entropies=tuple(values), limit=limit, max_violation=float(max(0.0, -steps.min()))
    )


@dataclass(frozen=True)
class ChainRuleReport:
    """Chain-rule defect of a regularized state."""

    n: int
    total: float
    step_sum: float
    residual: float
    regularized: Density


def chain_rule_check(
    gen: Generator, psi: Density, psi_n: Density | None = None, n: int = 10
) -> ChainRuleReport:
    """Chain-rule defect D(psi||sigma) - D(psi||psi_n) - D(psi_n||sigma)
    against the generator's faithful invariant state.

    The default regularizer is the resolvent average
    psi_n = n (n + L_*)^{-1} psi, a completely positive trace-preserving
    smoothing that fixes sigma; its defect decays like 1/n.  For a Schur
    generator with kernel K it is n psi / (n + K) entrywise, else one
    dense d^2 x d^2 solve.  Passing the pinched state of a compatible
    subalgebra instead makes the defect exactly zero.
    """
    if psi.dim != gen.dim:
        raise InputError("state dimension does not match the generator")
    sigma = invariant_states(gen)
    if sigma is None:
        raise DomainError("generator has no faithful invariant state")
    if psi_n is None:
        if n < 1:
            raise InputError(f"resolvent order must be >= 1, got {n}")
        kernel = gen.schroedinger.kernel
        if kernel is not None:
            m = float(n) * psi.mat / (float(n) + kernel)
        else:
            d2 = gen.dim * gen.dim
            reg = np.linalg.solve(
                float(n) * np.eye(d2) + gen.schroedinger.matrix, vec(psi.mat)
            ) * float(n)
            m = unvec(reg, gen.dim)
        m = (m + m.conj().T) / 2
        w = np.linalg.eigvalsh(m)
        if w[0] < -1e-9:
            raise DomainError(f"resolvent state has eigenvalue {w[0]:.3e}")
        m = m - min(w[0], 0.0) * np.eye(gen.dim)
        psi_n = density(m / np.trace(m).real)
    elif psi_n.dim != gen.dim:
        raise InputError("regularized state dimension does not match the generator")
    total = rel_entropy(psi, sigma)
    step_sum = rel_entropy(psi, psi_n) + rel_entropy(psi_n, sigma)
    return ChainRuleReport(
        n=n,
        total=total,
        step_sum=step_sum,
        residual=total - step_sum,
        regularized=psi_n,
    )
