"""Differential calculus of diagonal-projection cocycles.

A family of 0/1 diagonal projections P_i defines derivations
delta_i(x) = [P_i, x] and the Schur generator with symbol

    psi(g, h) = sum_i (v_i(g) - v_i(h))^2,

where v_i is the diagonal of P_i.  Each component symbol
psi_i = (v_i(g) - v_i(h))^2 generates a single-flip semigroup
T^i_t = e^{-t} id + (1 - e^{-t}) Pinch_i, with Pinch_i the
conditional expectation onto the commutant of P_i.

The derivations intertwine the full semigroup exactly:

    delta_i P_t = M^i_t delta_i,

where M^i_t is the Schur multiplier with kernel
exp(-t (psi + 2 - 2 psi_i)).  On entries the derivation kills, the
kernel is free; this completion is chosen because it is damped by
e^{-2t} and, crucially, dominated in the complete-Schwarz order:

    M(x)^dag M(x) <= e^{-2Kt} P_t(x^dag x)    (K = number of flips)

holds for all x iff every block G_c = e^{-2Kt} e^{-t psi} - w_c w_c^dag
is positive semidefinite, with w_c the c-th row (left action) or
conjugated column (right action) of the composite kernel.  The block
form is the Choi condition of the module defect map, written in the
convention that makes the right action an honest opposite-algebra
Choi matrix; checking the naive Choi matrix instead produces spurious
indefinite 2x2 blocks.  Repeating a flip breaks the bound: at the
wall edge of the repeated projection the block diagonal dips to
exactly e^{-4t} - e^{-2t} < 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, SizeError
from .matcore import SuperOperator, schur_multiplier_super
from .qms import Generator, schur_generator

# side length cap for the module-copy Choi certificate
CHOI_SIDE_CAP = 4096


@dataclass(frozen=True)
class DiffCalculus:
    """Family of 0/1 projection diagonals, one row per derivation."""

    rows: np.ndarray

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    def difference(self, i: int) -> np.ndarray:
        """Kernel v_i(g) - v_i(h) of delta_i, entries 0 or +-1."""
        v = self.rows[i]
        return v[:, None] - v[None, :]

    def component_symbol(self, i: int) -> np.ndarray:
        return self.difference(i) ** 2

    def symbol(self) -> np.ndarray:
        d = self.rows[:, :, None] - self.rows[:, None, :]
        return np.einsum("igh,igh->gh", d, d)


def diff_calculus(rows) -> DiffCalculus:
    """Validate a projection family: 0/1 entries, no constant rows."""
    r = np.asarray(rows)
    if r.ndim != 2 or r.shape[0] < 1 or r.shape[1] < 2:
        raise InputError(f"projection family must be a nonempty 2d array, got shape {r.shape}")
    if not np.all((r == 0) | (r == 1)):
        raise InputError("projection rows must be 0/1 valued")
    r = r.astype(int)
    for i, row in enumerate(r):
        if row.min() == row.max():
            raise InputError(f"row {i} is constant and generates no derivation")
    r = r.copy()
    r.setflags(write=False)
    return DiffCalculus(rows=r)


def generator_from_calculus(calc: DiffCalculus) -> Generator:
    return schur_generator(calc.symbol().astype(float))


def flip_pinch(calc: DiffCalculus, i: int) -> SuperOperator:
    """Conditional expectation onto the commutant of P_i: keeps entries
    with v_i(g) = v_i(h), kills the rest."""
    _check_flip(calc, i)
    keep = 1.0 - calc.component_symbol(i).astype(float)
    return schur_multiplier_super(keep)


def component_kernel(calc: DiffCalculus, flips, t: float) -> np.ndarray:
    """Composite intertwining kernel exp(-t (psi + 2K - 2 sum psi_i)).

    flips lists the derivations pulled through the semigroup, with
    multiplicity; each pull-through contributes e^{-2t} damping and
    reopens its own crossing entries by e^{+2t}.
    """
    flips = _check_flips(calc, flips)
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    k = len(flips)
    crossing = sum(calc.component_symbol(i) for i in flips)
    exponent = calc.symbol() + 2 * k - 2 * crossing
    return np.exp(-t * exponent.astype(float))


def intertwining_residual(gen: Generator, calc: DiffCalculus, times=(0.25, 1.0)) -> float:
    """Max entry of delta_i P_t - M^i_t delta_i over flips and times.

    Zero (to rounding) whenever gen is the Schur generator of the
    calculus symbol; a generator off that symbol by more than 1e-10 in
    any entry is rejected.  delta_i and M^i_t are Schur multipliers, with
    kernel v_i(g) - v_i(h) in {0, +-1} for delta_i, so both products are
    exact scalings of P_t, whichever form matcore holds it in.
    """
    times = _check_times(times)
    if gen.dim != calc.dim or (gen.heisenberg - generator_from_calculus(calc).heisenberg).norm("max") > 1e-10:
        raise DomainError("generator is not generated by this calculus")
    propagators = {t: gen.semigroup(t) for t in times}
    worst = 0.0
    for i in range(calc.count):
        delta = schur_multiplier_super(calc.difference(i))
        for t, s_t in propagators.items():
            m_t = schur_multiplier_super(component_kernel(calc, (i,), t))
            worst = max(worst, (delta @ s_t - m_t @ delta).norm("max"))
    return worst


@dataclass(frozen=True)
class CpDominanceReport:
    """Outcome of the complete-Schwarz domination check."""

    flips: tuple
    times: tuple
    min_eig: float


def cp_dominance_check(calc: DiffCalculus, flips, t: float, side: str = "left") -> float:
    """Min eigenvalue over the blocks G_c = e^{-2Kt} e^{-t psi} - w_c w_c^dag.

    side selects rows of the composite kernel (left module action) or
    conjugated columns (right action, the opposite-algebra Choi
    convention).
    """
    flips = _check_flips(calc, flips)
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    d = calc.dim
    if d * d > CHOI_SIDE_CAP:
        raise SizeError(
            f"module-copy Choi certificate has side {d * d}, cap {CHOI_SIDE_CAP}"
        )
    kappa = component_kernel(calc, flips, t)
    base = np.exp(-2 * len(flips) * t) * np.exp(-t * calc.symbol().astype(float))
    worst = np.inf
    for c in range(d):
        w = kappa[c] if side == "left" else kappa[:, c].conj()
        g = base - np.outer(w, np.conj(w))
        worst = min(worst, float(np.linalg.eigvalsh((g + g.conj().T) / 2)[0]))
    return worst


def cp_dominance_report(calc: DiffCalculus, flips, times=(0.25, 1.0)) -> CpDominanceReport:
    """Sweep times and both module actions for the least block eigenvalue.

    The flips are dominated where min_eig is not below the caller's floor
    (the CLI's dominance_floor)."""
    flips = _check_flips(calc, flips)
    times = _check_times(times)
    min_eig = min(
        cp_dominance_check(calc, flips, t, side) for t in times for side in ("left", "right")
    )
    return CpDominanceReport(flips=flips, times=times, min_eig=min_eig)


def _check_flip(calc: DiffCalculus, i: int):
    if not 0 <= i < calc.count:
        raise InputError(f"flip index {i} out of range for {calc.count} derivations")


def _check_flips(calc: DiffCalculus, flips) -> tuple:
    out = tuple(int(i) for i in flips)
    if not out:
        raise InputError("need at least one flip index")
    for i in out:
        _check_flip(calc, i)
    return out


def _check_times(times) -> tuple:
    out = tuple(float(t) for t in times)
    if not out:
        raise InputError("need at least one time")
    return out
