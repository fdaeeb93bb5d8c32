"""Projection calculus, flip semigroups, intertwining, CP dominance."""

import numpy as np
import pytest

from entroflow.calculus import (
    component_kernel,
    cp_dominance_check,
    cp_dominance_report,
    diff_calculus,
    flip_pinch,
    intertwining_residual,
)
from entroflow.errors import DomainError, InputError, SizeError
from entroflow.groupsem import ball_calculus, build_ball_semigroup
from entroflow.matcore import choi_matrix, min_eig, schur_multiplier_super
from entroflow.qms import gkls_generator, schur_generator


def small_calc():
    # two projections on C^3, symbol psi = [[0,1,1],[1,0,2],[1,2,0]]
    return diff_calculus(np.array([[0, 1, 0], [0, 0, 1]]))


def ball_calc(kind="free", rank=2, radius=2):
    sem = build_ball_semigroup(kind, rank, radius)
    return diff_calculus(sem.projections), sem


def test_validation_rejects_bad_rows():
    with pytest.raises(InputError):
        diff_calculus(np.array([[0, 2, 0]]))
    with pytest.raises(InputError):
        diff_calculus(np.array([[1, 1, 1]]))
    with pytest.raises(InputError):
        diff_calculus(np.zeros((0, 3)))


def test_symbol_assembles_from_components():
    calc = small_calc()
    psi = calc.symbol()
    assert np.array_equal(psi, np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]]))
    total = sum(calc.component_symbol(i) for i in range(calc.count))
    assert np.array_equal(psi, total)


def test_derivation_is_commutator():
    calc = small_calc()
    x = np.arange(9, dtype=complex).reshape(3, 3)
    p = np.diag([0.0, 1.0, 0.0]).astype(complex)
    assert np.array_equal(calc.difference(0) * x, p @ x - x @ p)
    calc, _ = ball_calc("coxeter", 3, 2)
    rng = np.random.default_rng(11)
    d = calc.dim
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for i in range(calc.count):
        p = np.diag(calc.rows[i]).astype(complex)
        assert np.array_equal(calc.difference(i) * x, p @ x - x @ p)


def flip_semigroup(calc, i, t):
    """T^i_t, the Schur multiplier exp(-t psi_i)."""
    return schur_multiplier_super(np.exp(-t * calc.component_symbol(i)))


def test_flip_pinch_is_cp_projection():
    calc = small_calc()
    pinch = flip_pinch(calc, 0)
    assert np.allclose((pinch @ pinch).matrix, pinch.matrix)
    eye = np.eye(3, dtype=complex)
    assert np.allclose(pinch.apply(eye), eye)
    assert min_eig(choi_matrix(pinch)) >= -1e-12


def test_single_flip_interpolates_pinch():
    calc = small_calc()
    t = 0.7
    flip = flip_semigroup(calc, 0, t)
    pinch = flip_pinch(calc, 0)
    ident = np.eye(9)
    expected = np.exp(-t) * ident + (1 - np.exp(-t)) * pinch.matrix
    assert np.allclose(flip.matrix, expected, atol=1e-14)


def test_flip_factors_commute_and_compose_to_semigroup():
    calc, sem = ball_calc("coxeter", 3, 2)
    t = 0.4
    flips = [flip_semigroup(calc, i, t) for i in range(calc.count)]
    a = (flips[0] @ flips[1]).matrix
    b = (flips[1] @ flips[0]).matrix
    assert np.array_equal(a, b)
    prod = flips[0].matrix
    for f in flips[1:]:
        prod = prod @ f.matrix
    assert np.allclose(prod, sem.gen.semigroup(t).matrix, atol=1e-12)


def test_component_kernel_values():
    calc = small_calc()
    t = 0.9
    kappa = component_kernel(calc, (0,), t)
    psi = calc.symbol()
    psi0 = calc.component_symbol(0)
    crossing = psi0 == 1
    assert np.allclose(kappa[crossing], np.exp(-t * psi[crossing]), atol=1e-15)
    assert np.allclose(np.diag(kappa), np.exp(-2 * t), atol=1e-15)


def test_intertwining_residual_vanishes_on_ball_models():
    for kind, rank, radius in [("free", 2, 2), ("coxeter", 3, 2)]:
        calc, sem = ball_calc(kind, rank, radius)
        assert intertwining_residual(sem.gen, calc) < 1e-12


def dense_intertwining_residual(gen, calc, times=(0.25, 1.0)):
    # reference: delta_i and M^i_t as dense d^2 x d^2 matrices, two products
    eye = np.eye(calc.dim)
    worst = 0.0
    for t in times:
        s_t = gen.semigroup(t).matrix
        for i in range(calc.count):
            p = np.diag(calc.rows[i]).astype(complex)
            d_i = np.kron(eye, p) - np.kron(p.T, eye)
            m_t = np.diag(component_kernel(calc, (i,), t).flatten(order="F")).astype(complex)
            worst = max(worst, float(np.max(np.abs(d_i @ s_t - m_t @ d_i))))
    return worst


def test_intertwining_residual_matches_dense_products():
    for kind, rank, radius in [("free", 2, 2), ("coxeter", 3, 2)]:
        calc, sem = ball_calc(kind, rank, radius)
        assert intertwining_residual(sem.gen, calc) == dense_intertwining_residual(sem.gen, calc)
    # a GKLS generator of the same symbol: its propagator is not exactly diagonal
    calc, sem = ball_calc("free", 1, 2)
    gen = gkls_generator(jumps=ball_calculus(sem))
    times = (0.3, 1.0)
    resid = intertwining_residual(gen, calc, times=times)
    assert resid == dense_intertwining_residual(gen, calc, times=times)
    assert resid < 1e-12


def test_intertwining_rejects_foreign_generator():
    calc, sem = ball_calc("free", 1, 2)
    other = schur_generator(2.0 * sem.psi.astype(float))
    with pytest.raises(DomainError):
        intertwining_residual(other, calc)


def test_empty_times_rejected():
    calc, sem = ball_calc("free", 1, 2)
    with pytest.raises(InputError):
        intertwining_residual(sem.gen, calc, times=())
    with pytest.raises(InputError):
        cp_dominance_report(calc, (0,), times=())


def test_single_flip_dominance_passes():
    calc, _ = ball_calc("free", 2, 2)
    for i in range(calc.count):
        rep = cp_dominance_report(calc, (i,), times=(0.25, 1.0))
        assert rep.min_eig >= -1e-12


def test_distinct_pair_dominance_passes():
    calc, _ = ball_calc("coxeter", 3, 2)
    rep = cp_dominance_report(calc, (0, 3), times=(0.25, 1.0))
    assert rep.min_eig >= -1e-9


def test_repeated_flip_dominance_fails_at_wall_edge():
    calc, _ = ball_calc("free", 2, 2)
    t = 1.0
    rep = cp_dominance_report(calc, (0, 0), times=(t,))
    assert rep.min_eig < -1e-9
    oracle = np.exp(-4 * t) - np.exp(-2 * t)
    assert rep.min_eig <= oracle + 1e-14
    # the worst block diagonal hits the closed form exactly
    kappa = component_kernel(calc, (0, 0), t)
    worst_diag = np.exp(-4 * t) - (kappa**2).max()
    assert worst_diag == pytest.approx(oracle, abs=1e-15)


def test_dominance_sides_agree_for_symmetric_kernel():
    calc, _ = ball_calc("free", 1, 2)
    left = cp_dominance_check(calc, (1,), 0.5, side="left")
    right = cp_dominance_check(calc, (1,), 0.5, side="right")
    assert left == right


def test_dominance_trivial_at_time_zero():
    calc = small_calc()
    assert abs(cp_dominance_check(calc, (0,), 0.0)) < 1e-14


def test_dominance_size_guard():
    rows = np.zeros((1, 65), dtype=int)
    rows[0, 0] = 1
    calc = diff_calculus(rows)
    with pytest.raises(SizeError):
        cp_dominance_check(calc, (0,), 1.0)


def test_flip_list_validation():
    calc = small_calc()
    with pytest.raises(InputError):
        component_kernel(calc, (), 1.0)
    with pytest.raises(InputError):
        component_kernel(calc, (7,), 1.0)
    with pytest.raises(DomainError):
        component_kernel(calc, (0,), -1.0)
