"""Group balls, the length symbol, and the word-length semigroup."""

import numpy as np
import pytest

from entroflow.errors import InputError, SizeError
from entroflow.groupsem import (
    BALL_CAP,
    ball_calculus,
    build_ball_semigroup,
    enumerate_ball,
    left_regular_observable,
    reduce_word,
    word_distance,
    word_inv,
    word_mul,
)
from entroflow.qms import gkls_generator


def test_free_reduction_and_inverse():
    assert reduce_word("free", (1, 2, -2, -1)) == ()
    assert reduce_word("free", (1, 2, -2, 1)) == (1, 1)
    assert word_inv("free", (1, -2, 1)) == (-1, 2, -1)
    assert word_mul("free", (1, -2, 1), word_inv("free", (1, -2, 1))) == ()


def test_coxeter_reduction_and_involution():
    assert reduce_word("coxeter", (1, 2, 2, 1)) == ()
    assert reduce_word("coxeter", (1, 1, 2)) == (2,)
    w = (1, 2, 1)
    assert word_inv("coxeter", w) == w
    assert word_mul("coxeter", w, w) == ()


def test_word_distance_values():
    # a vs b: a b^-1 has length 2; a b vs b: (a b) b^-1 = a
    assert word_distance("free", (1,), (2,)) == 2
    assert word_distance("free", (1,), (-1,)) == 2
    assert word_distance("free", (1, 2), (2,)) == 1
    assert word_distance("coxeter", (1, 2), (2,)) == 1
    assert word_distance("free", (1, 2), (1, 2)) == 0


def test_ball_counts():
    assert enumerate_ball("free", 2, 2).size == 17
    assert enumerate_ball("coxeter", 3, 2).size == 10
    assert enumerate_ball("free", 1, 2).size == 5
    assert enumerate_ball("free", 2, 3).size == 53


def test_ball_order_and_membership():
    ball = enumerate_ball("free", 1, 2)
    assert ball.words == ((), (1,), (-1,), (1, 1), (-1, -1))
    ball2 = enumerate_ball("free", 2, 1)
    assert ball2.words == ((), (1,), (-1,), (2,), (-2,))
    assert ball2.position((2,)) == 3
    assert not ball2.contains((1, 1))
    with pytest.raises(InputError):
        ball2.position((1, 1))


def test_ball_cap_raises():
    with pytest.raises(SizeError):
        enumerate_ball("free", 2, 4)
    with pytest.raises(SizeError):
        enumerate_ball("coxeter", 3, 5)
    # the first layer alone: refused before its letters are listed
    with pytest.raises(SizeError, match=f"{BALL_CAP + 1} within radius 1"):
        enumerate_ball("coxeter", BALL_CAP, 1)
    assert enumerate_ball("coxeter", BALL_CAP - 1, 1).size == BALL_CAP


def test_coxeter_rank_one_ball_stops_growing():
    ball = enumerate_ball("coxeter", 1, 10**12)  # returns at once: the frontier empties
    assert ball.words == ((), (1,))


def test_bad_inputs():
    with pytest.raises(InputError):
        enumerate_ball("braid", 2, 2)
    with pytest.raises(InputError):
        enumerate_ball("free", 0, 2)


def test_length_matrix_values():
    ball = enumerate_ball("free", 2, 1)  # e, a, A, b, B
    psi = ball.length_matrix()
    assert psi.dtype == np.dtype(int)
    assert np.array_equal(psi, psi.T)
    assert np.all(np.diag(psi) == 0)
    ia, iA, ib = 1, 2, 3
    assert psi[ia, ib] == 2
    assert psi[ia, iA] == 2
    assert psi[0, ia] == 1
    cox = enumerate_ball("coxeter", 2, 2)
    # s1 s2 vs s2: distance 1
    assert cox.length_matrix()[cox.position((1, 2)), cox.position((2,))] == 1


def test_prefix_rows_column_sums_are_lengths():
    for kind, rank, radius in [("free", 2, 2), ("coxeter", 3, 2)]:
        ball = enumerate_ball(kind, rank, radius)
        v = ball.prefix_rows()
        assert set(np.unique(v)) <= {0, 1}
        lengths = np.array([len(w) for w in ball.words])
        assert np.array_equal(v.sum(axis=0), lengths)


def test_cocycle_identity_exact():
    for kind, rank, radius in [("free", 2, 2), ("coxeter", 3, 2), ("free", 1, 2)]:
        sem = build_ball_semigroup(kind, rank, radius)
        v = sem.projections
        diff = v[:, :, None] - v[:, None, :]
        assert np.array_equal(np.einsum("igh,igh->gh", diff, diff), sem.psi)


def test_uniform_trace_is_invariant():
    sem = build_ball_semigroup("coxeter", 3, 2)
    out = sem.gen.schroedinger.apply(sem.phi.mat)
    assert np.linalg.norm(out) < 1e-14


def test_translation_eigenvalue_relation_exact():
    sem = build_ball_semigroup("free", 2, 2)
    for w in [(1,), (-2,), (1, 2), (2, 2)]:
        lam = left_regular_observable(sem.ball, w)
        assert lam.any()
        for t in (0.3, 1.0):
            evolved = sem.gen.semigroup(t).apply(lam)
            assert np.allclose(evolved, np.exp(-t * len(w)) * lam, atol=1e-12)


def test_translation_is_partial_isometry_full_on_interior():
    ball = enumerate_ball("free", 2, 2)
    w = (1,)
    lam = left_regular_observable(ball, w)
    col_weight = lam.sum(axis=0).real
    for j, h in enumerate(ball.words):
        inside = ball.contains(ball.mul(w, h))
        assert col_weight[j] == (1.0 if inside else 0.0)
        if len(h) <= ball.radius - len(w):
            assert col_weight[j] == 1.0
    gram = lam.conj().T @ lam
    assert np.array_equal(gram, np.diag(col_weight).astype(complex))


def test_translation_requires_ball_word():
    ball = enumerate_ball("free", 2, 1)
    with pytest.raises(InputError):
        left_regular_observable(ball, (1, 2))
    with pytest.raises(InputError):
        left_regular_observable(ball, (1, -1))


def test_cocycle_jumps_reproduce_generator():
    sem = build_ball_semigroup("coxeter", 2, 2)
    jumps = ball_calculus(sem)
    assert all(np.allclose(j, np.diag(np.diag(j))) for j in jumps)
    rebuilt = gkls_generator(jumps=jumps, dim=sem.ball.size)
    assert np.allclose(
        rebuilt.heisenberg.matrix, sem.gen.heisenberg.matrix, atol=1e-12
    )
