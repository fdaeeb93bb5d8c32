"""Finite group balls carrying the word-length decay semigroup.

Two families are supported: free groups of rank k (letters +-1..+-k,
inverse of l is -l) and free Coxeter groups (letters 1..k, every
generator an involution, no other relations).  Words are stored as
reduced tuples of ints; the ball of radius R is enumerated in
length-then-lex order with the identity first.

The word-length symbol psi(g, h) = |g h^-1| is conditionally negative
definite.  On the ball this is witnessed exactly: with the prefix
indicators v_w(g) = [w is a nonempty prefix of g^-1], one for each
nontrivial ball word w,

    sum_w (v_w(g) - v_w(h))^2 = psi(g, h)

holds in integer arithmetic, because every prefix of the inverse of a
ball word is again a ball word.  The induced Schur generator fixes the
uniform trace and acts on compressed left translations by

    P_t(lambda_w) = e^{-t |w|} lambda_w

entrywise: every surviving entry of lambda_w sits at (g, h) with
g = w h, where psi(g, h) = |w| on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, SizeError
from .qms import Generator, schur_generator
from .statespace import Density, density

BALL_CAP = 64

_KINDS = ("free", "coxeter")


def _check_kind(kind: str):
    if kind not in _KINDS:
        raise InputError(f"unknown group kind {kind!r}, expected one of {_KINDS}")


def _check_letters(kind: str, rank: int, word) -> tuple:
    w = tuple(int(l) for l in word)
    for l in w:
        if l == 0 or abs(l) > rank:
            raise InputError(f"letter {l} outside rank-{rank} alphabet")
        if kind == "coxeter" and l < 0:
            raise InputError("coxeter letters are their own inverses; use positive letters")
    return w


def reduce_word(kind: str, word) -> tuple:
    """Reduce a letter sequence: cancel x x^-1 (free) or x x (coxeter)."""
    _check_kind(kind)
    out = []
    for l in word:
        if out and (out[-1] == -l if kind == "free" else out[-1] == l):
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def word_inv(kind: str, word) -> tuple:
    _check_kind(kind)
    if kind == "free":
        return tuple(-l for l in reversed(word))
    return tuple(reversed(word))


def word_mul(kind: str, a, b) -> tuple:
    return reduce_word(kind, tuple(a) + tuple(b))


def word_distance(kind: str, g, h) -> int:
    """Length distance |g h^-1| between reduced words."""
    return len(word_mul(kind, g, word_inv(kind, h)))


def _letters(kind: str, rank: int) -> list:
    # lex order of letters: a < a^-1 < b < b^-1 < ... (free), s1 < s2 < ... (coxeter)
    if kind == "free":
        out = []
        for m in range(1, rank + 1):
            out.extend((m, -m))
        return out
    return list(range(1, rank + 1))


@dataclass(frozen=True)
class GroupBall:
    """Ball of reduced words, in length-then-lex order, identity first."""

    kind: str
    rank: int
    radius: int
    words: tuple
    index: dict = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.words)

    def contains(self, word) -> bool:
        return tuple(word) in self.index

    def position(self, word) -> int:
        w = tuple(word)
        if w not in self.index:
            raise InputError(f"word {w} is not in the radius-{self.radius} ball")
        return self.index[w]

    def mul(self, a, b) -> tuple:
        return word_mul(self.kind, a, b)

    def inv(self, a) -> tuple:
        return word_inv(self.kind, a)

    def length_matrix(self) -> np.ndarray:
        """Integer symbol psi[g, h] = |g h^-1| over the ball."""
        inv = [self.inv(w) for w in self.words]
        n = self.size
        psi = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                d = len(word_mul(self.kind, self.words[i], inv[j]))
                psi[i, j] = psi[j, i] = d
        return psi

    def prefix_rows(self) -> np.ndarray:
        """0/1 matrix: row per nontrivial ball word w, column per g,
        entry [w is a prefix of g^-1]."""
        row = {w: r for r, w in enumerate(self.words[1:])}
        v = np.zeros((self.size - 1, self.size), dtype=int)
        for g, w in enumerate(self.words):
            wi = self.inv(w)
            for k in range(1, len(wi) + 1):
                v[row[wi[:k]], g] = 1
        return v


def enumerate_ball(kind: str, rank: int, radius: int) -> GroupBall:
    """All reduced words of length <= radius, capped at BALL_CAP elements."""
    _check_kind(kind)
    if rank < 1:
        raise InputError(f"rank must be >= 1, got {rank}")
    if radius < 0:
        raise InputError(f"radius must be >= 0, got {radius}")
    # the first layer has one word per letter; check it before listing any
    first = 2 * rank if kind == "free" else rank
    if radius and 1 + first > BALL_CAP:
        raise SizeError(
            f"group ball exceeds the cap of {BALL_CAP} elements "
            f"({1 + first} within radius 1)"
        )
    letters = _letters(kind, rank) if radius else []
    words = [()]
    frontier = [()]
    for _ in range(radius):
        if not frontier:
            break  # coxeter rank 1: the ball stops growing at radius 1
        nxt = []
        for w in frontier:
            for l in letters:
                if w and (w[-1] == -l if kind == "free" else w[-1] == l):
                    continue
                nxt.append(w + (l,))
        words.extend(nxt)
        frontier = nxt
        if len(words) > BALL_CAP:
            raise SizeError(
                f"group ball exceeds the cap of {BALL_CAP} elements "
                f"({len(words)} within radius {radius})"
            )
    return GroupBall(
        kind=kind,
        rank=rank,
        radius=radius,
        words=tuple(words),
        index={w: i for i, w in enumerate(words)},
    )


@dataclass(frozen=True)
class BallSemigroup:
    """Length-symbol Schur semigroup on a group ball, with its cocycle data."""

    ball: GroupBall
    psi: np.ndarray  # integer length symbol
    projections: np.ndarray  # prefix indicator rows, shape (size-1, size)
    gen: Generator
    phi: Density  # uniform trace, invariant


def build_ball_semigroup(kind: str, rank: int, radius: int) -> BallSemigroup:
    """Enumerate the ball, certify the cocycle identity exactly, and
    build the Schur generator of the length symbol."""
    ball = enumerate_ball(kind, rank, radius)
    psi = ball.length_matrix()
    v = ball.prefix_rows()
    diff = v[:, :, None] - v[:, None, :]
    if not np.array_equal(np.einsum("igh,igh->gh", diff, diff), psi):
        raise NumericalError("prefix cocycle does not reproduce the length symbol")
    gen = schur_generator(psi.astype(float))
    phi = density(np.eye(ball.size, dtype=complex) / ball.size)
    return BallSemigroup(ball=ball, psi=psi, projections=v, gen=gen, phi=phi)


def left_regular_observable(ball: GroupBall, word) -> np.ndarray:
    """Left translation by a ball word, compressed to the ball.

    Entry (g, h) is 1 exactly when g = word * h; columns whose image
    leaves the ball are zero, so the matrix is a partial isometry and
    an exact eigenvector of the length semigroup entry by entry.
    """
    w = _check_letters(ball.kind, ball.rank, word)
    if reduce_word(ball.kind, w) != w:
        raise InputError(f"word {w} is not reduced")
    ball.position(w)
    m = np.zeros((ball.size, ball.size), dtype=complex)
    for j, h in enumerate(ball.words):
        g = ball.mul(w, h)
        i = ball.index.get(g)
        if i is not None:
            m[i, j] = 1.0
    return m


def ball_calculus(sem: BallSemigroup) -> list:
    """Jump operators realizing the length generator from the cocycle.

    Each prefix indicator row gives a diagonal projection P; the jumps
    sqrt(2) P reproduce the Schur generator exactly, since
    sum_P [P, [P, x]] multiplies entry (g, h) by psi(g, h).
    """
    return [
        np.diag(np.sqrt(2.0) * row.astype(float)).astype(complex)
        for row in sem.projections
    ]
