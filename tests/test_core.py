"""Group arithmetic pinned against literal 4x4 matrix multiplication."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ut4class.core import (
    IDENTITY,
    Elt,
    commutator,
    compose,
    conjugate,
    depth,
    elt,
    from_matrix,
    inverse,
    mat_mul,
    power,
    to_matrix,
)

X = Elt(1, 2, 3, 4, 5, 6)
Y = Elt(-2, 1, 4, 0, -3, 2)


def oracle_compose(x, y):
    return from_matrix(mat_mul(to_matrix(x), to_matrix(y)))


def test_frozen_values():
    # expected values computed by direct matrix multiplication
    assert compose(X, Y) == Elt(-1, 3, 7, 5, 10, 21)
    assert compose(Y, X) == Elt(-1, 3, 7, 0, 5, -2)
    assert inverse(X) == Elt(-1, -2, -3, -2, 1, 5)
    assert power(X, 3) == Elt(3, 6, 9, 18, 33, 75)
    assert power(X, -2) == Elt(-2, -4, -6, -2, 8, 15)
    assert commutator(X, Y) == Elt(0, 0, 0, 5, 5, -12)
    assert conjugate(X, Y) == Elt(1, 2, 3, -1, 0, 3)


def test_closed_forms_match_matrix_products():
    # conjugate and commutator are written out in closed form; pin them
    # against the literal products of matrices
    rng = random.Random(20261018)

    def rand():
        return Elt(*[rng.randint(-9, 9) for _ in range(6)])

    for _ in range(2000):
        x, h = rand(), rand()
        assert conjugate(x, h) == oracle_compose(
            oracle_compose(h, x), inverse(h))
        assert commutator(x, h) == oracle_compose(
            oracle_compose(x, h), oracle_compose(inverse(x), inverse(h)))


_big = st.builds(Elt, *[st.integers(-10**6, 10**6)] * 6)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_big, _big)
def test_commutator_is_the_conjugation_ratio(g, k):
    # characters.agreement_conditions takes chi's ratio between k's
    # conjugate by g and k as chi(commutator(g, k)), in closed form
    ratio = compose(conjugate(k, g), inverse(k))
    assert commutator(g, k) == ratio
    assert ratio == oracle_compose(oracle_compose(g, k),
                                   oracle_compose(inverse(g), inverse(k)))


def test_matrix_roundtrip():
    assert from_matrix(to_matrix(X)) == X
    with pytest.raises(ValueError):
        from_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]])


def test_compose_against_matrices():
    rng = random.Random(7)
    for _ in range(300):
        u = Elt(*(rng.randint(-5, 5) for _ in range(6)))
        v = Elt(*(rng.randint(-5, 5) for _ in range(6)))
        assert compose(u, v) == oracle_compose(u, v)


def test_inverse_and_power():
    rng = random.Random(11)
    for _ in range(200):
        u = Elt(*(rng.randint(-5, 5) for _ in range(6)))
        assert compose(u, inverse(u)) == IDENTITY
        assert compose(inverse(u), u) == IDENTITY
        w = IDENTITY
        for r in range(7):
            assert power(u, r) == w
            w = compose(w, u)
        for r in range(1, 5):
            assert power(u, -r) == inverse(power(u, r))


def test_power_is_homomorphic_in_exponent():
    rng = random.Random(13)
    for _ in range(100):
        u = Elt(*(rng.randint(-4, 4) for _ in range(6)))
        r, s = rng.randint(-6, 6), rng.randint(-6, 6)
        assert compose(power(u, r), power(u, s)) == power(u, r + s)


def test_commutator_expansion_identity():
    # [h, g^(i+j)] = [h, g^i] * conjugate([h, g^j], g^i); this is the
    # identity that fixes the bracket and conjugation conventions used
    # everywhere in the package.
    rng = random.Random(17)
    for _ in range(100):
        h = Elt(*(rng.randint(-3, 3) for _ in range(6)))
        g = Elt(*(rng.randint(-3, 3) for _ in range(6)))
        i, j = rng.randint(-4, 4), rng.randint(-4, 4)
        lhs = commutator(h, compose(power(g, i), power(g, j)))
        rhs = compose(
            commutator(h, power(g, i)),
            conjugate(commutator(h, power(g, j)), power(g, i)),
        )
        assert lhs == rhs


def test_depth():
    assert depth(elt(a=1)) == 0
    assert depth(elt(f=-2, c=3)) == 0
    assert depth(elt(b=1, c=9)) == 1
    assert depth(elt(e=-4)) == 1
    assert depth(elt(c=5)) == 2
    assert depth(IDENTITY) == math.inf

