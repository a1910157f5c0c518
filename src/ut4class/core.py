"""Upper unitriangular 4x4 integer matrices in coordinate form.

An element is the coordinate tuple (a, d, f, b, e, c) of the matrix

    [1 a b c]
    [0 1 d e]
    [0 0 1 f]
    [0 0 0 1]

(a, d, f) sit on the first superdiagonal, (b, e) on the second, c in the
corner.  All group operations below are closed forms in these
coordinates; the test suite pins every one of them against literal 4x4
matrix multiplication.

Layering used throughout the package: the derived subgroup consists of
the elements with a = d = f = 0 (coordinates (b, e, c), abelian), and
the centre of those with only c nonzero.  ``depth`` reports which layer
an element first lands in.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Elt(NamedTuple):
    a: int
    d: int
    f: int
    b: int
    e: int
    c: int

    def __str__(self) -> str:  # compact, matches the CLI's element syntax
        return "({},{},{},{},{},{})".format(*self)


IDENTITY = Elt(0, 0, 0, 0, 0, 0)


def elt(a: int = 0, d: int = 0, f: int = 0, b: int = 0, e: int = 0, c: int = 0) -> Elt:
    return Elt(int(a), int(d), int(f), int(b), int(e), int(c))


def compose(x: Elt, y: Elt) -> Elt:
    return Elt(
        x.a + y.a,
        x.d + y.d,
        x.f + y.f,
        x.b + y.b + x.a * y.d,
        x.e + y.e + x.d * y.f,
        x.c + y.c + x.a * y.e + x.b * y.f,
    )


def inverse(x: Elt) -> Elt:
    a, d, f, b, e, c = x
    return Elt(-a, -d, -f, a * d - b, d * f - e, -c - a * d * f + a * e + b * f)


def power(x: Elt, r: int) -> Elt:
    """x**r for any integer r (closed form, no repeated multiplication)."""
    a, d, f, b, e, c = x
    c2 = r * (r - 1) // 2          # binomial(r, 2), exact for negative r too
    c3 = r * (r - 1) * (r - 2) // 6
    return Elt(
        r * a,
        r * d,
        r * f,
        r * b + c2 * a * d,
        r * e + c2 * d * f,
        r * c + c2 * (a * e + b * f) + c3 * a * d * f,
    )


def conjugate(x: Elt, h: Elt) -> Elt:
    """h x h^-1 (closed form of the two products)."""
    a, d, f, b, e, c = x
    ha, hd, hf, hb, he, _ = h
    return Elt(
        a,
        d,
        f,
        b + ha * d - a * hd,
        e + hd * f - d * hf,
        c + ha * e + hb * f - a * he - b * hf + (a * hd - ha * d) * hf,
    )


def commutator(x: Elt, y: Elt) -> Elt:
    """x y x^-1 y^-1 (closed form of the three products)."""
    xa, xd, xf, xb, xe, _ = x
    ya, yd, yf, yb, ye, _ = y
    return Elt(
        0,
        0,
        0,
        xa * yd - xd * ya,
        xd * yf - xf * yd,
        xa * ye + xb * yf - xe * ya - xf * yb
        + (xd * ya - xa * yd) * (xf + yf),
    )


def depth(x: Elt) -> int | float:
    """Lower-central layer: 0 generic, 1 derived subgroup, 2 centre, inf identity."""
    if x.a or x.d or x.f:
        return 0
    if x.b or x.e:
        return 1
    if x.c:
        return 2
    return math.inf


def to_matrix(x: Elt) -> list[list[int]]:
    a, d, f, b, e, c = x
    return [[1, a, b, c], [0, 1, d, e], [0, 0, 1, f], [0, 0, 0, 1]]


def from_matrix(m) -> Elt:
    for i in range(4):
        for j in range(4):
            v = m[i][j]
            if (i == j and v != 1) or (i > j and v != 0):
                raise ValueError("matrix is not upper unitriangular")
    return Elt(m[0][1], m[1][2], m[2][3], m[0][2], m[1][3], m[0][3])


def mat_mul(p, q) -> list[list[int]]:
    return [[sum(p[i][k] * q[k][j] for k in range(4)) for j in range(4)] for i in range(4)]

