"""Integer lattice routines checked against brute-force box enumeration."""

import itertools
import random

from ut4class.intlin import (
    hnf,
    hnf_with_transform,
    in_rowspan,
    kernel_right,
    lattice_index,
    lattice_intersect,
    left_kernel,
    row_reduce,
    saturate,
    solve_in_rowspace,
    solve_linear,
    transpose,
    xgcd,
)


def box_points(lattice_rows, coeff_bound):
    """All integer combinations of the rows with small coefficients."""
    if not lattice_rows:
        return {()}
    pts = set()
    n = len(lattice_rows[0])
    rng = range(-coeff_bound, coeff_bound + 1)
    for coeffs in itertools.product(rng, repeat=len(lattice_rows)):
        v = tuple(sum(c * r[j] for c, r in zip(coeffs, lattice_rows)) for j in range(n))
        pts.add(v)
    return pts


def random_rows(rng, k, n, lo=-6, hi=6):
    return [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(k)]


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 0), (0, -7), (5, 0), (-9, -6)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_canonical_form():
    h = hnf([(2, 4, 4), (6, 6, 12), (10, 4, 16)])
    # pivots positive, entries above pivots reduced into [0, pivot)
    for i, row in enumerate(h):
        piv = next(j for j, v in enumerate(row) if v)
        assert row[piv] > 0
        for other in h[:i]:
            assert 0 <= other[piv] < row[piv]
    assert hnf(h) == h


def test_hnf_is_basis_invariant():
    rng = random.Random(3)
    for _ in range(60):
        rows = random_rows(rng, rng.randint(1, 4), rng.randint(2, 5))
        h1 = hnf(rows)
        # recombine rows unimodularly and shuffle
        rows2 = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.randrange(len(rows2)), rng.randrange(len(rows2))
            if i != j:
                q = rng.randint(-3, 3)
                rows2[i] = [a + q * b for a, b in zip(rows2[i], rows2[j])]
        rng.shuffle(rows2)
        assert hnf(rows2) == h1


def test_hnf_transform_consistency():
    rng = random.Random(5)
    for _ in range(60):
        rows = random_rows(rng, rng.randint(1, 4), rng.randint(2, 4))
        h, u, k = hnf_with_transform(rows)
        n = len(rows[0])
        for hrow, urow in zip(h, u):
            acc = [0] * n
            for c, r in zip(urow, rows):
                acc = [x + c * y for x, y in zip(acc, r)]
            assert tuple(acc) == hrow
        for krow in k:
            acc = [0] * n
            for c, r in zip(krow, rows):
                acc = [x + c * y for x, y in zip(acc, r)]
            assert not any(acc)


def test_row_reduce_fundamental_domain():
    h = hnf([(2, 1, 0), (0, 3, 1)])
    seen = set()
    for v in itertools.product(range(-4, 5), repeat=3):
        res, quots = row_reduce(h, v)
        rebuilt = list(res)
        for q, r in zip(quots, h):
            rebuilt = [x + q * y for x, y in zip(rebuilt, r)]
        assert tuple(rebuilt) == v
        # canonical rep: pivot coordinates reduced
        assert 0 <= res[0] < 2 and 0 <= res[1] < 3
        seen.add((v, res))
    # same coset -> same representative
    reps = {}
    for v, res in seen:
        shifted = tuple(x + 2 * y for x, y in zip(v, h[0]))
        assert row_reduce(h, shifted)[0] == res


def test_membership_against_bruteforce():
    rng = random.Random(9)
    for _ in range(40):
        rows = random_rows(rng, 2, 3, -3, 3)
        pts = box_points(rows, 3)
        for v in itertools.product(range(-4, 5), repeat=3):
            claimed = in_rowspan(rows, v)
            if v in pts:
                assert claimed
            elif claimed:
                c = solve_in_rowspace(rows, v)
                assert c is not None
                acc = [0, 0, 0]
                for ci, r in zip(c, rows):
                    acc = [x + ci * y for x, y in zip(acc, r)]
                assert tuple(acc) == v


def test_solve_in_rowspace():
    rng = random.Random(13)
    for _ in range(80):
        rows = random_rows(rng, rng.randint(1, 4), rng.randint(2, 4))
        coeffs = [rng.randint(-4, 4) for _ in rows]
        v = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0]))
        )
        sol = solve_in_rowspace(rows, v)
        assert sol is not None
        acc = [0] * len(rows[0])
        for c, r in zip(sol, rows):
            acc = [x + c * y for x, y in zip(acc, r)]
        assert tuple(acc) == v
    assert solve_in_rowspace([(2, 0)], (1, 0)) is None
    assert solve_in_rowspace([], (0, 0)) == ()


def test_kernels():
    rng = random.Random(17)
    for _ in range(60):
        rows = random_rows(rng, rng.randint(1, 3), rng.randint(2, 4), -4, 4)
        n = len(rows[0])
        lk = left_kernel(rows)
        for x in lk:
            acc = [0] * n
            for c, r in zip(x, rows):
                acc = [p + c * q for p, q in zip(acc, r)]
            assert not any(acc)
        rk = kernel_right(rows, n)
        for x in rk:
            assert all(sum(r[j] * x[j] for j in range(n)) == 0 for r in rows)
    # completeness on a known case: kernel of [[1,2,3]] has rank 2
    rk = kernel_right([(1, 2, 3)], 3)
    assert len(rk) == 2
    found = {
        v
        for v in itertools.product(range(-3, 4), repeat=3)
        if v[0] + 2 * v[1] + 3 * v[2] == 0
    }
    assert all(in_rowspan(rk, v) for v in found)


def test_solve_linear():
    rng = random.Random(19)
    for _ in range(80):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = random_rows(rng, m, n, -4, 4)
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = tuple(sum(r[j] * x[j] for j in range(n)) for r in a)
        got = solve_linear(a, b)
        assert got is not None
        x0, kern = got
        assert tuple(sum(r[j] * x0[j] for j in range(n)) for r in a) == b
        for kv in kern:
            assert all(sum(r[j] * kv[j] for j in range(n)) == 0 for r in a)
    assert solve_linear([(2, 0), (0, 2)], (1, 1)) is None


def test_saturate():
    rng = random.Random(23)
    for _ in range(40):
        rows = random_rows(rng, rng.randint(1, 3), 3, -4, 4)
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        sat = saturate(rows)
        for r in rows:
            assert in_rowspan(sat, r)
        assert saturate(sat) == hnf(sat)
        # every point with a small multiple inside the lattice is in sat
        for v in itertools.product(range(-2, 3), repeat=3):
            if any(v) and any(
                in_rowspan(rows, tuple(k * x for x in v)) for k in range(1, 7)
            ):
                assert in_rowspan(sat, v)


def test_lattice_intersect_against_bruteforce():
    rng = random.Random(29)
    for _ in range(30):
        a = random_rows(rng, 2, 3, -3, 3)
        b = random_rows(rng, 2, 3, -3, 3)
        meet = lattice_intersect(a, b)
        for r in meet:
            assert in_rowspan(a, r) and in_rowspan(b, r)
        both = {
            v
            for v in itertools.product(range(-6, 7), repeat=3)
            if in_rowspan(a, v) and in_rowspan(b, v)
        }
        for v in both:
            assert in_rowspan(meet, v)


def test_lattice_index():
    def det2(r):
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]

    rng = random.Random(31)
    for _ in range(40):
        sup = random_rows(rng, 2, 2, -4, 4)
        if det2(sup) == 0:
            continue
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        mix = d1 * rng.randint(-2, 2)
        sub = [
            tuple(d1 * x for x in sup[0]),
            tuple(d2 * x + mix * y for x, y in zip(sup[1], sup[0])),
        ]
        assert lattice_index(sup, sub) == d1 * d2
    assert lattice_index([(1, 0), (0, 1)], [(2, 0)]) is None
    assert lattice_index([(1, 0)], [(3, 0)]) == 3


def test_transpose():
    assert transpose([(1, 2, 3), (4, 5, 6)]) == [(1, 4), (2, 5), (3, 6)]
    assert transpose([], ncols=2) == [(), ()]
