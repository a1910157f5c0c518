"""Exact integer linear algebra on row lattices.

Everything here works over Z with plain Python ints (no overflow, no
floating point).  A "lattice" is the Z-span of a list of integer row
vectors; the canonical form used throughout is the row-style Hermite
normal form: pivots positive, entries above each pivot reduced into
[0, pivot), zero rows dropped, rows ordered by pivot column.  That form
is unique per lattice, so lattice equality is list equality.

A few routines also track the unimodular row transform, which is what
lets callers mirror row operations onto attached data (group-element
tails, solution coefficients).
"""

from __future__ import annotations

from typing import Iterable, Sequence

Row = tuple[int, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def divisors(n: int) -> list[int]:
    """The positive divisors of |n| in increasing order, found in O(sqrt n)
    steps; none for 0."""
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def transpose(rows: Sequence[Sequence[int]], ncols: int | None = None) -> list[Row]:
    if not rows:
        return [() for _ in range(ncols)] if ncols else []
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


def _pivot_col(v: Sequence[int], ncols: int) -> int | None:
    for j in range(ncols):
        if v[j]:
            return j
    return None


def _hnf_core(rows: Iterable[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Echelonize with unimodular row ops only.

    Returns (pivot_rows, zero_rows); rows may be longer than ncols, the
    extra columns ride along untouched by pivot logic (transform
    tracking).  pivot_rows come back fully reduced (HNF on the first
    ncols columns) and sorted by pivot column.
    """
    pivots: dict[int, list[int]] = {}
    zeros: list[list[int]] = []
    for orig in rows:
        v = list(orig)
        j = _pivot_col(v, ncols)
        installed = False
        while j is not None:
            r = pivots.get(j)
            if r is None:
                if v[j] < 0:
                    v = [-t for t in v]
                pivots[j] = v
                installed = True
                j = None
            else:
                p, w = r[j], v[j]
                g, x, y = xgcd(p, w)
                # (r, v) -> (x r + y v, (p/g) v - (w/g) r): det = 1
                comb = [x * ra + y * va for ra, va in zip(r, v)]
                v = [(p // g) * va - (w // g) * ra for ra, va in zip(r, v)]
                pivots[j] = comb
                j = _pivot_col(v, ncols)
        if not installed and any(v):
            zeros.append(v)
    cols = sorted(pivots)
    # back-reduce entries above each pivot into [0, pivot)
    for i, j in enumerate(cols):
        for j2 in cols[i + 1:]:
            r2 = pivots[j2]
            q = pivots[j][j2] // r2[j2]
            if q:
                pivots[j] = [a - q * b for a, b in zip(pivots[j], r2)]
    return [pivots[j] for j in cols], zeros


def hnf(rows: Sequence[Sequence[int]]) -> list[Row]:
    """Hermite normal form of the row lattice (unique canonical basis)."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    piv, _ = _hnf_core(rows, len(rows[0]))
    return [tuple(r) for r in piv]


def hnf_with_transform(
    rows: Sequence[Sequence[int]],
) -> tuple[list[Row], list[Row], list[Row]]:
    """Return (H, U, K): H = HNF, U[i] . rows = H[i], K = left-kernel basis.

    The stacked matrix [U; K] is unimodular, so K is a complete basis of
    {x : x . rows = 0}.
    """
    rows = list(rows)
    if not rows:
        return [], [], []
    n = len(rows[0])
    k = len(rows)
    aug = [list(r) + [1 if i == t else 0 for t in range(k)] for i, r in enumerate(rows)]
    piv, zeros = _hnf_core(aug, n)
    H = [tuple(r[:n]) for r in piv]
    U = [tuple(r[n:]) for r in piv]
    K = [tuple(z[n:]) for z in zeros if any(z[n:])]
    return H, U, K


def row_reduce(hnf_rows: Sequence[Row], v: Sequence[int]) -> tuple[Row, list[int]]:
    """Reduce v modulo an HNF lattice into the fundamental domain.

    Returns (residue, quotients); residue is the canonical coset
    representative (pivot coordinates land in [0, pivot)), and
    v = residue + sum(q_i * hnf_rows[i]).
    """
    v = list(v)
    quots = []
    for r in hnf_rows:
        j = _pivot_col(r, len(r))
        q = v[j] // r[j]
        quots.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, r)]
    return tuple(v), quots


def in_rowspan(rows: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    res, _ = row_reduce(hnf(rows), v)
    return not any(res)


def solve_in_rowspace(rows: Sequence[Sequence[int]], v: Sequence[int]) -> Row | None:
    """Integer coefficients c with c . rows = v, or None if v is outside."""
    rows = list(rows)
    if not any(v):
        return tuple(0 for _ in rows)
    if not rows:
        return None
    H, U, _ = hnf_with_transform(rows)
    res, quots = row_reduce(H, v)
    if any(res):
        return None
    coeffs = [0] * len(rows)
    for q, u in zip(quots, U):
        if q:
            coeffs = [c + q * ui for c, ui in zip(coeffs, u)]
    return tuple(coeffs)


def preimage(rows: Sequence[Sequence[int]],
             lattice: Sequence[Sequence[int]]) -> list[Row]:
    """HNF basis of {x : x . rows lies in the span of lattice}.

    A left-kernel vector of rows stacked over lattice pairs each such x
    with the lattice coefficients that cancel x . rows, so its first
    len(rows) entries span the answer.
    """
    rows = list(rows)
    if not rows:
        return []
    kern = hnf_with_transform(rows + list(lattice))[2]
    return hnf([k[:len(rows)] for k in kern])


def left_kernel(rows: Sequence[Sequence[int]]) -> list[Row]:
    """Basis of {x : x . rows = 0}."""
    return preimage(rows, [])


def kernel_right(rows: Sequence[Sequence[int]], ncols: int | None = None) -> list[Row]:
    """Basis of {x : rows . x = 0} as row vectors of length ncols."""
    rows = list(rows)
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for empty matrix")
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    return left_kernel(transpose(rows))


def solve_linear(
    a_rows: Sequence[Sequence[int]], b: Sequence[int]
) -> tuple[Row, list[Row]] | None:
    """Solve A x = b over Z: returns (x0, kernel_basis) or None.

    A is given by rows; the full solution set is x0 + span(kernel_basis).
    """
    a_rows = list(a_rows)
    ncols = len(a_rows[0]) if a_rows else len(b)
    if not a_rows:
        return (tuple(0 for _ in range(ncols)),
                kernel_right([], ncols)) if not any(b) else None
    x0 = solve_in_rowspace(transpose(a_rows), b)
    if x0 is None:
        return None
    return x0, kernel_right(a_rows, ncols)


def saturate(rows: Sequence[Sequence[int]]) -> list[Row]:
    """Saturation (Q-span intersected with Z^n) of the row lattice."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    k = kernel_right(rows, n)
    return kernel_right(k, n)


def lattice_intersect(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]
) -> list[Row]:
    a_rows, b_rows = list(a_rows), list(b_rows)
    if not a_rows or not b_rows:
        return []
    meet = []
    for u in preimage(a_rows, b_rows):
        vec = [0] * len(a_rows[0])
        for c, row in zip(u, a_rows):
            if c:
                vec = [t + c * rt for t, rt in zip(vec, row)]
        if any(vec):
            meet.append(tuple(vec))
    return hnf(meet)


def lattice_index(sup_rows: Sequence[Sequence[int]], sub_rows: Sequence[Sequence[int]]) -> int | None:
    """Index [sup : sub] for nested row lattices; None when infinite.

    Assumes sub is contained in sup (not rechecked here).
    """
    hs = hnf(sup_rows)
    hb = hnf(sub_rows)
    if len(hs) != len(hb):
        return None
    num = den = 1
    for r in hb:
        num *= r[_pivot_col(r, len(r))]
    for r in hs:
        den *= r[_pivot_col(r, len(r))]
    if num % den:
        return None
    return num // den
