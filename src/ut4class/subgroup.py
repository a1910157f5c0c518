"""Finitely generated subgroups in canonical form.

A subgroup is stored by layers: ``gens1`` are generators whose
first-superdiagonal coordinates (a, d, f) form a Hermite-normal-form
basis of the level-1 lattice, ``gens2`` generate the intersection with
the derived subgroup modulo the centre ((b, e) rows again in HNF), and
``c0`` generates the intersection with the centre.  Tails are reduced
into fixed fundamental domains, so equal subgroups have equal canonical
data; structural equality of ``Subgroup`` values is subgroup equality.

Every operation is exact: none searches a box or returns a partial
answer.  ``intersect`` solves one linear lattice system per layer.

``ENUMERATION_CAP`` bounds the enumerations whose length the input
controls.  Past it ``transversal`` and ``isolator`` raise
``CapacityError``: the input is valid, and the tool declines the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterable, Sequence

from . import intlin
from .core import (
    IDENTITY,
    Elt,
    commutator,
    compose,
    conjugate,
    depth,
    elt,
    inverse,
    power,
)


ENUMERATION_CAP = 200000


class CapacityError(Exception):
    """The request is valid but needs more than ENUMERATION_CAP items
    enumerated."""


def _first_nz(v) -> int | None:
    for j, x in enumerate(v):
        if x:
            return j
    return None


def _combo(coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    n = len(rows[0])
    out = [0] * n
    for c, r in zip(coeffs, rows):
        if c:
            out = [a + c * b for a, b in zip(out, r)]
    return tuple(out)


@dataclass(frozen=True)
class Subgroup:
    gens1: tuple[Elt, ...]
    gens2: tuple[Elt, ...]
    c0: int
    # derived_subgroup's memo, set once with object.__setattr__
    _derived: Subgroup | None = field(default=None, init=False,
                                      compare=False, hash=False, repr=False)

    @property
    def level1_rows(self) -> list[tuple[int, int, int]]:
        return [(t.a, t.d, t.f) for t in self.gens1]

    @property
    def level2_rows(self) -> list[tuple[int, int]]:
        return [(s.b, s.e) for s in self.gens2]

    @property
    def gamma1_rows(self) -> list[tuple[int, int, int]]:
        """Basis of the derived-subgroup intersection as a lattice in (b, e, c)."""
        rows = [(s.b, s.e, s.c) for s in self.gens2]
        if self.c0:
            rows.append((0, 0, self.c0))
        return rows

    def generators(self) -> list[Elt]:
        gens = list(self.gens1) + list(self.gens2)
        if self.c0:
            gens.append(elt(c=self.c0))
        return gens

    def rank_signature(self) -> tuple[int, int, int]:
        return (len(self.gens1), len(self.gens2), 1 if self.c0 else 0)

    def hirsch_length(self) -> int:
        return sum(self.rank_signature())

    def summary(self) -> dict:
        return {
            "level1": [list(t) for t in self.gens1],
            "level2": [list(s) for s in self.gens2],
            "center": self.c0,
            "rank_signature": list(self.rank_signature()),
        }


class _Builder:
    def __init__(self) -> None:
        self.p1: dict[int, tuple[list[int], Elt]] = {}
        self.p2: dict[int, tuple[list[int], Elt]] = {}
        self.c0 = 0

    def add(self, g: Elt) -> None:
        d = depth(g)
        if d == 0:
            left = self._reduce_insert(self.p1, [g.a, g.d, g.f], g)
            if left is None:
                return
            g, d = left, depth(left)
        if d == 1:
            left = self._reduce_insert(self.p2, [g.b, g.e], g)
            if left is None:
                return
            g = left
        if g.c:
            self.c0 = math.gcd(self.c0, abs(g.c))

    def _reduce_insert(self, pivots, v: list[int], tail: Elt) -> Elt | None:
        """Echelon insertion with the row ops mirrored on group elements."""
        j = _first_nz(v)
        while j is not None:
            cur = pivots.get(j)
            if cur is None:
                if v[j] < 0:
                    v = [-t for t in v]
                    tail = inverse(tail)
                pivots[j] = (v, tail)
                return None
            r, t = cur
            p, w = r[j], v[j]
            g_, x, y = intlin.xgcd(p, w)
            comb_vec = [x * ra + y * va for ra, va in zip(r, v)]
            comb_tail = compose(power(t, x), power(tail, y))
            new_vec = [(p // g_) * va - (w // g_) * ra for ra, va in zip(r, v)]
            new_tail = compose(power(tail, p // g_), power(t, -(w // g_)))
            pivots[j] = (comb_vec, comb_tail)
            v, tail = new_vec, new_tail
            j = _first_nz(v)
        return tail

    def _contains_low(self, x: Elt) -> bool:
        g = x
        for j in sorted(self.p2):
            r, t = self.p2[j]
            w = (g.b, g.e)[j]
            if w:
                if w % r[j]:
                    return False
                g = compose(power(t, -(w // r[j])), g)
        if g.b or g.e:
            return False
        return g.c % self.c0 == 0 if self.c0 else g.c == 0

    def close(self) -> None:
        while True:
            pend = []
            tails1 = [t for _, t in (self.p1[j] for j in sorted(self.p1))]
            for i in range(len(tails1)):
                for j in range(i + 1, len(tails1)):
                    c = commutator(tails1[i], tails1[j])
                    if c != IDENTITY and not self._contains_low(c):
                        pend.append(c)
            for j in sorted(self.p1):
                t = self.p1[j][1]
                for j2 in sorted(self.p2):
                    s = self.p2[j2][1]
                    c = commutator(t, s)  # central
                    if c.c and (self.c0 == 0 or c.c % self.c0):
                        pend.append(c)
            if not pend:
                return
            for g in pend:
                self.add(g)

    def finish(self) -> Subgroup:
        cols2 = sorted(self.p2)
        for i, j in enumerate(cols2):
            for j2 in cols2[i + 1:]:
                r2, t2 = self.p2[j2]
                r, t = self.p2[j]
                q = r[j2] // r2[j2]
                if q:
                    self.p2[j] = (
                        [a - q * b for a, b in zip(r, r2)],
                        compose(t, power(t2, -q)),
                    )
        if self.c0:
            for j in cols2:
                r, t = self.p2[j]
                q = t.c // self.c0
                if q:
                    self.p2[j] = (r, compose(t, elt(c=-q * self.c0)))
        cols1 = sorted(self.p1)
        for i, j in enumerate(cols1):
            for j2 in cols1[i + 1:]:
                r2, t2 = self.p1[j2]
                r, t = self.p1[j]
                q = r[j2] // r2[j2]
                if q:
                    self.p1[j] = (
                        [a - q * b for a, b in zip(r, r2)],
                        compose(t, power(t2, -q)),
                    )
        # canonical coset tails: (b, e) into the level-2 fundamental domain,
        # then the corner modulo c0
        for j in cols1:
            r, t = self.p1[j]
            for j2 in cols2:
                w, s = self.p2[j2]
                piv = _first_nz(w)
                q = (t.b, t.e)[piv] // w[piv]
                if q:
                    t = compose(t, power(s, -q))
            if self.c0:
                q = t.c // self.c0
                if q:
                    t = compose(t, elt(c=-q * self.c0))
            self.p1[j] = (r, t)
        gens1 = tuple(self.p1[j][1] for j in cols1)
        gens2 = tuple(self.p2[j][1] for j in cols2)
        return Subgroup(gens1, gens2, self.c0)


def subgroup(generators: Iterable[Elt]) -> Subgroup:
    """Canonical form of the subgroup generated by the given elements."""
    b = _Builder()
    for g in generators:
        b.add(Elt(*g))
    b.close()
    return b.finish()


WHOLE_GROUP = subgroup([elt(a=1), elt(d=1), elt(f=1), elt(b=1), elt(e=1),
                        elt(c=1)])


def _walk(gens: Iterable[Elt], g: Elt) -> tuple[list[int], Elt]:
    """Floor-divide g along echelon generators, left to right, each on its
    first nonzero coordinate: (one quotient per generator, what is left)."""
    quots = []
    g = list(g)
    for t in gens:
        j = _first_nz(t)
        q = g[j] // t[j]
        quots.append(q)
        if q:
            # g <- power(t, -q) * g, both closed forms of core written out
            # on plain ints: this loop is the innermost one of membership
            ta, td, tf, tb, te, tc = t
            a, d, f, b, e, c = g
            r = -q
            r2 = r * (r - 1) // 2
            pa, pd = r * ta, r * td
            pb = r * tb + r2 * ta * td
            g = [pa + a, pd + d, r * tf + f, pb + b + pa * d,
                 r * te + r2 * td * tf + e + pd * f,
                 r * tc + r2 * (ta * te + tb * tf)
                 + r * (r - 1) * (r - 2) // 6 * ta * td * tf
                 + c + pa * e + pb * f]
    return quots, Elt(*g)


def decompose(h: Subgroup, g: Elt) -> tuple[list[int], Elt]:
    """Quotients of g along h.generators() and the canonical
    representative rep of the right coset H*g.

    g == prod(gen**q) * rep, and g lies in h exactly when rep is the
    identity; the quotients are then the coordinates of g.
    """
    quots, g = _walk(h.gens1 + h.gens2, g)
    if h.c0:
        q = g.c // h.c0
        quots.append(q)
        g = Elt(g.a, g.d, g.f, g.b, g.e, g.c - q * h.c0)
    return quots, g


def contains(h: Subgroup, g: Elt) -> bool:
    return decompose(h, g)[1] == IDENTITY


def level1_preimage(h: Subgroup, v: Sequence[int]) -> Elt:
    """The canonical element of H whose (a, d, f) coordinates equal v."""
    a, d, f = v
    _, r = _walk(h.gens1, elt(a=a, d=d, f=f))
    if r.a or r.d or r.f:
        raise ValueError("vector outside the level-1 lattice")
    # elt(a, d, f) is the preimage times r, and r lies in the derived
    # subgroup, so the preimage is elt(a, d, f) * r^-1 in closed form
    return Elt(a, d, f, -r.b, -r.e, -r.c - a * r.e)


def level1_sublattice(h: Subgroup, A: int, D: int, F: int):
    """Coefficient rows (over the level-1 generators) of the elements of h
    that conjugation by a level-1 part (A, D, F) keeps inside h: their
    conjugation shift of (b, e) must lie in the level-2 lattice.
    Returns (HNF rows, whether they have full rank)."""
    V = h.level1_rows
    coeffs = intlin.preimage(
        [(A * v[1] - v[0] * D, D * v[2] - v[1] * F) for v in V], h.level2_rows)
    return coeffs, len(coeffs) == len(V)


def derived_subgroup(h: Subgroup) -> Subgroup:
    """Canonical form of the commutator subgroup [h, h], computed once
    per Subgroup value and kept on it."""
    if h._derived is not None:
        return h._derived
    gens = h.generators()
    pairs = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c = commutator(gens[i], gens[j])
            if c != IDENTITY:
                pairs.append(c)
    # normal closure needs the conjugation corrections, which in this
    # group are central triple commutators
    triples = [commutator(c, g) for c in pairs for g in gens]
    out = subgroup(pairs + [t for t in triples if t != IDENTITY])
    object.__setattr__(h, "_derived", out)
    return out


def conjugate_subgroup(h: Subgroup, g: Elt) -> Subgroup:
    """Canonical form of g H g^-1."""
    return subgroup([conjugate(t, g) for t in h.generators()])


def index_in(sub: Subgroup, sup: Subgroup) -> int | float:
    """Index [sup : sub]; math.inf when infinite; ValueError if not contained."""
    for t in sub.generators():
        if not contains(sup, t):
            raise ValueError("first subgroup is not contained in the second")
    if sub.rank_signature() != sup.rank_signature():
        return math.inf
    i1 = intlin.lattice_index(sup.level1_rows, sub.level1_rows)
    i2 = intlin.lattice_index(sup.gamma1_rows, sub.gamma1_rows)
    if i1 is None or i2 is None:
        return math.inf
    return i1 * i2


def transversal(h: Subgroup, k: Subgroup,
                max_size: int = ENUMERATION_CAP) -> list[Elt]:
    """Representatives of the right cosets of h inside k (finite index)."""
    idx = index_in(h, k)
    if idx == math.inf:
        raise ValueError("infinite index")
    if idx > max_size:
        raise CapacityError("index too large to enumerate")
    # at finite index each HNF below is square with its pivots on the
    # diagonal, so the box of pivot residues is a fundamental domain
    reps1 = [IDENTITY]
    if k.gens1:
        t_rows = [intlin.solve_in_rowspace(k.level1_rows, r) for r in h.level1_rows]
        thnf = intlin.hnf(t_rows)
        pivots = [r[_first_nz(r)] for r in thnf]
        reps1 = []
        for x in iproduct(*[range(p) for p in pivots]):
            v = _combo(x, k.level1_rows)
            reps1.append(level1_preimage(k, v))
    repsg = [IDENTITY]
    if k.gamma1_rows:
        u_rows = [intlin.solve_in_rowspace(k.gamma1_rows, r) for r in h.gamma1_rows]
        uhnf = intlin.hnf(u_rows)
        pivots = [r[_first_nz(r)] for r in uhnf]
        repsg = []
        for y in iproduct(*[range(p) for p in pivots]):
            w = _combo(y, k.gamma1_rows)
            repsg.append(elt(b=w[0], e=w[1], c=w[2]))
    out = [compose(r1, rg) for r1 in reps1 for rg in repsg]
    assert len(out) == idx
    return out


# --- intersection ---

def intersect(h: Subgroup, k: Subgroup) -> Subgroup:
    """Canonical form of the intersection of two subgroups.

    On the meet M of the level-1 lattices, delta(v) = pre_K(v)^-1 pre_H(v)
    is the derived-subgroup gap between the canonical preimages of v, and
    v lifts into H and K together exactly when delta(v) lies in
    sigma = Gamma_H + Gamma_K.  Layer by layer the condition is linear:
    modulo the centre the derived layer is central, so delta is additive
    on M modulo the (b, e) image of sigma; on the solutions S1 of that
    layer, delta(v1 + v2) - delta(v1) - delta(v2) is the change of delta(v1)
    under conjugation by pre_K(v2), which keeps its Gamma_K part in
    Gamma_K, and its Gamma_H part in Gamma_H since pre_K(v2) acts on the
    abelian derived layer as pre_H(v2) does.  So delta is additive on S1
    modulo sigma, and each layer is one ``intlin.preimage``.
    """
    lam_h = h.gamma1_rows
    lam_k = k.gamma1_rows
    lam_i = intlin.lattice_intersect(lam_h, lam_k)
    gens: list[Elt] = [elt(b=r[0], e=r[1], c=r[2]) for r in lam_i]
    m_rows = intlin.lattice_intersect(h.level1_rows, k.level1_rows)
    sigma = intlin.hnf(list(lam_h) + list(lam_k))

    def delta(v: Sequence[int]) -> tuple[int, int, int]:
        d = compose(inverse(level1_preimage(k, v)), level1_preimage(h, v))
        return (d.b, d.e, d.c)

    s1 = [_combo(y, m_rows) for y in intlin.preimage(
        [delta(v)[:2] for v in m_rows], [r[:2] for r in sigma])]
    stack = list(lam_k) + list(lam_h)
    for y in intlin.preimage([delta(v) for v in s1], sigma):
        v = _combo(y, s1)
        sol = intlin.solve_in_rowspace(stack, delta(v))
        assert sol is not None
        uh = [0, 0, 0]
        for cz, row in zip(sol[len(lam_k):], lam_h):
            if cz:
                uh = [a - cz * b for a, b in zip(uh, row)]
        w = compose(level1_preimage(h, v), elt(b=uh[0], e=uh[1], c=uh[2]))
        assert contains(h, w) and contains(k, w)
        gens.append(w)
    return subgroup(gens)


# --- isolator ---

def _order_mod(x: Sequence[int], rows: Sequence[Sequence[int]], bound: int) -> int:
    for k in intlin.divisors(bound):
        if intlin.in_rowspan(rows, tuple(k * t for t in x)):
            return k
    raise AssertionError("order must divide the lattice index")


def isolator(h: Subgroup) -> Subgroup:
    """Canonical form of the set of elements with a positive power in h.

    For this group the set is a subgroup.  The computation visits every
    class of the level-1 lattice modulo its saturation, so past
    ``ENUMERATION_CAP`` such classes it raises ``CapacityError``.
    """
    gens = list(h.generators())
    l2 = h.level2_rows
    if h.c0:
        gens.append(elt(c=1))
        for w in intlin.saturate(l2):
            gens.append(elt(b=w[0], e=w[1]))
    else:
        sat2 = intlin.saturate(l2)
        if sat2:
            idx = intlin.lattice_index(sat2, l2)
            phis = []
            for w in sat2:
                kw = _order_mod(w, l2, idx)
                coeffs = intlin.solve_in_rowspace(l2, tuple(kw * t for t in w))
                s = IDENTITY
                for cz, g2 in zip(coeffs, h.gens2):
                    s = compose(s, power(g2, cz))
                phis.append(Fraction(s.c, kw))
            den = 1
            for ph in phis:
                den = den * ph.denominator // math.gcd(den, ph.denominator)
            mat = [tuple(int(ph * den) for ph in phis) + (den,)]
            kern = intlin.kernel_right(mat, len(phis) + 1)
            for kr in kern:
                x = kr[: len(phis)]
                if not any(x):
                    continue
                be = _combo(x, sat2)
                cval = sum(xi * ph for xi, ph in zip(x, phis))
                assert cval.denominator == 1
                gens.append(elt(b=be[0], e=be[1], c=int(cval)))
    l1 = h.level1_rows
    if l1:
        sat1 = intlin.saturate(l1)
        t_rows = [intlin.solve_in_rowspace(sat1, r) for r in l1]
        thnf = intlin.hnf(t_rows)
        # square with diagonal pivots: its pivot box is a fundamental domain
        pivots = [r[_first_nz(r)] for r in thnf]
        index1 = math.prod(pivots)
        if index1 > ENUMERATION_CAP:
            raise CapacityError(
                f"the isolator visits {index1} level-1 classes modulo the "
                f"saturation, more than {ENUMERATION_CAP}")
        if index1 > 1:
            satbe = intlin.saturate(l2)
            idx2 = intlin.lattice_index(satbe, l2) if l2 else 1
            bound = (idx2 or 1) * max(h.c0, 1)
            lam_h = h.gamma1_rows
            for x in iproduct(*[range(p) for p in pivots]):
                if not any(x):
                    continue
                v = _combo(x, sat1)
                k0 = _order_mod(x, thnf, index1)
                w = _root_witness(h, v, k0, bound, lam_h)
                if w is not None:
                    gens.append(w)
    return subgroup(gens)


def _root_witness(h: Subgroup, v, k0: int, bound: int, lam_h) -> Elt | None:
    """Element with level-1 part v and a power in h, if one exists."""
    u = elt(a=v[0], d=v[1], f=v[2])
    for d in intlin.divisors(bound):
        j = k0 * d
        tj = level1_preimage(h, tuple(j * t for t in v))

        def resid(s3) -> tuple[int, int, int]:
            g = compose(u, elt(b=s3[0], e=s3[1], c=s3[2]))
            r = compose(inverse(tj), power(g, j))
            return (r.b, r.e, r.c)

        r0 = resid((0, 0, 0))
        cols = []
        for i in range(3):
            ei = tuple(1 if t == i else 0 for t in range(3))
            cols.append(tuple(a - b for a, b in zip(resid(ei), r0)))
        chk = resid((1, 1, 1))
        assert chk == tuple(a + sum(c[t] for c in cols)
                            for t, a in enumerate(r0))
        sys_rows = [
            tuple(cols[i][t] for i in range(3)) + tuple(row[t] for row in lam_h)
            for t in range(3)
        ]
        got = intlin.solve_linear(sys_rows, tuple(-a for a in r0))
        if got is None:
            continue
        s3 = got[0][:3]
        w = compose(u, elt(b=s3[0], e=s3[1], c=s3[2]))
        assert contains(h, power(w, j))
        return w
    return None
