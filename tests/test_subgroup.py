"""Subgroup canonical forms checked against brute-force enumeration."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from ut4class import cases, intlin
from ut4class.core import (
    IDENTITY,
    Elt,
    commutator,
    compose,
    conjugate,
    elt,
    inverse,
    power,
)
from ut4class.subgroup import (
    CapacityError,
    _combo,
    _walk,
    conjugate_subgroup,
    contains,
    decompose,
    derived_subgroup,
    index_in,
    intersect,
    isolator,
    level1_preimage,
    subgroup,
    transversal,
)


def ball(gens, radius):
    """All products of at most `radius` generators or inverses."""
    gens = list(gens) + [inverse(g) for g in gens]
    seen = {IDENTITY}
    frontier = {IDENTITY}
    for _ in range(radius):
        nxt = set()
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.add(y)
        frontier = nxt
    return seen


def coord_box(r):
    rng = range(-r, r + 1)
    for t in iproduct(rng, rng, rng, rng, rng, rng):
        yield Elt(*t)


def sample_gen_lists():
    """Small curated + seeded-random generator lists."""
    out = [
        [],
        [elt(c=4)],
        [elt(a=1), elt(d=1), elt(f=1)],
        [elt(a=2), elt(d=1, b=1), elt(f=3)],
        [elt(b=2, c=1), elt(e=3)],
        [elt(a=1), elt(f=1)],
        [elt(a=1, f=1), elt(d=2)],
        [elt(a=2, d=-1, b=1), elt(f=2, e=1, c=-1)],
    ]
    rng = random.Random(20240817)
    for _ in range(7):
        k = rng.randint(1, 3)
        gens = [
            Elt(*[rng.randint(-2, 2) for _ in range(6)]) for _ in range(k)
        ]
        out.append(gens)
    return out


def exact_member(h, g):
    """Membership oracle independent of `contains`: adjoining a member
    must not change the canonical form."""
    return subgroup(list(h.generators()) + [g]) == h


def test_canonical_form_is_generator_invariant():
    rng = random.Random(11)
    for gens in sample_gen_lists():
        h = subgroup(gens)
        # canonical data regenerates itself
        assert subgroup(h.generators()) == h
        if not gens:
            continue
        for _ in range(4):
            mixed = list(gens)
            rng.shuffle(mixed)
            i = rng.randrange(len(mixed))
            mixed[i] = inverse(mixed[i])
            j = rng.randrange(len(mixed))
            mixed.append(compose(mixed[j], power(mixed[i], rng.randint(-2, 2))))
            assert subgroup(mixed) == h


def test_canonical_rows_are_reduced():
    for gens in sample_gen_lists():
        h = subgroup(gens)
        assert h.level1_rows == intlin.hnf(h.level1_rows)
        assert h.level2_rows == intlin.hnf(h.level2_rows)
        assert h.c0 >= 0
        l2 = h.level2_rows
        for t in h.gens1:
            res, _ = intlin.row_reduce(l2, (t.b, t.e))
            assert (t.b, t.e) == res
            if h.c0:
                assert 0 <= t.c < h.c0
        for s in h.gens2:
            if h.c0:
                assert 0 <= s.c < h.c0


def test_contains_matches_ball_and_exact_oracle():
    rng = random.Random(23)
    for gens in sample_gen_lists():
        h = subgroup(gens)
        for x in ball(gens, 3):
            assert contains(h, x)
        for _ in range(25):
            g = Elt(*[rng.randint(-4, 4) for _ in range(6)])
            assert contains(h, g) == exact_member(h, g)


def test_contains_closure_properties():
    rng = random.Random(29)
    for gens in sample_gen_lists():
        h = subgroup(gens)
        members = [g for g in ball(gens, 2) if g != IDENTITY][:10]
        for x in members:
            assert contains(h, inverse(x))
            y = members[rng.randrange(len(members))]
            assert contains(h, compose(x, y))


def test_decompose_rebuilds_the_element():
    rng = random.Random(47)
    for gens in sample_gen_lists():
        h = subgroup(gens)
        for _ in range(15):
            g = Elt(*[rng.randint(-3, 3) for _ in range(6)])
            quots, rep = decompose(h, g)
            assert len(quots) == len(h.generators())
            x = IDENTITY
            for q, t in zip(quots, h.generators()):
                x = compose(x, power(t, q))
            assert compose(x, rep) == g
            assert (rep == IDENTITY) == exact_member(h, g)


_big = st.integers(-10**6, 10**6)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.builds(Elt, *[_big] * 6), min_size=1, max_size=4),
       st.builds(Elt, st.just(0), st.just(0), st.just(0), _big, _big, _big))
def test_decompose_level2_path_matches_the_full_walk(gens, g):
    # an element with a = d = f = 0 walks only gens2; the full walk along
    # gens1 as well gives the same quotients and representative, whether
    # or not the element lies in h
    h = subgroup(gens)
    members = [compose(power(s, 3), power(t, -2))
               for s in h.gens2 for t in h.gens2]
    for x in [g] + members:
        quots, rep = _walk(h.gens1 + h.gens2, x)
        if h.c0:
            q = rep.c // h.c0
            quots.append(q)
            rep = rep._replace(c=rep.c - q * h.c0)
        assert decompose(h, x) == (quots, rep)
    assert all(decompose(h, x)[1] == IDENTITY for x in members)


def coset_rep(h, g):
    return decompose(h, g)[1]


def test_coset_rep_is_constant_on_cosets():
    rng = random.Random(31)
    for gens in sample_gen_lists():
        h = subgroup(gens)
        hs = list(ball(gens, 2))
        for _ in range(15):
            g = Elt(*[rng.randint(-3, 3) for _ in range(6)])
            r = coset_rep(h, g)
            # r represents the same right coset
            assert contains(h, compose(g, inverse(r)))
            x = hs[rng.randrange(len(hs))]
            assert coset_rep(h, compose(x, g)) == r
        assert coset_rep(h, IDENTITY) == IDENTITY


def test_level1_preimage_roundtrip():
    rng = random.Random(37)
    for gens in sample_gen_lists():
        h = subgroup(gens)
        rows = h.level1_rows
        if not rows:
            continue
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in rows]
            v = [0, 0, 0]
            for c, r in zip(coeffs, rows):
                v = [a + c * b for a, b in zip(v, r)]
            x = level1_preimage(h, v)
            assert (x.a, x.d, x.f) == tuple(v)
            assert contains(h, x)
    h = subgroup([elt(a=2)])
    with pytest.raises(ValueError):
        level1_preimage(h, (1, 0, 0))


def test_conjugate_subgroup_transports_membership():
    rng = random.Random(41)
    for gens in sample_gen_lists()[:10]:
        h = subgroup(gens)
        g = Elt(*[rng.randint(-2, 2) for _ in range(6)])
        hg = conjugate_subgroup(h, g)
        for x in list(ball(gens, 2))[:40]:
            assert contains(hg, conjugate(x, g))
        assert conjugate_subgroup(hg, inverse(g)) == h


def test_index_and_transversal():
    g_full = subgroup([elt(a=1), elt(d=1), elt(f=1)])
    # commutator closure drags in x13^2, x24 and centre 2Z: index 2*4
    h = subgroup([elt(a=2), elt(d=1), elt(f=1)])
    assert index_in(h, g_full) == 8
    h_low = subgroup([elt(a=2), elt(d=1), elt(f=1), elt(b=1), elt(e=1), elt(c=1)])
    assert index_in(h_low, g_full) == 2
    h2 = subgroup([elt(a=2), elt(d=3), elt(f=1)])
    idx = index_in(h2, g_full)
    reps = transversal(h2, g_full)
    assert len(reps) == idx
    canon = {coset_rep(h2, r) for r in reps}
    assert len(canon) == idx
    rng = random.Random(43)
    for _ in range(30):
        g = Elt(*[rng.randint(-3, 3) for _ in range(6)])
        assert coset_rep(h2, g) in canon
    # infinite index and non-containment
    assert index_in(subgroup([elt(a=1)]), g_full) == math.inf
    with pytest.raises(ValueError):
        index_in(subgroup([elt(a=1, b=1)]), subgroup([elt(a=1)]))


def test_transversal_refuses_beyond_the_cap_as_capacity():
    g_full = subgroup([elt(a=1), elt(d=1), elt(f=1)])
    h = subgroup([elt(a=2), elt(d=3), elt(f=1)])
    with pytest.raises(CapacityError, match="index too large"):
        transversal(h, g_full, max_size=index_in(h, g_full) - 1)


def test_derived_subgroup_memo_keeps_equality_and_hash():
    for gens in sample_gen_lists():
        h = subgroup(gens)
        twin = subgroup(gens)
        before = hash(h)
        d = derived_subgroup(h)
        assert derived_subgroup(h) is d
        # the memo takes no part in equality, hashing or repr
        assert hash(h) == before == hash(twin)
        assert h == twin and repr(h) == repr(twin)
        # a fresh value of the same subgroup computes it anew, equally
        fresh = dataclasses.replace(h)
        assert fresh._derived is None
        assert derived_subgroup(fresh) == d
        assert all(contains(d, commutator(x, y))
                   for x in h.generators() for y in h.generators())


def test_transversal_within_gamma1():
    k = subgroup([elt(b=1), elt(e=1)])
    h = subgroup([elt(b=2, e=1), elt(e=3)])
    idx = index_in(h, k)
    assert idx == 6
    reps = transversal(h, k)
    assert len({coset_rep(h, r) for r in reps}) == 6


def test_preimage_vs_bruteforce():
    rng = random.Random(47)
    for _ in range(40):
        p = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(p)]
        lam = [
            tuple(rng.randint(-2, 2) for _ in range(m))
            for _ in range(rng.randint(0, 2))
        ]
        basis = intlin.preimage(rows, lam)
        assert basis == intlin.hnf(basis)
        lam_h = intlin.hnf(lam)

        def member(vec):
            res, _ = intlin.row_reduce(lam_h, vec)
            return not any(res)

        for x in iproduct(range(-3, 4), repeat=p):
            image = tuple(sum(xi * r[t] for xi, r in zip(x, rows))
                          for t in range(m))
            assert intlin.in_rowspan(basis, x) == member(image)


def oracle_shaped_pairs():
    """Generators of H^g, and H, as the oracle intersects them: every
    box-1 tuple of each rank pair, two conjugators g with entries in
    [-1, 1] per tuple."""
    rng = random.Random(61)
    for ranks in cases.CASES:
        for params in cases.enumerate_params(ranks, (-1, 1)):
            h = subgroup(cases.defining_generators(ranks, params))
            for _ in range(2):
                g = Elt(*[rng.randint(-1, 1) for _ in range(6)])
                yield conjugate_subgroup(h, g).generators(), h


def test_intersect_soundness_and_ball_completeness():
    samples = sample_gen_lists()
    rng = random.Random(53)
    pairs = []
    for i in range(len(samples)):
        for _ in range(2):
            pairs.append((samples[i], subgroup(
                samples[rng.randrange(len(samples))])))
    checks = [(gh, k, 3) for gh, k in pairs[:22]]
    checks += [(gh, k, 2) for gh, k in oracle_shaped_pairs()]
    for gh, k, radius in checks:
        h = subgroup(gh)
        inter = intersect(h, k)
        for t in inter.generators():
            assert contains(h, t) and contains(k, t)
        for x in ball(gh, radius):
            if contains(k, x):
                assert contains(inter, x)
    for gens in samples[:8]:
        h = subgroup(gens)
        assert intersect(h, h) == h


def test_intersect_with_overgroup_is_identity_map():
    rng = random.Random(59)
    for gens in sample_gen_lists():
        if not gens:
            continue
        h = subgroup(gens)
        extra = [Elt(*[rng.randint(-2, 2) for _ in range(6)]) for _ in range(2)]
        k = subgroup(list(gens) + extra)
        assert intersect(h, k) == h


def test_intersect_symmetry():
    samples = sample_gen_lists()
    for i in range(0, len(samples) - 1, 2):
        h, k = subgroup(samples[i]), subgroup(samples[i + 1])
        assert intersect(h, k) == intersect(k, h)


def _order_mod(x, rows, bound):
    for k in intlin.divisors(bound):
        if intlin.in_rowspan(rows, tuple(k * t for t in x)):
            return k
    raise AssertionError("order must divide the lattice index")


def _root_witness(h, v, k0, bound, lam_h):
    """Element with level-1 part v and a power in h, if one exists: for
    each divisor d of bound, one linear solve for the (b, e, c) that make
    the (k0*d)-th power land in h."""
    u = elt(a=v[0], d=v[1], f=v[2])
    for d in intlin.divisors(bound):
        j = k0 * d
        tj = level1_preimage(h, tuple(j * t for t in v))

        def resid(s3):
            g = compose(u, elt(b=s3[0], e=s3[1], c=s3[2]))
            r = compose(inverse(tj), power(g, j))
            return (r.b, r.e, r.c)

        r0 = resid((0, 0, 0))
        cols = []
        for i in range(3):
            ei = tuple(1 if t == i else 0 for t in range(3))
            cols.append(tuple(a - b for a, b in zip(resid(ei), r0)))
        # the residue is affine in s3
        assert resid((1, 1, 1)) == tuple(a + sum(c[t] for c in cols)
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


def reference_isolator(h):
    """The isolator by enumeration, sharing nothing with `isolator` but
    the lattice routines: the level-2 roots from the corner values of
    their powers, then a root witness for every class of the level-1
    lattice modulo its saturation."""
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
            den = math.lcm(*(ph.denominator for ph in phis))
            mat = [tuple(int(ph * den) for ph in phis) + (den,)]
            for kr in intlin.kernel_right(mat, len(phis) + 1):
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
        pivots = [r[next(j for j, t in enumerate(r) if t)] for r in thnf]
        index1 = math.prod(pivots)
        if index1 > 1:
            idx2 = intlin.lattice_index(intlin.saturate(l2), l2) if l2 else 1
            bound = (idx2 or 1) * max(h.c0, 1)
            for x in iproduct(*[range(p) for p in pivots]):
                if not any(x):
                    continue
                k0 = _order_mod(x, thnf, index1)
                w = _root_witness(h, _combo(x, sat1), k0, bound, h.gamma1_rows)
                if w is not None:
                    gens.append(w)
    return subgroup(gens)


def isolator_class(h):
    """(meets the centre trivially, level-1 lattice unsaturated, level-2
    lattice unsaturated): the three splits of the isolator's cuts."""
    e1 = intlin.lattice_index(intlin.saturate(h.level1_rows), h.level1_rows)
    e2 = intlin.lattice_index(intlin.saturate(h.level2_rows), h.level2_rows)
    return (h.c0 == 0, e1 > 1, e2 > 1)


def test_isolator_matches_the_reference_enumeration():
    # 1-4 random generators with entries in [-6, 6], about 55% of them 0
    rng = random.Random(16)
    seen = set()
    for _ in range(400):
        gens = [Elt(*[0 if rng.random() < 0.55 else rng.randint(-6, 6)
                      for _ in range(6)])
                for _ in range(rng.randint(1, 4))]
        h = subgroup(gens)
        assert isolator(h) == reference_isolator(h), gens
        seen.add(isolator_class(h))
    assert seen == set(iproduct((False, True), repeat=3))


def test_isolator_contains_and_roots():
    for gens in sample_gen_lists():
        h = subgroup(gens)
        r = isolator(h)
        for t in h.generators():
            assert contains(r, t)
        for t in r.generators():
            assert any(contains(h, power(t, k)) for k in range(1, 64))
        assert isolator(r) == r
        idx = index_in(h, r)
        assert idx != math.inf


def test_isolator_box_completeness():
    cases = [
        [elt(a=2), elt(d=2), elt(f=2), elt(c=1)],
        [elt(a=2, b=1), elt(c=3)],
        [elt(b=2, e=2), elt(c=2)],
        [elt(a=1, d=1)],
        [elt(b=4, c=2)],
    ]
    for gens in cases:
        h = subgroup(gens)
        r = isolator(h)
        for g in coord_box(1):
            has_root = any(
                contains(h, power(g, k)) for k in range(1, 25)
            )
            if has_root:
                assert contains(r, g)
            else:
                assert not contains(r, g) or any(
                    contains(h, power(g, k)) for k in range(1, 200)
                )


def test_isolator_fractional_corner_graph():
    # rank-2 middle layer, trivial centre part: the radical keeps the
    # unique compatible corner value on each saturated row
    h = subgroup([elt(b=2, c=1)])
    r = isolator(h)
    assert r.c0 == 0
    assert not contains(r, elt(b=1))
    assert contains(r, elt(b=2, c=1))
    h2 = subgroup([elt(b=2, c=2)])
    r2 = isolator(h2)
    assert contains(r2, elt(b=1, c=1))


def test_rank_signature_and_summary():
    h = subgroup([elt(a=2), elt(d=1), elt(b=3), elt(c=5)])
    sig = h.rank_signature()
    assert sig[0] == 2 and sig[2] == 1
    assert h.hirsch_length() == sum(sig)
    s = h.summary()
    assert s["center"] == h.c0
    assert s["rank_signature"] == list(sig)
