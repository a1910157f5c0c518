"""Formal character values and evaluation on subgroups."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ut4class import cases, intlin
from ut4class.characters import (
    ONE,
    Character,
    UnitValue,
    ValueSymbol,
    character,
    conjugate_character,
    evaluate,
    level2_gate,
    power_solutions,
    root_of_unity,
    solve_character,
    symbol_value,
)
from ut4class.core import Elt, IDENTITY, compose, conjugate, elt, inverse, power
from ut4class.subgroup import contains, subgroup

Z = ValueSymbol("z")
W = ValueSymbol("w", on_circle=True)
LAM = ValueSymbol("lam")


def test_unit_value_group_laws():
    a = symbol_value(Z, 2) * root_of_unity(1, 3)
    b = symbol_value(Z, -2) * symbol_value(W)
    ab = a * b
    assert ab.torsion == Fraction(1, 3)
    assert [s.name for s, _ in ab.exps] == ["w"]
    assert (a * b / a) == b
    assert (a ** 0).is_one
    assert a ** -1 * a == ONE
    assert (a ** 3).torsion == 0  # (1/3)*3 wraps


class RefValue:
    """A reference model of the value group: the torsion part as a
    Fraction modulo 1 and the exponents as Fractions, name by name."""

    def __init__(self, torsion, exps=()):
        self.torsion = Fraction(torsion) % 1
        self.exps = {s.name: (s, Fraction(e)) for s, e in exps if e}

    def __mul__(self, other):
        exps = dict(self.exps)
        for name, (s, e) in other.exps.items():
            if name in exps:
                if exps[name][0] != s:
                    raise ValueError(
                        f"conflicting declarations for symbol {name!r}")
                e += exps[name][1]
            exps[name] = (s, e)
        return RefValue(self.torsion + other.torsion, exps.values())

    def __truediv__(self, other):
        return self * other ** -1

    def __pow__(self, r):
        r = Fraction(r)
        return RefValue(self.torsion * r,
                        [(s, e * r) for s, e in self.exps.values()])

    def roots(self, m):
        pr = self ** Fraction(1, m)
        return [pr * RefValue(Fraction(k, m)) for k in range(m)]

    def __str__(self):
        parts = [f"zeta({self.torsion})"] if self.torsion else []
        for name in sorted(self.exps):
            s, e = self.exps[name]
            parts.append(name if e == 1 else f"{name}^{e}")
        return " * ".join(parts) if parts else "1"


def agree(v: UnitValue, ref: RefValue) -> bool:
    """v is the reference value, in lowest terms, with the same readings."""
    exps = [e for _, e in v.powers]
    return (0 <= v.num < v.den and 0 not in exps
            and math.gcd(v.den, v.num, *exps) == 1
            and [s.name for s, _ in v.powers]
            == sorted(s.name for s, _ in v.powers)
            and Fraction(v.num, v.den) == ref.torsion
            and {s.name: (s, Fraction(e, v.den)) for s, e in v.powers}
            == ref.exps
            and v.is_one == (not ref.torsion and not ref.exps)
            and v.value_order() == (None if ref.exps
                                    else ref.torsion.denominator)
            and v.modulus_class() == (
                "off_circle" if any(not s.on_circle
                                    for s, _ in ref.exps.values())
                else "circle_free" if ref.exps else "torsion")
            and str(v) == str(ref))


SYMBOLS = [Z, W, LAM]
_atoms = st.one_of(
    st.builds(lambda p, q: (root_of_unity(p, q), RefValue(Fraction(p, q))),
              st.integers(-30, 30), st.integers(1, 12)),
    st.builds(lambda s, k: (symbol_value(s, k), RefValue(0, [(s, k)])),
              st.sampled_from(SYMBOLS), st.integers(-3, 3)))
_pairs = st.recursive(_atoms, lambda kids: st.one_of(
    st.builds(lambda x, y: (x[0] * y[0], x[1] * y[1]), kids, kids),
    st.builds(lambda x, y: (x[0] / y[0], x[1] / y[1]), kids, kids),
    st.builds(lambda x, k: (x[0] ** k, x[1] ** k), kids, st.integers(-5, 5)),
    st.builds(lambda x, p, q: (x[0] ** Fraction(p, q), x[1] ** Fraction(p, q)),
              kids, st.integers(-3, 3), st.integers(1, 4))), max_leaves=6)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_pairs, _pairs, st.integers(-6, 6), st.integers(1, 5))
def test_unit_value_agrees_with_the_fraction_model(x, y, k, m):
    for v, ref in (x, y, (x[0] * y[0], x[1] * y[1]),
                   (x[0] / y[0], x[1] / y[1]), (x[0] ** k, x[1] ** k),
                   (x[0] ** Fraction(k, m), x[1] ** Fraction(k, m))):
        assert agree(v, ref), (v, str(ref))
    roots = list(x[0].roots(m))
    assert all(agree(v, ref) for v, ref in zip(roots, x[1].roots(m)))
    assert len(roots) == m and all(r ** m == x[0] for r in roots)


@pytest.mark.parametrize("op", ["mul", "div"])
def test_conflicting_symbol_declarations_are_refused(op):
    on = symbol_value(ValueSymbol("u", on_circle=True))
    off = symbol_value(ValueSymbol("u")) * root_of_unity(1, 3)
    with pytest.raises(ValueError,
                       match="conflicting declarations for symbol 'u'"):
        on * off if op == "mul" else off / on


def test_unit_value_roots():
    v = symbol_value(Z, 2) * root_of_unity(1, 2)
    rs = list(v.roots(4))
    assert len(rs) == 4
    assert len(set(rs)) == 4
    for r in rs:
        assert r ** 4 == v


def test_modulus_class_and_order():
    assert ONE.modulus_class() == "torsion"
    assert ONE.value_order() == 1
    assert root_of_unity(3, 7).value_order() == 7
    assert root_of_unity(2, 4) == root_of_unity(1, 2)
    assert symbol_value(W).modulus_class() == "circle_free"
    assert symbol_value(W).value_order() is None
    assert symbol_value(Z).modulus_class() == "off_circle"
    assert (symbol_value(Z) * symbol_value(Z, -1)).modulus_class() == "torsion"
    assert (symbol_value(Z) * symbol_value(W)).modulus_class() == "off_circle"


def test_power_solutions():
    w = root_of_unity(1, 6)
    assert power_solutions(ONE, w) == (0, 6)
    assert power_solutions(w, w) == (5, 6)
    assert power_solutions(root_of_unity(1, 4), w) is None
    lam = symbol_value(LAM)
    assert power_solutions(ONE, lam) == (0, 0)
    assert power_solutions(lam ** 3, lam) == (-3, 0)
    assert power_solutions(lam, lam ** 2) is None  # odd power needed
    # exponents and torsion parts over different denominators
    assert power_solutions(lam ** Fraction(1, 2), lam ** Fraction(1, 4)) == (-2, 0)
    assert power_solutions(lam ** Fraction(1, 3), lam ** Fraction(1, 2)) is None
    assert power_solutions(root_of_unity(1, 3), w) == (4, 6)
    assert power_solutions(ONE, ONE) == "all"
    assert power_solutions(lam, ONE) is None


def test_character_on_abelian_subgroup_is_multiplicative():
    h = subgroup([elt(a=1, f=1), elt(b=1, e=1), elt(c=1)])
    assert h.c0 == 1
    for vals in [
        (symbol_value(Z), symbol_value(W), symbol_value(LAM)),
        # torsion parts and exponents over different denominators
        (root_of_unity(1, 2) * symbol_value(Z) ** Fraction(1, 3),
         root_of_unity(1, 3),
         symbol_value(LAM, -1) ** Fraction(1, 2) * root_of_unity(3, 4)),
    ]:
        chi = character(h, vals1=[vals[0]], vals2=[vals[1]], val_c=vals[2])
        chi.validate()
        rng = random.Random(67)
        gens = h.generators()
        pool = [IDENTITY]
        for _ in range(40):
            g = gens[rng.randrange(len(gens))]
            pool.append(compose(pool[rng.randrange(len(pool))], power(g, rng.randint(-2, 2))))
        for _ in range(40):
            x = pool[rng.randrange(len(pool))]
            y = pool[rng.randrange(len(pool))]
            assert evaluate(chi, compose(x, y)) == evaluate(chi, x) * evaluate(chi, y)


def test_character_must_kill_derived_subgroup():
    g_full = subgroup([elt(a=1), elt(d=1), elt(f=1)])
    ok = character(
        g_full,
        vals1=[symbol_value(Z), symbol_value(W), symbol_value(LAM)],
        vals2=[ONE, ONE],
        val_c=ONE,
    )
    ok.validate()
    bad = character(
        g_full,
        vals1=[symbol_value(Z), symbol_value(W), symbol_value(LAM)],
        vals2=[ONE, ONE],
        val_c=root_of_unity(1, 2),
    )
    assert not bad.is_valid()
    bad2 = character(
        g_full,
        vals1=[ONE, ONE, ONE],
        vals2=[symbol_value(Z), ONE],
        val_c=ONE,
    )
    assert not bad2.is_valid()


def test_solve_character_recovers_valid_characters():
    # the solve makes no separate validity pass: each result must kill the
    # derived subgroup, and a character's own values must give it back
    rng = random.Random(71)
    done = 0
    for ranks in cases.RANK_PAIRS:
        for p in cases.enumerate_params(ranks, (-1, 1))[:30]:
            ss = cases.subset_of(ranks, p)
            for chi in cases.character_samples(ranks, ss, p):
                assert chi.is_valid()
                gens = list(chi.sub.generators())
                gens += [compose(rng.choice(gens), rng.choice(gens))
                         for _ in range(3)]
                rng.shuffle(gens)
                got = solve_character(chi.sub, gens,
                                      [evaluate(chi, g) for g in gens])
                assert got == chi and got.is_valid()
                done += 1
    assert done


def test_character_torsion_compatibility():
    # index-2 middle row forces the value on the doubled generator to be
    # the square root's square: adjoining elt(b=1) with value v requires
    # chi(elt(b=2)) == v^2 automatically; an inconsistent hand-built
    # assignment on a non-canonical generating set cannot arise because
    # values live on canonical generators only.
    h = subgroup([elt(b=2), elt(c=3)])
    chi = character(h, vals2=[symbol_value(Z)], val_c=root_of_unity(1, 5))
    chi.validate()
    assert evaluate(chi, elt(b=4, c=3)) == symbol_value(Z, 2) * root_of_unity(1, 5)


@pytest.mark.parametrize("level2", [
    [], [elt(b=2, e=1)], [elt(b=2, e=1), elt(e=3)], [elt(b=4, e=6), elt(e=10)],
])
def test_level2_gate_matches_the_group_law(level2):
    # (A, F) lies in the gate lattice exactly when chi agrees with its
    # conjugate by elt(a=A, d=D, f=F) on every level-2 generator
    h = subgroup(level2 + [elt(c=1)])
    for lam in (ONE, root_of_unity(1, 2), root_of_unity(1, 3),
                root_of_unity(5, 12), symbol_value(LAM)):
        chi = character(h, vals2=[symbol_value(Z)] * len(h.gens2), val_c=lam)
        gate = level2_gate(h, chi)
        assert gate == intlin.hnf(gate) and len(gate) <= 2
        for A in range(-6, 7):
            for F in range(-6, 7):
                inside = not any(intlin.row_reduce(gate, (A, F))[0])
                for D in (0, 1):
                    g0 = elt(a=A, d=D, f=F)
                    assert inside == all(
                        evaluate(chi, compose(conjugate(s, g0),
                                              inverse(s))).is_one
                        for s in h.gens2), (lam, A, D, F)


def test_evaluate_outside_domain_raises():
    h = subgroup([elt(a=2)])
    chi = character(h, vals1=[symbol_value(Z)])
    with pytest.raises(ValueError):
        evaluate(chi, elt(a=1))
    with pytest.raises(ValueError):
        character(h, vals1=[])


def test_conjugate_character_pointwise():
    h = subgroup([elt(a=1, f=1), elt(b=1, e=1), elt(c=2)])
    chi = character(
        h,
        vals1=[symbol_value(Z)],
        vals2=[symbol_value(W)],
        val_c=symbol_value(LAM),
    )
    chi.validate()
    rng = random.Random(71)
    for _ in range(6):
        g = Elt(*[rng.randint(-2, 2) for _ in range(6)])
        tw = conjugate_character(chi, g)
        dom = tw.sub
        for t in list(dom.generators()):
            assert evaluate(tw, t) == evaluate(chi, conjugate(t, g))
        # twisted domain really is g^-1 H g
        for t in dom.generators():
            assert contains(h, conjugate(t, g))
