"""Formal character values and evaluation on subgroups."""

import cmath
import random
from fractions import Fraction

import pytest

from ut4class import cases
from ut4class.characters import (
    ONE,
    Character,
    UnitValue,
    ValueSymbol,
    character,
    conjugate_character,
    evaluate,
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
    assert power_solutions(ONE, ONE) == "all"
    assert power_solutions(lam, ONE) is None


def test_numeric_consistency():
    rng = random.Random(61)
    assign = {"z": 1.7, "w": cmath.exp(0.9j), "lam": 0.4}
    vals = [
        symbol_value(Z) * root_of_unity(1, 5),
        symbol_value(W, 2) * symbol_value(LAM, -1),
        root_of_unity(3, 8),
    ]
    for _ in range(20):
        a = vals[rng.randrange(len(vals))]
        b = vals[rng.randrange(len(vals))]
        k = rng.randint(-3, 3)
        lhs = (a * b ** k).numeric(assign)
        rhs = a.numeric(assign) * b.numeric(assign) ** k
        assert abs(lhs - rhs) < 1e-9


def test_character_on_abelian_subgroup_is_multiplicative():
    h = subgroup([elt(a=1, f=1), elt(b=1, e=1), elt(c=1)])
    assert h.c0 == 1
    chi = character(
        h,
        vals1=[symbol_value(Z)],
        vals2=[symbol_value(W)],
        val_c=symbol_value(LAM),
    )
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
