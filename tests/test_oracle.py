"""First-principles oracle: balls, stabilizer sets, endomorphism counts."""

import random

import pytest

from ut4class import cases, classify, oracle
from ut4class.characters import ONE, character, root_of_unity
from ut4class.core import elt
from ut4class.oracle import Ball, SWitness, _slow_witness
from ut4class.subgroup import WHOLE_GROUP, contains, subgroup


def first_valid(ranks, box=(-2, 2)):
    for p in cases.enumerate_params(ranks, box, limit=4000):
        try:
            ss = cases.subset_of(ranks, p)
        except cases.NoSubsetError:
            continue
        for chi in cases.character_samples(ranks, ss, p):
            if chi.is_valid():
                return p, chi
    raise AssertionError(f"no valid pair in box for {ranks}")


def test_ball_enumeration():
    b = Ball(1)
    elems = list(b)
    assert len(elems) == len(b) == 3 ** 6
    assert len(set(elems)) == len(elems)
    assert elt() in b and elt(a=1) in b and elt(a=2) not in b
    with pytest.raises(ValueError):
        Ball(-1)


def test_s_set_whole_group_and_centre():
    G = WHOLE_GROUP
    out = oracle.s_set_ball(G, 1)
    assert sorted(w.g for w in out) == sorted(Ball(1))
    p, chi = first_valid((1, 1))
    central = elt(c=1)
    assert any(w.g == central for w in oracle.s_set_ball(chi.sub, 1))


def test_s_set_contains_listed_normalizer_generators():
    point = cases.parse((1, 1), (1, 0, 1, 0, 0))
    sub = point.sub
    wit = {w.g for w in oracle.s_set_ball(sub, 2)}
    for u in point.normalizer():
        assert u in wit
        assert not contains(sub, u)


def test_fast_path_matches_slow_path():
    rng = random.Random(3)
    for ranks in [(1, 1), (2, 1), (2, 2)]:
        p, chi = first_valid(ranks)
        H = chi.sub
        fast = {w.g for w in oracle.s_chi_ball(H, chi, 1)}
        for g in Ball(1):
            slow = _slow_witness(H, chi, g)
            assert (g in fast) == (slow is not None), (ranks, p, g)
        # spot-check a shell of radius 2 as well
        sample = [elt(*(rng.randint(-2, 2) for _ in range(6)))
                  for _ in range(40)]
        fast2 = {w.g for w in oracle.s_chi_ball(H, chi, 2)}
        for g in sample:
            assert (g in fast2) == (_slow_witness(H, chi, g) is not None)


def test_s_chi_subset_and_monotone():
    for ranks in [(1, 1), (2, 0), (1, 2)]:
        p, chi = first_valid(ranks)
        sset = {w.g for w in oracle.s_set_ball(chi.sub, 1)}
        schi1 = {w.g for w in oracle.s_chi_ball(chi.sub, chi, 1)}
        schi2 = {w.g for w in oracle.s_chi_ball(chi.sub, chi, 2)}
        assert schi1 <= sset
        assert schi1 <= schi2
        assert all(contains(chi.sub, g) or True for g in schi1)
        inside = [g for g in Ball(1) if contains(chi.sub, g)]
        assert set(inside) <= schi1


def test_certified_pair_has_no_outside_witness():
    p = (2, 1, 2, 1, 0)
    ss = cases.subset_of((1, 1), p)
    chi = [c for c in cases.character_samples((1, 1), ss, p)
           if c.is_valid()][0]
    assert oracle.s_chi_outside(chi.sub, chi, 3) == []


def test_torsion_centre_yields_violation_witness():
    p = (2, 1, 2, 1, 0)
    ss = cases.subset_of((1, 1), p)
    chi = [c for c in cases.character_samples((1, 1), ss, p)
           if c.is_valid()][0]
    v = dict(cases.case_values((1, 1), p, chi))
    v["lambda"] = root_of_unity(1, 3)
    chB = cases.character_from_values((1, 1), p, v)
    wit = oracle.s_chi_outside(chB.sub, chB, 2, limit=1)
    assert wit, "expected a stabilizer witness outside the subgroup"
    w = wit[0]
    assert w.kind == "in_S_of_H_chi"
    assert not contains(chB.sub, w.g)
    assert all(r["equal"] for r in w.character_check)
    js = w.to_json()
    assert js["g"] == list(w.g) and js["character_check"]


def test_endo_dimension_whole_group():
    G = WHOLE_GROUP
    triv = character(G, (ONE,) * 3, (ONE,) * 2, ONE)
    assert oracle.endo_dimension_finite(G, triv) == 1


def test_endo_dimension_requires_finite_index():
    p, chi = first_valid((1, 1))
    with pytest.raises(ValueError, match="infinite index"):
        oracle.endo_dimension_finite(chi.sub, chi)


def test_endo_dimension_matches_double_coset_scan():
    seen = {True: 0, False: 0}
    for p in cases.enumerate_params((3, 2), (-2, 2), limit=60000):
        try:
            ss = cases.subset_of((3, 2), p)
        except cases.NoSubsetError:
            continue
        for chi in cases.character_samples((3, 2), ss, p):
            if not chi.is_valid():
                continue
            res = classify.is_irreducible(chi.sub, chi)
            dim = oracle.endo_dimension_finite(chi.sub, chi)
            assert (dim == 1) == res.irreducible, (p, dim)
            seen[res.irreducible] += 1
        if min(seen.values()) >= 2 and sum(seen.values()) >= 10:
            break
    # the box contains both certified and refuted samples
    assert seen[True] >= 2 and seen[False] >= 2, seen


def test_slow_path_partial_centre():
    H = subgroup([elt(a=1), elt(c=2)])
    assert H.c0 == 2
    wit = {w.g for w in oracle.s_set_ball(H, 1)}
    assert elt(a=1) in wit and elt(c=1) in wit


def test_verify_case_small_boxes():
    rep = oracle.verify_case((1, 1), (-2, 2))
    assert rep["params_checked"] > 1000
    assert rep["discrepancies"] == []
    # the corrected central exponent of the first normalizer generator is
    # carried as a reading of the displayed form, not silently dropped
    assert any("central exponent" in a.get("note", "")
               for a in rep["alternate_readings"])
    rep2 = oracle.verify_case((2, 1), (-2, 2))
    assert rep2["discrepancies"] == [] and rep2["alternate_readings"] == []


def test_verify_case_strided_limit():
    rep = oracle.verify_case((2, 2), (-2, 2), limit=50)
    assert rep["params_checked"] == 50
    assert rep["discrepancies"] == []
    assert any(n.get("note") == "strided sweep" for n in rep["notes"])
