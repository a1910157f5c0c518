"""Classification pipeline: normal forms, irreducibility, strata, equivalence."""

import random
import time

import pytest

from ut4class import cases, classify, oracle
from ut4class.cases import NoSubsetError
from ut4class.characters import (
    ONE,
    ValueSymbol,
    character,
    conjugate_character,
    evaluate,
    root_of_unity,
    symbol_value,
)
from ut4class.classify import CaseStructureError
from ut4class.core import IDENTITY, Elt, conjugate, elt, inverse
from ut4class.subgroup import (
    conjugate_subgroup,
    contains,
    intersect,
    isolator,
    subgroup,
)


def admissible_params(ranks, box, limit=4000):
    for p in cases.enumerate_params(ranks, box, limit=limit):
        try:
            ss = cases.subset_of(ranks, p)
        except NoSubsetError:
            continue
        yield p, ss


def valid_sample(ranks, ss, p):
    for chi in cases.character_samples(ranks, ss, p):
        if chi.is_valid():
            return chi
    return None


def test_normal_form_known_tuples():
    # canonical tuples round-trip exactly; the first entry has a reducible
    # (b, e) tail, which normalization absorbs into the conjugator
    for ranks, p, want in [
        ((1, 1), (2, 1, 2, 1, 0), (2, 1, 2, 0, 0)),
        ((1, 1), (1, 0, 0, 1, 5), None),
        ((1, 1), (3, 0, 0, 1, 2), None),
        ((1, 1), (0, 0, 3, 2, 1), None),
        ((2, 0), (1, 0, 0, 1, 0, 0), None),
        ((2, 1), (2, 0, 1, 0), None),
        ((1, 2), (0, 1, 0, 0, 0, 1, 1), None),
        ((2, 2), (1, 1, 0, 0, 2, 1, 0, 0, 2, 2), None),
        ((3, 2), (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1), None),
    ]:
        nf = classify.normal_form(cases.build_subgroup(ranks, p))
        assert nf.ranks == ranks
        assert nf.params == (p if want is None else want)
        if want is None:
            assert nf.conjugator == IDENTITY


def test_subset_of_known_tuples():
    assert cases.subset_of((1, 1), (2, 1, 2, 1, 0)) == "S1"
    assert cases.subset_of((1, 1), (1, 0, 0, 1, 5)) == "N1"
    assert cases.subset_of((1, 1), (0, 0, 3, 2, 1)) == "N2"
    sub = cases.build_subgroup((2, 1), (1, 0, 1, 0))
    assert classify.normal_form(sub).params.subset == "S1"
    assert cases.subset_of((2, 1), (2, 0, 1, 0)) == "S2"


def test_normal_form_roundtrip_sweep():
    # canonical parameters are a fixed point of normalization
    for ranks in cases.RANK_PAIRS:
        seen = 0
        for p, _ in admissible_params(ranks, (-2, 2)):
            nf = classify.normal_form(cases.build_subgroup(ranks, p))
            assert nf.ranks == ranks
            cases.subset_of(ranks, nf.params)
            again = classify.normal_form(cases.build_subgroup(ranks, nf.params))
            assert again.params == nf.params, (ranks, p, nf.params)
            assert again.conjugator == IDENTITY
            seen += 1
            if seen >= 60:
                break
        assert seen > 0


def test_normal_form_conjugation_invariance():
    rng = random.Random(7)
    for ranks in cases.RANK_PAIRS:
        done = 0
        for p, _ in admissible_params(ranks, (-2, 2)):
            sub = cases.build_subgroup(ranks, p)
            base = classify.normal_form(sub).params
            for _ in range(3):
                g = elt(*(rng.randint(-4, 4) for _ in range(6)))
                nf = classify.normal_form(conjugate_subgroup(sub, g))
                assert nf.ranks == ranks and nf.params == base, (ranks, p, g)
            done += 1
            if done >= 12:
                break


def test_normal_form_idempotent_on_own_subgroup():
    for ranks in cases.RANK_PAIRS:
        p, _ = next(admissible_params(ranks, (-2, 2)))
        sub = cases.build_subgroup(ranks, p)
        nf = classify.normal_form(sub)
        again = classify.normal_form(nf.sub)
        assert again.params == nf.params
        assert again.conjugator == IDENTITY


def test_normal_form_rejections():
    with pytest.raises(ValueError, match="full centre"):
        classify.normal_form(subgroup([elt(a=1), elt(c=2)]))
    with pytest.raises(ValueError, match="infeasible ranks"):
        classify.normal_form(subgroup([elt(a=1), elt(c=1)]))
    # level-1 rank 2 with a diagonal gap is not a weight case shape
    with pytest.raises(CaseStructureError):
        classify.normal_form(subgroup([elt(a=1, d=1), elt(d=2), elt(c=1)]))


def test_transport_character_matches_conjugation():
    rng = random.Random(19)
    for ranks in cases.RANK_PAIRS:
        for p, ss in admissible_params(ranks, (-2, 2)):
            chi = valid_sample(ranks, ss, p)
            if chi is None:
                continue
            chi_c = classify.transport_character(
                classify.normal_form(chi.sub), chi)
            g = elt(*(rng.randint(-3, 3) for _ in range(6)))
            moved = conjugate_character(chi_c, inverse(g))
            nf = classify.normal_form(moved.sub)
            back = classify.transport_character(nf, moved)
            # the round trip lands on the same canonical subgroup, with the
            # character moved by a net normalizer element
            assert back.sub.gens1 == chi_c.sub.gens1
            out = classify.equivalent(chi_c.sub, chi_c, back.sub, back)
            assert out["status"] == "equivalent"
            break


def test_is_irreducible_accepts_valid_samples():
    # (3,2) is excluded: validity there is decided by the double-coset
    # scan, which legitimately refuses some well-formed samples
    for ranks in cases.RANK_PAIRS:
        if ranks == (3, 2):
            continue
        done = 0
        for p, ss in admissible_params(ranks, (-2, 2)):
            chi = valid_sample(ranks, ss, p)
            if chi is None:
                continue
            res = classify.is_irreducible(chi.sub, chi)
            assert res.ranks == ranks
            assert res.params == classify.normal_form(chi.sub).params
            assert res.irreducible is True, (ranks, p, res.certificate)
            done += 1
            if done >= 5:
                break
        assert done > 0, ranks


def test_is_irreducible_rejects_torsion_central_value():
    # central value a root of unity kills every weight case
    p = (2, 1, 2, 1, 0)
    chi0 = valid_sample((1, 1), "S1", p)
    v2 = dict(cases.case_values((1, 1), p, chi0))
    v2["lambda"] = root_of_unity(1, 5)
    chB = cases.character_from_values((1, 1), p, v2)
    res = classify.is_irreducible(chB.sub, chB)
    assert res.irreducible is False


def test_is_irreducible_reports_no_subset():
    # a lone zero in the second direction pair matches no admissible
    # degeneration pattern
    p = (1, 1, 0, 0, 1, 0, 0, 0, 1, 1)
    sub = cases.build_subgroup((2, 2), p)
    with pytest.raises(NoSubsetError):
        cases.subset_of((2, 2), p)
    chi = valid_sample((2, 2), "S1", (1, 1, 0, 0, 2, 1, 0, 0, 2, 2))
    res = classify.is_irreducible(sub, chi)
    assert res.irreducible is False
    assert res.subset is None
    assert "reason" in res.certificate


def test_scan_32_certificates():
    ran = 0
    for p, ss in admissible_params((3, 2), (-2, 2), limit=40000):
        chi = valid_sample((3, 2), ss, p)
        if chi is None:
            continue
        res = classify.is_irreducible(chi.sub, chi)
        conds = res.certificate["double_coset_scan"]
        assert conds["index"] >= 1
        if res.irreducible:
            # a full scan visits one representative per coset
            assert conds["cosets_checked"] == conds["index"]
            assert conds["agreeing_nontrivial_cosets"] == 0
        else:
            assert conds["agreeing_nontrivial_cosets"] > 0
        assert "minimality_conditions" in res.certificate
        ran += 1
        if ran >= 6:
            break
    assert ran > 0


def assert_mackey_witness(sub, chi, t):
    """t lies outside H, and chi agrees with its conjugate by t on the
    generators of H meet t^-1 H t, computed by the generic intersection."""
    assert not contains(sub, t)
    dom = intersect(sub, conjugate_subgroup(sub, inverse(t)))
    for x in dom.generators():
        assert (evaluate(chi, x) / evaluate(chi, conjugate(x, t))).is_one


def test_scan_32_matches_the_coset_oracle():
    # every valid sample character on about 200 strided box-2 tuples: the
    # scan by level-1 class agrees with full coset enumeration, and each
    # reducible verdict's witness passes an independent re-check
    allp = cases.enumerate_params((3, 2), (-2, 2))
    seen = {True: 0, False: 0}
    for p in allp[::len(allp) // 200][:200]:
        ss = cases.subset_of((3, 2), p)
        for chi in cases.character_samples((3, 2), ss, p):
            if not chi.is_valid():
                continue
            res = classify.is_irreducible(chi.sub, chi)
            dim = oracle.endo_dimension_finite(chi.sub, chi)
            assert res.irreducible == (dim == 1), (p, dim)
            seen[res.irreducible] += 1
            if not res.irreducible:
                nf = classify.normal_form(chi.sub)
                t = Elt(*res.certificate["double_coset_scan"]
                        ["agreement_witness"])
                assert_mackey_witness(
                    nf.sub, classify.transport_character(nf, chi), t)
    assert seen[True] >= 20 and seen[False] >= 20, seen


@pytest.mark.parametrize("params, index, seconds", [
    ((12, 0, 0, 12, 0, 0, 12, 0, 0, 12, 12), 248832, 10),
    ((4, 0, 0, 25, 0, 0, 4, 0, 0, 100, 100), 4000000, 1),
])
def test_scan_32_large_index_trivial_character(params, index, seconds):
    # e = 1 lies outside H, normalizes it and fixes the trivial character;
    # the (B, E) residues of a class are counted, never listed, so index
    # 4,000,000 over 400 level-1 classes takes well under a second
    sub = cases.build_subgroup((3, 2), params)
    triv = character(sub, (ONE,) * 3, (ONE,) * 2, ONE)
    t0 = time.perf_counter()
    res = classify.is_irreducible(sub, triv)
    assert time.perf_counter() - t0 < seconds
    assert res.irreducible is False
    scan = res.certificate["double_coset_scan"]
    assert scan["index"] == scan["cosets_checked"] == index
    assert scan["agreeing_nontrivial_cosets"] == index - 1
    assert scan["agreement_witness"] == [0, 0, 0, 0, 1, 0]
    assert_mackey_witness(sub, triv, elt(e=1))


def test_stratum_unique_row_per_pair():
    # every irreducible sample matches exactly one table row; distinct
    # value placements (on or off the unit circle) land on distinct rows
    rows = set()
    for ranks in cases.RANK_PAIRS:
        done = 0
        for p, ss in admissible_params(ranks, (-2, 2)):
            for chi in cases.character_samples(ranks, ss, p):
                if not chi.is_valid():
                    continue
                try:
                    st = classify.stratum(chi.sub, chi)
                except ValueError:
                    continue  # scan-reducible sample
                assert st.ranks == ranks
                assert 1 <= st.row.row <= st.table_size
                assert st.row.fibers
                rows.add((ranks, st.subset, st.row.row))
            done += 1
            if done >= 10:
                break
    assert len(rows) >= 10, sorted(rows)


def test_stratum_requires_irreducible():
    p = (2, 1, 2, 1, 0)
    chi0 = valid_sample((1, 1), "S1", p)
    v = dict(cases.case_values((1, 1), p, chi0))
    v["lambda"] = root_of_unity(1, 3)
    chB = cases.character_from_values((1, 1), p, v)
    with pytest.raises(ValueError, match="not irreducible"):
        classify.stratum(chB.sub, chB)


def test_conjugation_moves_change_params_and_certify():
    # normal form absorbs the residue-shifting conjugation move, and the
    # equivalence checker certifies the move with an explicit conjugator
    for ranks in [(1, 1), (2, 0), (2, 1)]:
        done = 0
        for p, ss in admissible_params(ranks, (-2, 2)):
            base = classify.normal_form(cases.build_subgroup(ranks, p))
            for shift in (1, 2, -3):
                g, p2 = base.params.conjugation(shift)
                moved = conjugate_subgroup(base.sub, g)
                nf = classify.normal_form(moved)
                want = classify.normal_form(cases.build_subgroup(ranks, p2))
                assert nf.params == want.params, (ranks, p, shift)
            chi = valid_sample(ranks, ss, p)
            if chi is not None:
                g, _ = classify.normal_form(chi.sub).params.conjugation(2)
                moved2 = conjugate_subgroup(chi.sub, g)
                out = classify.equivalent(
                    chi.sub, chi, moved2, conjugate_character(chi, inverse(g)))
                assert out["status"] == "equivalent"
            done += 1
            if done >= 4:
                break
        assert done > 0, ranks


def test_equivalent_positive_random_conjugators():
    rng = random.Random(11)
    for ranks in cases.RANK_PAIRS:
        done = 0
        for p, ss in admissible_params(ranks, (-2, 2)):
            chi = valid_sample(ranks, ss, p)
            if chi is None:
                continue
            g = elt(*(rng.randint(-5, 5) for _ in range(6)))
            sub2 = conjugate_subgroup(chi.sub, g)
            chi2 = conjugate_character(chi, inverse(g))
            out = classify.equivalent(chi.sub, chi, sub2, chi2)
            assert out["status"] == "equivalent", (ranks, p, g, out)
            w = elt(*out["conjugator"])
            assert conjugate_subgroup(chi.sub, w).gens1 == sub2.gens1
            done += 1
            if done >= 4:
                break
        assert done > 0


def test_equivalent_detects_fresh_symbol_twist():
    done = 0
    for ranks in [(1, 1), (2, 1), (2, 2)]:
        for p, ss in admissible_params(ranks, (-2, 2)):
            chi = valid_sample(ranks, ss, p)
            if chi is None:
                continue
            # twist z where the relations leave it free, else the level-1
            # value t; a twist that breaks a relation defines no character
            chB = None
            for name in ("z", "t"):
                v = dict(cases.case_values(ranks, p, chi))
                v[name] = v[name] * symbol_value(
                    ValueSymbol("fresh_q", on_circle=True), 1)
                try:
                    chB = cases.character_from_values(ranks, p, v)
                    break
                except ValueError:
                    continue
            if chB is None:
                continue
            out = classify.equivalent(chi.sub, chi, chB.sub, chB)
            assert out["status"] == "not equivalent (proved)", (ranks, p, out)
            done += 1
            break
    assert done >= 2


def test_equivalent_rank_mismatch_is_proved():
    a = cases.build_subgroup((1, 1), (2, 1, 2, 1, 0))
    b = cases.build_subgroup((2, 0), (1, 0, 0, 1, 0, 0))
    chiA = valid_sample((1, 1), "S1", (2, 1, 2, 1, 0))
    chiB = valid_sample((2, 0), "S", (1, 0, 0, 1, 0, 0))
    out = classify.equivalent(a, chiA, b, chiB)
    assert out["status"] == "not equivalent (proved)"


def test_f_equivalents_shape():
    for ranks in [(1, 1), (2, 1)]:
        for p, ss in admissible_params(ranks, (-2, 2)):
            chi = valid_sample(ranks, ss, p)
            if chi is None:
                continue
            out = classify.f_equivalents(chi.sub, chi, limit=6)
            assert "companions" in out and "flag" in out
            for comp in out["companions"]:
                comp_sub = cases.build_subgroup(ranks, tuple(comp["params"]))
                assert isolator(comp_sub).gens1 == isolator(chi.sub).gens1
            break


def test_is_isolated_matches_isolator():
    for ranks in cases.RANK_PAIRS:
        p, _ = next(admissible_params(ranks, (-2, 2)))
        sub = cases.build_subgroup(ranks, p)
        iso = isolator(sub)
        want = (iso.gens1, iso.gens2, iso.c0) == (sub.gens1, sub.gens2, sub.c0)
        assert classify.is_isolated(sub) == want
