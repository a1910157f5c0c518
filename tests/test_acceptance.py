"""Acceptance gate: ten exactness criteria for the classification toolkit.

One test per criterion, in order.  Every check is exact integer or
exact symbolic arithmetic; each test prints a single pass line with its
measured runtime and asserts the runtime budget.
"""

import math
import random
import time
from itertools import product

from ut4class import cases, classify, oracle
from ut4class.characters import (
    ONE,
    character,
    conjugate_character,
    root_of_unity,
)
from ut4class.core import (
    IDENTITY,
    Elt,
    commutator,
    compose,
    elt,
    from_matrix,
    inverse,
    mat_mul,
    power,
    to_matrix,
)
from ut4class.oracle import Ball
from ut4class.subgroup import conjugate_subgroup, contains, subgroup

# certified-irreducible pairs accumulated by criteria 6 and 8 and
# consumed by the totality check of criterion 10
_CERTIFIED: list = []

_TORSION = [root_of_unity(0, 1), root_of_unity(1, 2), root_of_unity(1, 3),
            root_of_unity(1, 4), root_of_unity(1, 6)]


def _first_sample(ranks, ss, p):
    for chi in cases.character_samples(ranks, ss, p):
        return chi
    return None


def _gather_pairs(ranks, need_cert, need_vio, box=(-2, 2)):
    """Certified-irreducible pairs and single-violation witness counts."""
    cert, vio = [], 0
    for p in cases.enumerate_params(ranks, box):
        if len(cert) >= need_cert and vio >= need_vio:
            break
        try:
            ss = cases.subset_of(ranks, p)
        except cases.NoSubsetError:
            continue
        sub = cases.build_subgroup(ranks, p)
        chi = _first_sample(ranks, ss, p)
        if chi is None:
            continue
        if len(cert) < need_cert and classify.is_irreducible(sub, chi).irreducible:
            if not oracle.s_chi_outside(sub, chi, 4, limit=1):
                cert.append((ranks, sub, chi))
        if vio < need_vio:
            # replace the central value by a small torsion value; the
            # first replacement that still defines a character but
            # breaks irreducibility must produce a witness nearby
            for lam in _TORSION:
                chi2 = character(sub, chi.vals1, chi.vals2, lam)
                if not chi2.is_valid():
                    continue
                if classify.is_irreducible(sub, chi2).irreducible:
                    continue
                assert oracle.s_chi_outside(sub, chi2, 3, limit=1), (ranks, p)
                vio += 1
                break
    return cert, vio


def test_criterion_01_group_law():
    t0 = time.time()
    rng = random.Random(20260822)

    def rand():
        return Elt(*[rng.randint(-5, 5) for _ in range(6)])

    for _ in range(10000):
        x, y, z = rand(), rand(), rand()
        assert compose(compose(x, y), z) == compose(x, compose(y, z))
        assert compose(x, inverse(x)) == IDENTITY
        assert compose(inverse(x), x) == IDENTITY
        assert mat_mul(to_matrix(x), to_matrix(y)) == to_matrix(compose(x, y))
        assert from_matrix(to_matrix(x)) == x
    el = time.time() - t0
    assert el < 5.0
    print(f"criterion 1: PASS group law on 10000 random triples ({el:.1f}s)")


def test_criterion_02_power_formula():
    t0 = time.time()
    n = 0
    for coords in product(range(-3, 4), repeat=6):
        x = Elt(*coords)
        ad = x.a * x.d
        for r in range(-4, 5):
            assert power(x, r).b == r * x.b + r * (r - 1) // 2 * ad, (x, r)
            n += 1
    el = time.time() - t0
    assert el < 30.0
    print(f"criterion 2: PASS (1,3)-coordinate of {n} exact powers ({el:.1f}s)")


def test_criterion_03_commutation_two_generators():
    t0 = time.time()
    n = 0
    rng = range(-3, 4)
    for a, b, e in product(rng, rng, rng):
        if a == 0:
            continue
        h1 = elt(a=a, b=b, e=e)
        for f1, b1, e1 in product(rng, rng, rng):
            if f1 == 0:
                continue
            h2 = elt(f=f1, b=b1, e=e1)
            assert (commutator(h1, h2) == IDENTITY) == (a * e1 + f1 * b == 0)
            n += 1
    el = time.time() - t0
    assert el < 10.0
    print(f"criterion 3: PASS commutation criterion on {n} pairs ({el:.1f}s)")


def test_criterion_04_action_formula_sweeps():
    # full parameter boxes for the four small cases; evenly strided
    # sweeps inside the stated boxes for the two largest cases, which
    # hold millions of tuples (the full-box runs take hours and the
    # budget minutes; the stride covers every parameter region)
    t0 = time.time()
    plan = {
        (1, 1): ((-3, 3), None),
        (2, 0): ((-3, 3), None),
        (2, 1): ((-3, 3), None),
        (1, 2): ((-3, 3), None),
        (2, 2): ((-3, 3), 15000),
        (3, 2): ((-2, 2), 10000),
    }
    total = 0
    alt_notes = {}
    for ranks in cases.RANK_PAIRS:
        box, limit = plan[ranks]
        rep = oracle.verify_case(ranks, box, limit=limit)
        assert rep["discrepancies"] == [], (ranks, rep["discrepancies"][:2])
        total += rep["params_checked"]
        alt_notes[ranks] = [a.get("note", "") for a in
                            rep["alternate_readings"]]
    # the displayed forms known to differ from first principles surface
    # as alternate readings, never as discrepancies
    assert any("central exponent" in s for s in alt_notes[(1, 1)])
    assert alt_notes[(2, 2)]
    el = time.time() - t0
    assert el < 600.0
    print(f"criterion 4: PASS zero discrepancies over {total} tuples "
          f"({el:.1f}s)")


def test_criterion_05_isolation_matches_gcd_condition():
    t0 = time.time()
    tuples = []
    for p in product(range(-4, 5), repeat=5):
        a, d, f, b, e = p
        if (a, f) == (0, 0):
            continue
        n = math.gcd(abs(a), abs(f))
        a1, f1 = a // n, f // n
        in_s = math.gcd(abs(f1 * b - a1 * e), abs(a), abs(d), abs(f)) == 1
        iso = classify.is_isolated(cases.build_subgroup((1, 1), p))
        assert iso == in_s, p
        tuples.append((p, iso))
    # root-ball cross-check: a stratified deterministic sample, with
    # non-isolated tuples over-represented since they are the rare side
    noniso = [t for t in tuples if not t[1]]
    sample = tuples[::1459][:40] + noniso[::max(1, len(noniso) // 20)][:20]
    for p, iso in sample:
        sub = cases.build_subgroup((1, 1), p)
        witness = None
        for g in Ball(2):
            if contains(sub, g):
                continue
            if any(contains(sub, power(g, k)) for k in range(2, 7)):
                witness = g
                break
        assert (witness is None) == iso, (p, witness)
    el = time.time() - t0
    assert el < 300.0
    print(f"criterion 5: PASS isolation gcd law on {len(tuples)} tuples, "
          f"root-ball cross-check on {len(sample)} ({el:.1f}s)")


def test_criterion_06_ball_agreement_certified_and_violating():
    t0 = time.time()
    for ranks in cases.RANK_PAIRS:
        cert, vio = _gather_pairs(ranks, 50, 50)
        assert len(cert) >= 50, (ranks, len(cert))
        assert vio >= 50, (ranks, vio)
        _CERTIFIED.extend(cert)
        # literal ball check on a subsample: the full radius-4 witness
        # list stays inside the subgroup
        for ranks_, sub, chi in cert[::10]:
            for w in oracle.s_chi_ball(sub, chi, 4):
                assert contains(sub, w.g)
    el = time.time() - t0
    assert el < 900.0
    print(f"criterion 6: PASS {len(_CERTIFIED)} certified and 300 violating "
          f"pairs ({el:.1f}s)")


def test_criterion_07_finite_endomorphism_dimension():
    t0 = time.time()
    allp = list(cases.enumerate_params((3, 2), (-2, 2)))
    sample = allp[::419][:280]
    checked = irr_with_failed_order = red_with_all_orders = 0
    for p in sample:
        try:
            ss = cases.subset_of((3, 2), p)
        except cases.NoSubsetError:
            continue
        sub = cases.build_subgroup((3, 2), p)
        chi = _first_sample((3, 2), ss, p)
        if chi is None:
            continue
        res = classify.is_irreducible(sub, chi)
        endo = oracle.endo_dimension_finite(sub, chi)
        assert (endo == 1) == res.irreducible, (p, endo)
        mins = res.certificate["minimality_conditions"]
        central = next(m for m in mins
                       if m["name"] == "central value has finite order")
        if res.irreducible:
            assert central["holds"], p
        allhold = all(m["holds"] for m in mins)
        if res.irreducible and not allhold:
            irr_with_failed_order += 1
        if not res.irreducible and allhold:
            red_with_all_orders += 1
        checked += 1
    # the tabulated per-pair order conditions are neither necessary nor
    # sufficient against the computed truth; both discrepancy families
    # are nonempty, and the double-coset count is the exact criterion
    assert irr_with_failed_order > 0
    assert red_with_all_orders > 0
    # whole-group anchor
    g_sub = subgroup([elt(a=1), elt(d=1), elt(f=1)])
    triv = character(g_sub, (ONE,) * len(g_sub.gens1),
                     (ONE,) * len(g_sub.gens2), ONE)
    assert oracle.endo_dimension_finite(g_sub, triv) == 1
    el = time.time() - t0
    assert el < 300.0
    print(f"criterion 7: PASS endomorphism dimension on {checked} sampled "
          f"pairs, anchor included ({el:.1f}s)")


def test_criterion_08_residue_shift_orbits():
    t0 = time.time()
    moves = certified = 0
    for ranks in [(1, 1), (2, 0), (2, 1)]:
        for idx, p in enumerate(cases.enumerate_params(ranks, (-3, 3))):
            try:
                ss = cases.subset_of(ranks, p)
            except cases.NoSubsetError:
                continue
            base = classify.normal_form(cases.build_subgroup(ranks, p))
            for shift in range(-3, 4):
                g, p2 = base.params.conjugation(shift)
                moved = conjugate_subgroup(base.sub, g)
                nf = classify.normal_form(moved)
                want = classify.normal_form(cases.build_subgroup(ranks, p2))
                assert nf.params == want.params, (ranks, p, shift)
                moves += 1
            if idx % 977 == 0:
                chi = _first_sample(ranks, ss, p)
                if chi is not None:
                    g, _ = base.params.conjugation(2)
                    moved = conjugate_subgroup(chi.sub, g)
                    out = classify.equivalent(
                        chi.sub, chi, moved,
                        conjugate_character(chi, inverse(g)))
                    assert out["status"] == "equivalent", (ranks, p)
                    certified += 1
                    if classify.is_irreducible(chi.sub, chi).irreducible:
                        _CERTIFIED.append((ranks, chi.sub, chi))
    assert certified >= 15
    # the shift pairs the (1,3)-tail with the first-axis entry and the
    # (2,4)-tail with the third-axis entry; the letter-swapped pairing
    # lands in a different parameter class (d = 0 keeps the outer
    # conjugations from sweeping the tails back together)
    g, _ = cases.parse((1, 1), (2, 0, 1, 0, 0)).conjugation(1)
    base = classify.normal_form(cases.build_subgroup((1, 1), (2, 0, 1, 0, 0)))
    moved = classify.normal_form(conjugate_subgroup(base.sub, g))
    swapped = classify.normal_form(
        cases.build_subgroup((1, 1), (2, 0, 1, 0 + 1, 0 - 2)))
    assert moved.params == base.params != swapped.params
    el = time.time() - t0
    assert el < 300.0
    print(f"criterion 8: PASS {moves} residue-shift moves, {certified} "
          f"certified conjugacies ({el:.1f}s)")


def test_criterion_09_rank_signature_census():
    t0 = time.time()
    census = {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
              (2, 0), (2, 1), (2, 2), (3, 2)}
    rng = random.Random(93)
    seen = set()
    for _ in range(1000):
        k = rng.randint(1, 3)
        gens = [Elt(*[rng.randint(-2, 2) for _ in range(6)])
                for _ in range(k)]
        sig = subgroup(gens).rank_signature()
        assert (sig[0], sig[1]) in census, sig
        seen.add((sig[0], sig[1]))
    el = time.time() - t0
    assert el < 120.0
    print(f"criterion 9: PASS 1000 random subgroups, {len(seen)} distinct "
          f"signatures, all in the census ({el:.1f}s)")


def test_criterion_10_stratum_totality():
    t0 = time.time()
    pairs = _CERTIFIED
    if not pairs:
        for ranks in cases.RANK_PAIRS:
            cert, _ = _gather_pairs(ranks, 8, 0)
            pairs.extend(cert)
    for ranks, sub, chi in pairs:
        nf = classify.normal_form(sub)
        classify.stratum(sub, chi)
        chi2 = classify.transport_character(nf, chi)
        rows = nf.params.strata(nf.params.values(chi2))
        assert sum(1 for _, m in rows if m) == 1, (ranks, nf.params)
    # pinned family: the two-axis case with an off-circle central value
    p20 = (1, 0, 0, 2, 1, 0)
    sub = cases.build_subgroup((2, 0), p20)
    chi = _first_sample((2, 0), "S", p20)
    st = classify.stratum(sub, chi)
    assert [f.to_json() for f in st.row.fibers] == [
        {"kind": "E", "moduli": ["lambda^2"]},
        {"kind": "E", "moduli": ["lambda"]},
        {"kind": "Cstar", "constraint": "off_circle"},
    ]
    el = time.time() - t0
    assert el < 60.0
    print(f"criterion 10: PASS unique stratum row for {len(pairs)} pairs, "
          f"pinned family row exact ({el:.1f}s)")
