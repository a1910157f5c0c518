"""Write the benchmark's request corpus, one JSON file per workload.

    python3 bench/gen.py --seed 1            # remake bench/corpus/*.json
    python3 bench/gen.py --seed 7 --out DIR  # a fresh corpus on another seed

The corpus fixes every request a timed run sends, together with the
outcome each request must have.  Expected outcomes come from
computations outside the deciders under test: `oracle` ball scans and
full coset enumeration, the isolation gcd law for rank (1,1), properties
of conjugation, and the benchmark's own count of admissible (3,2)
tuples.  `cases` is used only to pick admissible tuples and character
values that the request format can express.

Bases are picked by their oracle verdict alone.  Where the decider's
verdict contradicts a proof (an oracle witness, or full coset
enumeration for (3,2)), its verdict requests go into a group marked
"known_fault", which a run sends in full every round and counts as
failed while the fault lasts.  Where the decider says reducible and the
ball holds no witness, nothing is proved either way, and the generator
stops with the pair rather than drop it.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# rank pairs in the order cases.RANK_PAIRS lists them
RANK_PAIRS = ((1, 1), (2, 0), (2, 1), (1, 2), (2, 2), (3, 2))

# decide: admissible bases per rank pair, each sent as PICK of VARIANTS
# random conjugates in a run; (3,2) only at index <= 16
DECIDE_VARIANTS, DECIDE_PICK = 4, 2
DECIDE_IRREDUCIBLE = {(1, 1): 2, (2, 0): 1, (2, 1): 1, (1, 2): 1, (2, 2): 1,
                      (3, 2): 1}
DECIDE_REDUCIBLE = {(1, 1): 1, (2, 0): 1, (2, 1): 1, (1, 2): 1, (2, 2): 1,
                    (3, 2): 1}
DECIDE_32_MAX_INDEX = 16
# (1,1) subgroups that the isolation gcd law calls not isolated
NOT_ISOLATED_11 = ((2, 0, 2, 0, 0), (2, 2, 0, 0, 0), (0, 2, 2, 0, 0))
# the ball radius of the oracle witness search for rank pairs below (3,2);
# the (1,1) S2 pair (0,2,1,0,0) with a central value of order 6 has its
# nearest witness at radius 6
BALL_RADIUS = 6
# conjugates sent every round for the verdict requests of a base that the
# decider gets wrong
FAULT_VARIANTS = 2

# scan32: one irreducible and one reducible pair per rung, plus one
# request beyond the transversal's 200,000-coset limit
SCAN_RUNGS = (4, 8, 16, 32, 64, 128, 256)
SCAN_VARIANTS, SCAN_PICK = 3, 1
BEYOND_CAP_PARAMS = (12, 0, 0, 12, 0, 0, 12, 0, 0, 12, 12)

# sweep: verify over the box of half-width 2, strided to LIMIT tuples
SWEEP_BOX, SWEEP_LIMIT = 2, 100

# one small verify request in decide and scan32, and the smallest scan32
# rung in sweep, so that every workload reports every rate
SMALL_VERIFY = ((2, 1), 1, 20)

# numeric values are emitted only for roots of unity the CLI's default
# lifting bound (--numeric-q 120) recovers exactly
NUMERIC_Q_MAX = 120


def _load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "ut4class")):
        raise SystemExit(f"no ut4class package under {src}")
    sys.path.insert(0, src)
    global cases, classify, oracle, core, subgroup_mod, characters
    from ut4class import cases, characters, classify, core, oracle
    from ut4class import subgroup as subgroup_mod


# ------------------------------------------------------------ value forms


def expressible(v) -> bool:
    """Whether the request format can state the value exactly."""
    if not v.exps:
        return True
    if v.torsion or len(v.exps) != 1:
        return False
    return v.exps[0][1].denominator == 1


def value_forms(v) -> list:
    """Every JSON spelling the benchmark uses for an expressible value."""
    if not v.exps:
        t = Fraction(v.torsion)
        p, q = t.numerator, t.denominator
        forms = [{"root_of_unity": [p, q]}, {"root_of_unity": [p + q, q]},
                 {"root_of_unity": [2 * p, 2 * q]}]
        if q <= NUMERIC_Q_MAX:
            z = cmath.exp(2j * math.pi * p / q)
            forms.append({"numeric": [repr(z.real), repr(z.imag)]})
        return forms
    (sym, ex), = v.exps
    ex = int(ex)
    obj = {"symbol": sym.name, "on_circle": sym.on_circle, "power": ex}
    forms = [obj]
    if ex == 1:
        forms.append({"symbol": sym.name, "on_circle": sym.on_circle})
        if not sym.on_circle:
            forms += [sym.name, {"symbol": sym.name}]
    return forms


def pick_values(rng, vals: list) -> list:
    return [rng.choice(value_forms(v)) for v in vals]


# ------------------------------------------------------------ pairs


def rows(gens) -> list:
    return [[g.a, g.d, g.f, g.b, g.e, g.c] for g in gens]


def random_conjugator(rng):
    while True:
        u = core.Elt(*[rng.randint(-3, 3) for _ in range(6)])
        if any(u[:3]):
            return u


def base_generators(ranks, params, vals):
    """Defining generators plus the centre, with the matching values."""
    gens = cases.defining_generators(ranks, params) + [core.elt(c=1)]
    names = list(cases.COORD_NAMES[ranks]) + ["lambda"]
    return gens, [vals[n] for n in names]


def conjugate_variant(rng, gens, vals, u):
    """The pair moved by u (u g u^-1 on every generator, same values),
    with its generators listed in a random order."""
    moved = [core.conjugate(g, u) for g in gens]
    order = list(range(len(moved)))
    rng.shuffle(order)
    return {"generators": rows([moved[i] for i in order]),
            "values": pick_values(rng, [vals[i] for i in order])}


def gcd_law_isolated(params) -> bool:
    """Criterion 5: a (1,1) subgroup is isolated exactly when
    gcd(f1*b - a1*e, a, d, f) == 1, (a1, f1) the primitive (a, f)."""
    a, d, f, b, e = params
    n = math.gcd(abs(a), abs(f))
    a1, f1 = a // n, f // n
    return math.gcd(abs(f1 * b - a1 * e), abs(a), abs(d), abs(f)) == 1


def oracle_irreducible(ranks, sub, chi):
    """(verdict, witness): full coset enumeration for (3,2), else the
    ball witness scan, whose witness proves reducibility."""
    if ranks == (3, 2):
        return oracle.endo_dimension_finite(sub, chi) == 1, None
    w = oracle.s_chi_outside(sub, chi, BALL_RADIUS, limit=1)
    return not w, (list(w[0].g) if w else None)


def index_32(params) -> int:
    a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = params
    return abs(a * d1 * f2 * b3 * e3)


def count_admissible_32(lo: int, hi: int) -> int:
    """Admissible (3,2) tuples in the box, counted from the rank-(3,2)
    conditions: a, d', f'', b''', e''' nonzero, b''' | a d',
    e''' | d' f'', and every b-residue below |b'''| and e-residue below
    |e'''| in absolute value."""
    nz = [x for x in range(lo, hi + 1) if x]
    total = 0
    for a in nz:
        for d1 in nz:
            for f2 in nz:
                for b3 in nz:
                    if (a * d1) % b3:
                        continue
                    for e3 in nz:
                        if (d1 * f2) % e3:
                            continue
                        nb = sum(1 for x in range(lo, hi + 1) if abs(x) < abs(b3))
                        ne = sum(1 for x in range(lo, hi + 1) if abs(x) < abs(e3))
                        total += nb ** 3 * ne ** 3
    return total


# ------------------------------------------------------------ bases


def candidate_pairs(ranks, params_pool):
    """(params, subset, chi, values) for tuples already in normal form whose
    character values the request format can express: the case's own
    samples, then the same with a torsion central value."""
    torsion = [characters.root_of_unity(k, n)
               for n, k in ((1, 0), (2, 1), (3, 1), (4, 1), (6, 1))]
    for p in params_pool:
        ss = cases.subset_of(ranks, p)
        sub = cases.build_subgroup(ranks, p)
        if classify.normal_form(sub).params != tuple(p):
            continue
        for chi in cases.character_samples(ranks, ss, p):
            tries = [chi] + [characters.character(sub, chi.vals1, chi.vals2,
                                                  lam) for lam in torsion]
            for c in tries:
                if not c.is_valid():
                    continue
                vals = cases.case_values(ranks, p, c)
                if all(expressible(v) for v in vals.values()):
                    yield p, ss, c, vals


def find_bases(ranks, want_irr, want_red, pool):
    """(params, subset, chi, values, verdict, decided) of the first bases
    with each oracle verdict; decided is the decider's verdict, which
    differs from the oracle's only where the oracle proves it wrong."""
    got = {True: [], False: []}
    want = {True: want_irr, False: want_red}
    seen = set()
    for p, ss, chi, vals in candidate_pairs(ranks, pool):
        if all(len(got[k]) >= want[k] for k in got):
            break
        if (p, chi.val_c) in seen:
            continue
        seen.add((p, chi.val_c))
        sub = chi.sub
        ok, witness = oracle_irreducible(ranks, sub, chi)
        if len(got[ok]) >= want[ok]:
            continue
        decided = classify.is_irreducible(sub, chi).irreducible
        if decided != ok and ranks != (3, 2) and witness is None:
            raise SystemExit(
                f"{ranks} params {p} values "
                f"{ {k: str(v) for k, v in vals.items()} }: the decider says "
                f"reducible and no witness lies within radius {BALL_RADIUS}; "
                "raise BALL_RADIUS or try another seed")
        got[ok].append((p, ss, chi, vals, ok, decided))
    for k in got:
        if len(got[k]) < want[k]:
            raise SystemExit(f"too few {'ir' if k else ''}reducible bases "
                             f"for {ranks}")
    return got[True] + got[False]


def fault_group(gid, expect, reqs, decided) -> dict:
    """The verdict requests of a base whose decider verdict the oracle
    proves wrong; a run sends all of them every round, whatever its seed."""
    if expect["ranks"] == [3, 2]:
        proof = ("full coset enumeration gives an endomorphism dimension "
                 + ("above 1" if decided else "of 1"))
    else:
        proof = "an oracle witness outside H fixes the character"
    return {"id": gid + "-fault", "expect": expect,
            "known_fault": {
                "fault": f"the decider says {'ir' if decided else ''}"
                         f"reducible, but {proof}",
                "reply": {"irreducible": decided}},
            "requests": [dict(r, variant=0) for r in reqs]}


def alternate_central(ranks, p, vals):
    """Values with a different central value that still define a
    character, or None."""
    lam = vals["lambda"]
    if lam.exps:
        sym = lam.exps[0][0]
        alt = characters.symbol_value(
            characters.ValueSymbol("mu", sym.on_circle))
    else:
        alt = lam ** -1 if lam.value_order() > 2 else None
    if alt is None:
        return None
    new = dict(vals)
    new["lambda"] = alt
    try:
        chi = cases.character_from_values(ranks, p, new)
    except ValueError:
        return None
    return new if chi.is_valid() else None


# ------------------------------------------------------------ workloads


def make_decide(rng) -> dict:
    groups = []
    for ranks in RANK_PAIRS:
        pool = list(cases.enumerate_params(ranks, (-2, 2)))
        if ranks == (3, 2):
            pool = [p for p in pool if index_32(p) <= DECIDE_32_MAX_INDEX]
        rng.shuffle(pool)
        for base in find_bases(ranks, DECIDE_IRREDUCIBLE[ranks],
                               DECIDE_REDUCIBLE[ranks], pool):
            groups += decide_groups(rng, ranks, *base)
    for p in NOT_ISOLATED_11:
        groups.append(isolator_group(rng, p))
    groups.append(verify_group(*SMALL_VERIFY, DECIDE_VARIANTS))
    return {"workload": "decide", "variants": DECIDE_VARIANTS,
            "pick": DECIDE_PICK, "groups": groups}


def _request(command, payload, variant, expect=None, flags=(), times=1):
    out = {"command": command, "flags": list(flags), "payload": payload,
           "variant": variant}
    if expect:
        out["expect"] = expect
    if times != 1:
        out["times"] = times
    return out


def decide_groups(rng, ranks, p, ss, chi, vals, irr, decided) -> list:
    """The base pair's requests, and where the decider's verdict is proved
    wrong, a known-fault group with its verdict requests."""
    gens, vlist = base_generators(ranks, p, vals)
    alt = alternate_central(ranks, p, vals)
    alt_vlist = base_generators(ranks, p, alt)[1] if alt else None
    us = [random_conjugator(rng) for _ in range(DECIDE_VARIANTS)]
    variants = [conjugate_variant(rng, gens, vlist, u) for u in us]
    expect = {"ranks": list(ranks), "params": list(p), "subset": ss,
              "irreducible": irr}
    if ranks == (1, 1):
        expect["is_isolated"] = gcd_law_isolated(p)
    reqs, verdicts = [], []
    for k, var in enumerate(variants):
        g_only = {"generators": var["generators"]}
        reqs += [
            _request("ranks", g_only, k, times=2),
            _request("classify", g_only, k),
            _request("isolator", g_only, k),
        ]
        verdicts += [_request("classify", var, k),
                     _request("irreducible", var, k)]
        if irr and decided:
            reqs.append(_request("stratum", var, k))
        if ranks != (3, 2):
            # (3,2) companions each need a full coset scan
            reqs.append(_request("f-equivalents", var, k))
        other = variants[(k + 1) % DECIDE_VARIANTS]
        reqs.append(_request("equivalent", {"first": var, "second": other},
                             k, {"status": "equivalent"}))
        if alt_vlist is not None:
            moved = conjugate_variant(rng, gens, alt_vlist, us[k])
            status = {"status": "not equivalent (proved)"}
            reqs.append(_request("equivalent", {"first": var, "second": moved},
                                 k, status))
            reqs.append(_request("equivalent", {"first": moved, "second": var},
                                 k, status))
    gid = (f"{ranks[0]}{ranks[1]}-{ss}-{'irr' if irr else 'red'}"
           f"-{'.'.join(map(str, p))}")
    groups = [{"id": gid, "expect": expect, "requests": reqs}]
    if decided == irr:
        reqs += verdicts
    else:
        groups.append(fault_group(
            gid, expect, [r for r in verdicts if r["variant"] < FAULT_VARIANTS],
            decided))
    if ranks == (3, 2):
        for g in groups:
            g["index"] = index_32(p)
    return groups


def isolator_group(rng, p) -> dict:
    sub = cases.build_subgroup((1, 1), p)
    gens = sub.generators()
    reqs = []
    for k in range(DECIDE_VARIANTS):
        u = random_conjugator(rng)
        g_only = {"generators": rows([core.conjugate(g, u) for g in gens])}
        reqs += [_request("ranks", g_only, k),
                 _request("isolator", g_only, k)]
    return {"id": f"11-iso-{'.'.join(map(str, p))}",
            "expect": {"ranks": [1, 1], "is_isolated": gcd_law_isolated(p)},
            "requests": reqs}


def _factorizations(n):
    """(a, d', f'', b''', e''') > 0 with product n, b''' | a d',
    e''' | d' f''."""
    out = []
    for a in range(1, n + 1):
        for d1 in range(1, n // a + 1):
            for f2 in range(1, n // (a * d1) + 1):
                rest, r = divmod(n, a * d1 * f2)
                if r:
                    continue
                for b3 in range(1, rest + 1):
                    e3, r = divmod(rest, b3)
                    if r or (a * d1) % b3 or (d1 * f2) % e3:
                        continue
                    out.append((a, d1, f2, b3, e3))
    return out


def rung_groups(rng, n, times=1) -> list:
    """An irreducible and a reducible (3,2) pair of index n."""
    facts = _factorizations(n)
    pool = []
    for _ in range(400):
        a, d1, f2, b3, e3 = rng.choice(facts)

        def res(m):
            return rng.randint(-(m - 1), m - 1) if rng.random() < 0.4 else 0
        pool.append((a, res(b3), res(e3), d1, res(b3), res(e3), f2,
                     res(b3), res(e3), b3, e3))
    pool = list(dict.fromkeys(pool))
    groups = []
    for p, ss, chi, vals, irr, decided in find_bases((3, 2), 1, 1, pool):
        gens, vlist = base_generators((3, 2), p, vals)
        reqs = [_request("irreducible",
                         conjugate_variant(rng, gens, vlist,
                                           random_conjugator(rng)),
                         k, times=times)
                for k in range(SCAN_VARIANTS)]
        group = {"id": f"32-{n}-{'irr' if irr else 'red'}"
                       f"-{'.'.join(map(str, p))}",
                 "expect": {"ranks": [3, 2], "params": list(p),
                            "subset": ss, "irreducible": irr},
                 "requests": reqs}
        if decided != irr:
            group = fault_group(group["id"], group["expect"], reqs[:1],
                                decided)
        group["index"] = n
        groups.append(group)
    return groups


def verify_group(ranks, box, limit, variants, times=1) -> dict:
    """verify over the box, strided to limit tuples; the same request in
    every variant slot."""
    expect = {"ranks": list(ranks), "checked": limit}
    if ranks == (1, 1):
        expect["alternate_note"] = "central exponent"
    if ranks == (2, 2):
        expect["alternate_note"] = ""
    if ranks == (3, 2):
        expect["box_count"] = count_admissible_32(-box, box)
    flags = ["--box", str(box), "--limit", str(limit)]
    return {"id": f"verify-{ranks[0]}{ranks[1]}-box{box}",
            "expect": expect,
            "requests": [_request("verify", {"case": list(ranks)}, k,
                                  flags=flags, times=times)
                         for k in range(variants)]}


def make_scan32(rng) -> dict:
    groups = []
    for n in SCAN_RUNGS:
        groups += rung_groups(rng, n, times=2 if n == 4 else 1)
    groups.append(beyond_cap_group(rng))
    # twice, so that a round holds an odd number of requests, 19: the
    # median latency is then the middle sample of one request, not the mean
    # of the extreme samples of two requests of quite different cost
    groups.append(verify_group(*SMALL_VERIFY, SCAN_VARIANTS, times=2))
    return {"workload": "scan32", "variants": SCAN_VARIANTS,
            "pick": SCAN_PICK, "groups": groups}


def beyond_cap_group(rng) -> dict:
    """Index 12**5 = 248,832 with a trivial central value.  elt(e=1) lies
    outside H, normalizes it and fixes the character, so by Mackey's
    criterion the pair is not irreducible."""
    p = BEYOND_CAP_PARAMS
    one = characters.ONE
    vals = {"t": characters.symbol_value(characters.ValueSymbol("t")),
            "r": characters.symbol_value(characters.ValueSymbol("r")),
            "s": characters.symbol_value(characters.ValueSymbol("s")),
            "z": one, "w": one, "lambda": one}
    chi = cases.character_from_values((3, 2), p, vals)
    chi.validate()
    sub = chi.sub
    g = core.elt(e=1)
    if subgroup_mod.contains(sub, g):
        raise SystemExit("elt(e=1) lies in the beyond-cap subgroup")
    moved = characters.conjugate_character(chi, g)
    if (moved.sub.gens1, moved.sub.gens2, moved.sub.c0) != (
            sub.gens1, sub.gens2, sub.c0):
        raise SystemExit("elt(e=1) does not normalize the beyond-cap subgroup")
    if any(not (characters.evaluate(chi, h)
                / characters.evaluate(moved, h)).is_one
           for h in sub.generators()):
        raise SystemExit("elt(e=1) does not fix the beyond-cap character")
    gens, vlist = base_generators((3, 2), p, vals)
    req = _request("irreducible",
                   conjugate_variant(rng, gens, vlist, random_conjugator(rng)),
                   0)
    return {"id": "32-beyond-cap-" + ".".join(map(str, p)),
            "index": index_32(p),
            "expect": {"ranks": [3, 2], "params": list(p), "subset": "S",
                       "irreducible": False},
            "known_fault": {
                "fault": "subgroup.transversal refuses an index above "
                         "200,000, and the CLI reports the capacity limit "
                         "as a failed precondition",
                "exit": 3,
                "stderr": "precondition failed: index too large to "
                          "enumerate"},
            "requests": [req]}


def make_sweep(rng) -> dict:
    groups = [verify_group(ranks, SWEEP_BOX, SWEEP_LIMIT, 1,
                           times=2 if ranks == (2, 1) else 1)
              for ranks in RANK_PAIRS]
    for g in rung_groups(rng, SCAN_RUNGS[0]):
        g["requests"] = g["requests"][:1]
        groups.append(g)
    return {"workload": "sweep", "variants": 1, "pick": 1, "groups": groups}


def write_corpus(corpus: dict, fh) -> None:
    """JSON with one request per line, so that a diff of two corpora shows
    which requests changed."""
    def dumps(x):
        return json.dumps(x, sort_keys=True)

    top = [f" {dumps(k)}: {dumps(v)}" for k, v in sorted(corpus.items())
           if k != "groups"]
    groups = []
    for g in corpus["groups"]:
        head = dumps({k: v for k, v in g.items() if k != "requests"})[1:-1]
        reqs = ",\n".join("   " + dumps(r) for r in g["requests"])
        groups.append(f'  {{{head}, "requests": [\n{reqs}\n  ]}}')
    top.append(' "groups": [\n' + ",\n".join(groups) + "\n ]")
    fh.write("{\n" + ",\n".join(top) + "\n}\n")


MAKERS = {"decide": make_decide, "scan32": make_scan32, "sweep": make_sweep}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(HERE, "corpus"))
    args = ap.parse_args(argv)
    _load_program()
    os.makedirs(args.out, exist_ok=True)
    for name in sorted(MAKERS):
        rng = random.Random(f"{args.seed}:{name}")
        corpus = MAKERS[name](rng)
        corpus["seed"] = args.seed
        path = os.path.join(args.out, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            write_corpus(corpus, fh)
        n = sum(len(g["requests"]) for g in corpus["groups"])
        faults = [g["id"] for g in corpus["groups"] if "known_fault" in g]
        print(f"{path}: {len(corpus['groups'])} groups, {n} requests, "
              f"known faults: {', '.join(faults) or 'none'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
