"""Brute-force cross-checks for the classification machinery.

Everything here recomputes from first principles: ball enumeration of the
group, the two stabilizer-type sets attached to a subgroup or a pair, the
exact endomorphism dimension for finite-index subgroups, and sweep
verification of the tabulated action formulas against direct conjugation.
Nothing in this module trusts a tabulated closed form.
"""

import itertools
from dataclasses import dataclass

from . import cases, intlin
from .characters import (
    Character,
    agreement_conditions,
    conjugate_character,
    evaluate,
    level2_gate,
)
from .core import Elt, compose, conjugate, elt, inverse
from .subgroup import (
    WHOLE_GROUP,
    Subgroup,
    conjugate_subgroup,
    contains,
    decompose,
    intersect,
    level1_sublattice,
    transversal,
)


@dataclass(frozen=True)
class Ball:
    """All group elements with every coordinate bounded by the radius."""

    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be non-negative")

    def __len__(self) -> int:
        return (2 * self.radius + 1) ** 6

    def __iter__(self):
        rng = range(-self.radius, self.radius + 1)
        for t in itertools.product(rng, repeat=6):
            yield Elt(*t)

    def __contains__(self, g: Elt) -> bool:
        return all(abs(x) <= self.radius for x in g)


@dataclass(frozen=True)
class SWitness:
    """A ball element passing a stabilizer-set membership test."""

    g: Elt
    kind: str  # "in_S_of_H" or "in_S_of_H_chi"
    intersection: Subgroup
    character_check: tuple = ()

    def to_json(self) -> dict:
        return {
            "g": list(self.g),
            "kind": self.kind,
            "intersection": self.intersection.summary(),
            "character_check": [dict(c) for c in self.character_check],
        }


def _grid_points(rows, radius: int) -> list[tuple[int, int]]:
    """(B, E) pairs of the box, in row-major order, meeting every
    condition cb*B + ce*E == n0 (mod q) of the class data (q == 0 asks
    for equality)."""
    conds = [(cb, ce, *sol) for (cb, ce), sol in rows if sol != "all"]
    rng = range(-radius, radius + 1)
    return [(B, E) for B in rng for E in rng
            if all((cb * B + ce * E - n0) % q == 0 if q
                   else cb * B + ce * E == n0 for cb, ce, n0, q in conds)]


def _character_record(chi: Character, g: Elt, dom: Subgroup) -> tuple:
    out = []
    for x in dom.generators():
        lhs = evaluate(chi, x)
        rhs = evaluate(chi, conjugate(x, inverse(g)))
        out.append({"generator": list(x), "value": str(lhs),
                    "conjugated": str(rhs),
                    "equal": (lhs / rhs).is_one})
    return tuple(out)


def _slow_witness(H: Subgroup, chi, g: Elt):
    dom = intersect(conjugate_subgroup(H, g), H)
    if dom.rank_signature() != H.rank_signature():
        return None
    if chi is None:
        return SWitness(g, "in_S_of_H", dom)
    rec = _character_record(chi, g, dom)
    if not all(r["equal"] for r in rec):
        return None
    return SWitness(g, "in_S_of_H_chi", dom, rec)


def _s_ball(H: Subgroup, chi, radius: int, outside_only: bool,
            limit: int | None, with_records: bool):
    out: list[SWitness] = []
    if H.c0 != 1:
        # without the full centre the conjugate subgroup is not constant
        # on central-coordinate classes, so fall back to direct checks
        for g in Ball(radius):
            w = _slow_witness(H, chi, g)
            if w is not None and not (outside_only and contains(H, g)):
                out.append(w)
                if limit is not None and len(out) >= limit:
                    return out
        return out
    rng = range(-radius, radius + 1)
    cs = list(rng)
    gate = None if chi is None else level2_gate(H, chi)
    for A, D, F in itertools.product(rng, repeat=3):
        g0 = elt(a=A, d=D, f=F)
        ks, full = level1_sublattice(H, A, D, F)
        if not full:
            continue
        if chi is None:
            rows = []
        else:
            if any(intlin.row_reduce(gate, (A, F))[0]):
                continue
            rows = agreement_conditions(chi, g0, ks)
            if rows is None:
                continue
        dom = None
        for B, E in _grid_points(rows, radius):
            # neither membership in H, which holds the whole centre, nor
            # conjugation by g sees the central coordinate c, so both
            # are decided once per (B, E)
            g = Elt(A, D, F, B, E, -radius)
            if outside_only and contains(H, g):
                continue
            if dom is None:
                dom = intersect(conjugate_subgroup(H, g0), H)
            rec = (_character_record(chi, g, dom)
                   if chi is not None and with_records else ())
            kind = "in_S_of_H" if chi is None else "in_S_of_H_chi"
            for c in cs:
                out.append(SWitness(Elt(A, D, F, B, E, c), kind, dom, rec))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def s_set_ball(H: Subgroup, r: int) -> list[SWitness]:
    """Ball elements whose conjugate subgroup meets the subgroup in full
    rank; contains every ball element of the subgroup itself."""
    return _s_ball(H, None, r, outside_only=False, limit=None,
                   with_records=False)


def s_chi_ball(H: Subgroup, chi: Character, r: int) -> list[SWitness]:
    """The subset of s_set_ball where the character agrees with its
    conjugate on the intersection; equals the subgroup's own ball exactly
    for pairs inducing irreducibly."""
    return _s_ball(H, chi, r, outside_only=False, limit=None,
                   with_records=True)


def s_chi_outside(H: Subgroup, chi: Character, r: int,
                  limit: int | None = None) -> list[SWitness]:
    """Stabilizer-set witnesses outside the subgroup itself.

    An empty result at radius r certifies the ball portion of the
    irreducibility criterion; any entry is a concrete violation.
    """
    return _s_ball(H, chi, r, outside_only=True, limit=limit,
                   with_records=True)


def endo_dimension_finite(H: Subgroup, chi: Character) -> int:
    """Endomorphism algebra dimension of the induced representation, for a
    finite-index subgroup: the number of double cosets inside the
    stabilizer set, by full coset enumeration."""
    if H.rank_signature() != (3, 2, 1):
        raise ValueError("infinite index")
    reps = transversal(H, WHOLE_GROUP)
    tags = {}
    for t in reps:
        tags[decompose(H, t)[1]] = t
    in_s = set()
    for key, t in tags.items():
        dom = intersect(conjugate_subgroup(H, t), H)
        ok = all((evaluate(chi, x) /
                  evaluate(chi, conjugate(x, inverse(t)))).is_one
                 for x in dom.generators())
        if ok:
            in_s.add(key)
    gens = list(H.generators())
    gens += [inverse(h) for h in gens]
    seen = set()
    orbits = 0
    for key in in_s:
        if key in seen:
            continue
        orbits += 1
        frontier = [tags[key]]
        seen.add(key)
        while frontier:
            t = frontier.pop()
            for h in gens:
                nk = decompose(H, compose(t, h))[1]
                if nk not in seen:
                    if nk not in in_s:
                        raise RuntimeError(
                            "internal inconsistency: the stabilizer set is "
                            "not a union of double cosets")
                    seen.add(nk)
                    frontier.append(tags[nk])
    return orbits


def _closed(rep: dict, bucket: str, key: tuple, params, extra: dict):
    """Aggregate repeated findings under a stable key with a count."""
    store = rep.setdefault("_agg", {}).setdefault(bucket, {})
    if key not in store:
        entry = dict(extra)
        entry["example_params"] = list(params)
        entry["count"] = 0
        store[key] = entry
    store[key]["count"] += 1


def verify_case(ranks, parameter_box, limit: int | None = None) -> dict:
    """Sweep the admissible tuples of the box and compare each tabulated
    formula with a first-principles computation.

    Exact mismatches go to "discrepancies"; displayed variants that differ
    from the computed action but are recorded as readings go to
    "alternate_readings"; tuples without a valid sample go to "notes".
    With a limit below the box's count, the tuples are those of ranks 0,
    s, 2s, ... in lexicographic order, s = count // limit, unranked
    without building the box; a sweep of more than ENUMERATION_CAP tuples
    is refused with CapacityError (cases.sweep_params).
    """
    ranks = tuple(ranks)
    report: dict = {"case": list(ranks), "params_checked": 0,
                    "discrepancies": [], "alternate_readings": [],
                    "notes": []}
    todo, total = cases.sweep_params(ranks, parameter_box, limit)
    if limit is not None and total > limit:
        report["notes"].append({
            "note": "strided sweep", "checked": limit, "of": total})
    for p in todo:
        report["params_checked"] += 1
        point = cases.parse(ranks, p)
        ss, sub, gens = point.subset, point.sub, point.generators
        ngens = point.normalizer()
        for gi, u in enumerate(ngens):
            if conjugate_subgroup(sub, u) != sub:
                _closed(report, "discrepancies", (ss, "normalize", gi), p,
                        {"subset": ss, "kind": "generator fails to normalize",
                         "generator": gi})
        samples = [c for c in point.sample_characters() if c.is_valid()][:2]
        if not samples:
            _closed(report, "notes", (ss, "no-sample"), p,
                    {"subset": ss, "note": "no valid character sample"})
            continue
        for chi in samples:
            v = point.values(chi)
            for gi, u in enumerate(ngens):
                cc = conjugate_character(chi, u)
                computed = [evaluate(cc, h) for h in gens]
                tab = point.action(gi, v)
                if tab is not None and not all(
                        (x / y).is_one for x, y in zip(computed, tab)):
                    _closed(report, "discrepancies", (ss, "action", gi), p,
                            {"subset": ss, "kind": "tabulated action",
                             "generator": gi})
                var = point.printed(gi, v)
                if var is not None:
                    note, vals = var
                    if not all((x / y).is_one
                               for x, y in zip(computed, vals)):
                        _closed(report, "alternate_readings",
                                (ss, "action", gi, note), p,
                                {"subset": ss, "generator": gi, "note": note})
            for name, elem, exact_f, printed_f in point.relations():
                lhs = evaluate(chi, elem)
                if not (lhs / exact_f(v)).is_one:
                    _closed(report, "discrepancies", (ss, "relation", name),
                            p, {"subset": ss, "kind": "relation identity",
                                "name": name})
                if printed_f is not None and not (
                        exact_f(v) / printed_f(v)).is_one:
                    _closed(report, "alternate_readings",
                            (ss, "relation", name), p,
                            {"subset": ss, "relation": name,
                             "note": "printed identity differs from the "
                                     "exact decomposition"})
    agg = report.pop("_agg", {})
    for bucket, store in agg.items():
        report[bucket].extend(store[k] for k in sorted(store))
    return report
