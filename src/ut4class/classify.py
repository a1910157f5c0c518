"""Classification of weight pairs up to conjugation.

The entry points take an arbitrary finitely generated subgroup containing
the full centre (plus a character for the finer queries) and produce:

  * ``normal_form``: the conjugation-canonical parameter tuple of the
    subgroup, a point of its rank pair (see :mod:`.cases`), together with
    an explicit conjugator realizing it,
  * ``is_irreducible``: the full classification record for a pair,
  * ``stratum``: the unique stratum row an irreducible pair sits on,
  * ``equivalent``: conjugacy of two pairs with an explicit certificate,
  * ``f_equivalents``: finite root/residue replacement companions.

All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import cases, intlin
from .cases import CaseStructureError, NoSubsetError  # normal_form raises the former
from .characters import (
    Character,
    ONE,
    agreement_conditions,
    character,
    conjugate_character,
    evaluate,
    level2_gate,
    power_solutions,
)
from .core import Elt, IDENTITY, compose, elt, inverse
from .subgroup import (
    ENUMERATION_CAP,
    WHOLE_GROUP,
    CapacityError,
    Subgroup,
    conjugate_subgroup,
    intersect,
    isolator,
    level1_preimage,
    level1_shifts,
    level1_sublattice,
    word,
)


@dataclass(frozen=True)
class NormalForm:
    params: cases.RankCase  # the canonical tuple, as its rank pair's point
    conjugator: Elt
    ranks = property(lambda self: self.params.ranks)
    sub = property(lambda self: self.params.sub)  # the canonical subgroup

    def to_json(self) -> dict:
        return {
            "ranks": list(self.ranks),
            "params": list(self.params),
            "conjugator": list(self.conjugator),
        }


def _require_feasible(sub: Subgroup) -> tuple[int, int]:
    if sub.c0 != 1:
        raise ValueError("infeasible ranks: the subgroup does not contain "
                         "the full centre")
    r1, r2, _ = sub.rank_signature()
    if (r1, r2) not in cases.RANK_PAIRS:
        raise ValueError(f"infeasible ranks: ({r1}, {r2}) admits no "
                         "irreducible finite-weight pair")
    return (r1, r2)


def _residues(sub: Subgroup) -> list[tuple[int, int]]:
    return [(g.b, g.e) for g in sub.gens1]


def _shift_matrix(sub: Subgroup) -> list[list[int]]:
    """Moves of the flattened level-2 residues of the level-1 generators:
    one row per axis of a conjugating element's level-1 part, then the
    level-2 lattice once for each generator."""
    rows1 = sub.level1_rows
    k = len(rows1)
    out: list[list[int]] = []
    for av, dv, fv in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        vec: list[int] = []
        for (va, vd, vf) in rows1:
            vec.extend([av * vd - va * dv, dv * vf - vd * fv])
        out.append(vec)
    for i in range(k):
        for row in sub.level2_rows:
            vec = [0] * (2 * k)
            vec[2 * i], vec[2 * i + 1] = row[0], row[1]
            out.append(vec)
    return out


def _canonical_residues(sub: Subgroup):
    """Reduce the level-2 residues modulo conjugation and the level-2
    lattice; returns (canonical residues, conjugator element)."""
    k = len(sub.gens1)
    shift_basis = _shift_matrix(sub)
    flat = [x for r in _residues(sub) for x in r]
    nonzero = [r for r in shift_basis if any(r)]
    if nonzero:
        hh = intlin.hnf(nonzero)
        canon, _ = intlin.row_reduce(hh, flat)
    else:
        canon = list(flat)
    delta = [x - y for x, y in zip(flat, canon)]
    if any(delta):
        coeff = intlin.solve_in_rowspace(shift_basis, delta)
        if coeff is None:
            raise AssertionError("residue reduction left its own lattice")
        g = elt(a=-coeff[0], d=-coeff[1], f=-coeff[2])
    else:
        g = IDENTITY
    canon_pairs = [(canon[2 * i], canon[2 * i + 1]) for i in range(k)]
    return canon_pairs, g


def normal_form(sub: Subgroup) -> NormalForm:
    """Canonical parameters of a subgroup, with the conjugator realizing
    them: conjugating the input by the conjugator yields exactly the
    canonical subgroup of the returned parameters.
    """
    ranks = _require_feasible(sub)
    canon, g = _canonical_residues(sub)
    moved = conjugate_subgroup(sub, g)
    point = cases.CASES[ranks].shape(moved, canon)
    if point.sub != moved:
        raise AssertionError("normal form replay failed: the canonical "
                             "subgroup does not match the conjugated input")
    return NormalForm(point, g)


def transport_character(nf: NormalForm, chi: Character) -> Character:
    """Move a character on the original subgroup to the canonical one."""
    moved = conjugate_character(chi, inverse(nf.conjugator))
    if moved.sub != nf.sub:
        raise AssertionError("character transport missed the canonical "
                             "subgroup")
    return character(nf.sub, moved.vals1, moved.vals2, moved.val_c)


@dataclass(frozen=True)
class ClassificationResult:
    ranks: tuple[int, int]
    subset: str | None
    params: tuple[int, ...]
    conjugator: Elt
    irreducible: bool
    certificate: dict = field(compare=False)

    def to_json(self) -> dict:
        return {
            "ranks": list(self.ranks),
            "subset": self.subset,
            "params": list(self.params),
            "conjugator": list(self.conjugator),
            "irreducible": self.irreducible,
            "certificate": self.certificate,
        }


def is_irreducible(sub: Subgroup, chi: Character) -> ClassificationResult:
    """Decide irreducibility of the induced representation of a pair."""
    return _decide(normal_form(sub), chi)[0]


def _decide(nf: NormalForm, chi: Character):
    """(verdict, case values of the transported character) for a pair
    whose subgroup has normal form nf; the values are None when the
    parameters match no admissible subset."""
    point = nf.params
    try:
        subset = point.subset
    except NoSubsetError as err:
        return ClassificationResult(
            nf.ranks, None, point, nf.conjugator, False,
            {"reason": str(err)}), None
    chi2 = transport_character(nf, chi)
    values = point.values(chi2)
    cert: dict = {"values": {k: str(v) for k, v in values.items()}}
    conds = point.conditions(values, chi2)
    if point.scanned:  # finite index: the conditions certify minimality only
        ok, cert["double_coset_scan"] = _scan_32(nf, chi2)
        cert["minimality_conditions"] = conds
    else:
        ok = all(c["holds"] for c in conds)
        cert["conditions"] = conds
    return ClassificationResult(nf.ranks, subset, point, nf.conjugator,
                                ok, cert), values


def _scan_32(nf: NormalForm, chi: Character):
    """Mackey's criterion for the finite-index case: whether chi agrees
    with its conjugate by t on H meet t^-1 H t, for every right coset H*t
    outside H, decided one level-1 class at a time.

    The coset representatives are t = g0 * elt(b=B, e=E): g0 the whole
    group's element over a level-1 residue (A, D, F), and (B, E) a
    residue modulo the level-2 lattice, in lexicographic order.
    Conjugation by elt(b=B, e=E) keeps H (which contains the centre) and
    moves chi by a power of the central value only, so within a class
    the intersection is fixed and agreement is a set of congruences on
    (B, E).  Their solutions are a coset of a lattice that contains the
    level-2 lattice, so they are counted as a lattice index, never
    listed.

    Only the classes whose (A, F) passes level2_gate are visited; the
    others agree nowhere.  A class's sublattice depends only on its
    level1_shifts, and its agreeing residues only on its conditions, so
    both are computed once per distinct key within the scan.
    """
    sub = nf.sub
    (pa, _, _), (_, pd, _), (_, _, pf) = sub.level1_rows
    (pb, _), (_, pe) = level2 = sub.level2_rows
    classes = pa * pd * pf
    if classes > ENUMERATION_CAP:
        raise CapacityError(
            f"the double-coset scan visits a*d'*f'' = {classes} level-1 "
            f"classes, more than {ENUMERATION_CAP}")
    agreeing = 0
    witness = None
    sublattices: dict = {}
    residues: dict = {}
    for A, fs in _gate_classes(level2_gate(sub, chi), pa, pf):
        for D in range(pd):
            for F in fs:
                g0 = level1_preimage(WHOLE_GROUP, (A, D, F))
                shifts = level1_shifts(sub, A, D, F)
                if shifts not in sublattices:
                    sublattices[shifts] = level1_sublattice(sub, A, D, F)[0]
                conds = agreement_conditions(chi, g0, sublattices[shifts])
                if conds is None:
                    continue
                conds = tuple(conds)
                if conds not in residues:
                    residues[conds] = _agreeing_residues(conds, level2)
                found = residues[conds]
                if found is None:
                    continue
                first, ((qb, m), (_, qe)) = found
                count = pb * pe // (qb * qe)
                if not (A or D or F):
                    # the identity coset lies in H: skip to the next residue
                    if first != (0, 0):
                        raise AssertionError("the identity coset disagrees "
                                             "with itself")
                    count -= 1
                    first = (0, qe) if qe < pe else (qb, m)
                agreeing += count
                if witness is None and count:
                    witness = compose(g0, elt(b=first[0], e=first[1]))
    ok = agreeing == 0
    index = classes * pb * pe
    conds = {"index": index, "cosets_checked": index,
             "agreeing_nontrivial_cosets": agreeing}
    if witness is not None:
        conds["agreement_witness"] = list(witness)
    return ok, conds


def _gate_classes(gate, pa: int, pf: int):
    """The level-1 residues 0 <= A < pa, 0 <= F < pf with (A, F) in the
    lattice of HNF basis gate, as pairs (A, range of its F), by
    increasing A; the lattice is walked, never the whole box."""
    # a lattice without a pivot in the A column pins A = 0, which the
    # stride pa reproduces
    step_a, slope = next((r for r in gate if r[0]), (pa, 0))
    step_f = next((r[1] for r in gate if not r[0]), 0)
    for A in range(0, pa, step_a):
        f0 = A // step_a * slope
        if step_f:
            yield A, range(f0 % step_f, pf, step_f)
        elif 0 <= f0 < pf:
            yield A, range(f0, f0 + 1)


def _agreeing_residues(conds, level2):
    """The (B, E) meeting every condition cb*B + ce*E == n0 (mod q) of
    agreement_conditions (q == 0 asks for equality), as (the least
    solution in lexicographic order with B, E >= 0, HNF basis of the
    solution lattice); None when there is none.  The lattice must
    contain the level-2 lattice, since agreement is a property of the
    coset."""
    conds = [(cb, ce, *sol) for (cb, ce), sol in conds if sol != "all"]
    if conds:
        rows = [[cb, ce] + [-q if j == i else 0 for j in range(len(conds))]
                for i, (cb, ce, _, q) in enumerate(conds)]
        got = intlin.solve_linear(rows, [n0 for _, _, n0, _ in conds])
        if got is None:
            return None
        x0, kernel = got
        lattice = intlin.hnf([k[:2] for k in kernel])
    else:
        x0, lattice = (0, 0), [(1, 0), (0, 1)]
    if any(any(intlin.row_reduce(lattice, r)[0]) for r in level2):
        raise AssertionError("the agreeing residues are not a union of "
                             "cosets of the level-2 lattice")
    return intlin.row_reduce(lattice, x0[:2])[0], lattice


def stratum(sub: Subgroup, chi: Character) -> StratumResult:
    """The unique stratum row carrying an irreducible pair."""
    nf = normal_form(sub)
    res, v = _decide(nf, chi)
    if not res.irreducible:
        raise ValueError("the pair is not irreducible; strata parametrize "
                         "irreducible pairs only")
    rows = nf.params.strata(v)
    matched = [r for r, m in rows if m]
    if len(matched) != 1:
        raise RuntimeError(
            f"no matching row: internal inconsistency, {len(matched)} rows "
            "matched an irreducible pair")
    return StratumResult(nf.ranks, res.subset, nf.params, matched[0],
                         len(rows))


@dataclass(frozen=True)
class StratumResult:
    ranks: tuple[int, int]
    subset: str
    params: tuple[int, ...]
    row: cases.StratumRow
    table_size: int

    def to_json(self) -> dict:
        out = self.row.to_json()
        out.update({"ranks": list(self.ranks), "subset": self.subset,
                    "params": list(self.params),
                    "table_size": self.table_size})
        return out


# ---------------------------------------------------------------------------
# conjugacy of pairs


def _normalizer_level1_lattice(sub: Subgroup) -> list[tuple[int, int, int]]:
    """Basis of the (a, d, f)-lattice of elements normalizing the subgroup.

    An element normalizes exactly when conjugation shifts every level-1
    generator's coset tail into the level-2 lattice; that is a linear
    condition on its level-1 coordinates, and the tail coordinates are
    free.
    """
    shifts = _shift_matrix(sub)
    return intlin.preimage(shifts[:3], shifts[3:])


def _monomial_solve(factors: list[dict], target: dict):
    """Integer exponents x with prod(factors[i]**x[i]) == target, slotwise.

    factors[i] maps slot name to a UnitValue; target likewise.  Exact over
    the value group: symbol exponents give linear equations, torsion parts
    give one congruence per slot.  Returns the exponent list or None.
    """
    slots = sorted(target)
    values = [val for fac in factors + [target] for val in fac.values()]
    syms = list(dict.fromkeys(s for val in values for s, _ in val.powers))
    scale = math.lcm(*(val.den for val in values))
    ncols = len(slots) * (len(syms) + 1)

    def encode(fac: dict) -> list[int]:
        row = []
        for name in slots:
            val = fac.get(name, ONE)
            k = scale // val.den
            em = dict(val.powers)
            row.extend(k * em.get(s, 0) for s in syms)
            row.append(k * val.num)
        return row

    rows = [encode(f) for f in factors]
    for j, name in enumerate(slots):
        aux = [0] * ncols
        aux[j * (len(syms) + 1) + len(syms)] = scale
        rows.append(aux)
    sol = intlin.solve_in_rowspace(rows, encode(target))
    if sol is None:
        return None
    return list(sol[:len(factors)])


def equivalent(sub1: Subgroup, chi1: Character, sub2: Subgroup,
               chi2: Character) -> dict:
    """Conjugacy test for two pairs.

    status is "equivalent" (with a certificate conjugator) or "not
    equivalent (proved)" (an exact invariant or the exact normalizer-orbit
    solve separates the pairs).
    """
    nf1, nf2 = normal_form(sub1), normal_form(sub2)
    if nf1.ranks != nf2.ranks:
        return {"status": "not equivalent (proved)",
                "invariant": "rank signatures differ"}
    if nf1.params != nf2.params:
        return {"status": "not equivalent (proved)",
                "invariant": "canonical parameters differ"}
    point, K = nf1.params, nf1.sub
    v1 = point.values(transport_character(nf1, chi1))
    v2 = point.values(transport_character(nf2, chi2))
    if not (v1["lambda"] / v2["lambda"]).is_one:
        return {"status": "not equivalent (proved)",
                "invariant": "central values differ"}
    lam = v1["lambda"]
    names = point.coords
    level2_names = [n for n in names if n in ("z", "w")]
    level1_names = [n for n in names if n not in ("z", "w")]
    basis = _normalizer_level1_lattice(K)

    # phase 1: conjugation multiplies a level-2 generator's value by the
    # central value raised to the pairing exponent, so the level-2 ratios
    # must be central powers hit by the pairing map on the normalizer
    deltas = []
    for name, s in zip(names, point.generators):
        if name in ("z", "w"):
            # the smallest n >= 0 with v1 == v2 * lam**n
            sol = power_solutions(v2[name] / v1[name], lam)
            if sol is None:
                return {"status": "not equivalent (proved)",
                        "invariant": f"the {name} values do not differ by "
                        "a power of the central value"}
            deltas.append((0 if sol == "all" else sol[0], s))
    pairing_rows = [[u[0] * s.e - u[2] * s.b for _, s in deltas]
                    for u in basis]
    torsion_order = lam.value_order()
    aug = list(pairing_rows)
    if torsion_order is not None:
        for j in range(len(deltas)):
            unit = [0] * len(deltas)
            unit[j] = torsion_order
            aug.append(unit)
    if deltas:
        coeff = intlin.solve_in_rowspace(aug, [n for n, _ in deltas])
        if coeff is None:
            return {"status": "not equivalent (proved)",
                    "invariant": "the level-2 value ratios are outside the "
                    "pairing image of the normalizer"}
        uvec = [0, 0, 0]
        for c, u in zip(coeff[:len(basis)], basis):
            uvec = [x + c * y for x, y in zip(uvec, u)]
        u_a = elt(a=uvec[0], d=uvec[1], f=uvec[2])
    else:
        u_a = IDENTITY
    chi_mid = conjugate_character(point.character(v2), u_a)
    v2m = point.values(chi_mid)
    for name in level2_names:
        if not (v2m[name] / v1[name]).is_one:
            raise RuntimeError("internal inconsistency: the pairing solve "
                               "did not align the level-2 values")

    # phase 2: normalizer elements with trivial pairing form a group whose
    # action on the level-1 values is by fixed multipliers, so membership
    # is an exact monomial solve over the generator multipliers
    gens_b = []
    for kv in intlin.preimage(pairing_rows, aug[len(basis):]):
        uvec = [0, 0, 0]
        for c, u in zip(kv, basis):
            uvec = [x + c * y for x, y in zip(uvec, u)]
        if any(uvec):
            gens_b.append(elt(a=uvec[0], d=uvec[1], f=uvec[2]))
    gens_b.extend([elt(b=1), elt(e=1)])
    chi_m = point.character(v2m)
    factors = []
    for g in gens_b:
        cc = conjugate_character(chi_m, g)
        fac = {}
        for name, h in zip(names, point.generators):
            ratio = evaluate(cc, h) / v2m[name]
            if name in ("z", "w"):
                if not ratio.is_one:
                    raise RuntimeError("internal inconsistency: a trivial-"
                                       "pairing move shifted a level-2 value")
            else:
                fac[name] = ratio
        factors.append(fac)
    target = {name: v1[name] / v2m[name] for name in level1_names}
    exps = _monomial_solve(factors, target)
    if exps is None:
        return {"status": "not equivalent (proved)",
                "invariant": "the level-1 value ratios are outside the "
                "multiplier image of the normalizer"}
    w = compose(u_a, word(gens_b, exps))
    total = compose(inverse(nf2.conjugator), compose(w, nf1.conjugator))
    moved = conjugate_subgroup(sub1, total)
    if moved != sub2:
        raise RuntimeError("internal inconsistency: certificate conjugator "
                           "fails to move the first subgroup onto the second")
    cc = conjugate_character(chi1, inverse(total))
    if not all((evaluate(cc, h) / evaluate(chi2, h)).is_one
               for h in sub2.generators()):
        raise RuntimeError("internal inconsistency: certificate conjugator "
                           "fails to transport the character")
    return {"status": "equivalent", "conjugator": list(total)}


# ---------------------------------------------------------------------------
# finite companion moves


def f_equivalents(sub: Subgroup, chi: Character, limit: int = 20) -> dict:
    """Root/residue replacement companions of a pair.

    The companion relation is reconstructed from worked instances rather
    than a standalone definition, so every output is flagged accordingly;
    cases without such instances return an empty list.
    """
    nf = normal_form(sub)
    point = nf.params
    point.subset  # NoSubsetError for a tuple in no subset
    out = {"flag": "F-equivalence (inferred definition)", "companions": []}
    chi0 = transport_character(nf, chi)
    candidates = point.f_moves(point.values(chi0))
    if not candidates:
        return out
    iso0 = isolator(nf.sub)
    for p2, vals2, note in candidates:
        if len(out["companions"]) >= limit:
            break
        try:
            chi2 = p2.character(vals2)
        except (ValueError, AssertionError):
            continue
        sub2 = chi2.sub
        res = _decide(NormalForm(p2, IDENTITY), chi2)[0]
        if not res.irreducible or isolator(sub2) != iso0:
            continue
        meet = intersect(nf.sub, sub2)
        if not all((evaluate(chi0, x) / evaluate(chi2, x)).is_one
                   for x in meet.generators()):
            continue
        out["companions"].append({
            "params": list(p2),
            "subset": res.subset,
            "values": {k: str(x) for k, x in vals2.items()},
            "note": note,
        })
    return out


def is_isolated(sub: Subgroup) -> bool:
    """Whether the subgroup equals its own isolator."""
    return isolator(sub) == sub
