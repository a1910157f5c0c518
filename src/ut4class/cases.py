"""Case tables for the classification of irreducible finite-weight pairs.

A weight pair is a subgroup of the unitriangular group together with a
character of it.  The classification is organized by the rank pair
(r1, r2) of the subgroup: r1 is the rank of its image modulo the derived
span, r2 the rank of the level-2 layer modulo the centre.  Six rank
pairs support irreducible pairs.  Each has one class in the table
``CASES``: a namedtuple of exactly its named parameters, with the mixin
``RankCase``.  ``parse(ranks, params)`` makes the point of a parameter
tuple, and the case's rules are the point's methods (see ``RankCase``):
its canonical subgroup, subset, irreducibility conditions, normalizer
actions, strata table and equivalence moves.  A point keeps its
generators, canonical subgroup and subset after the first read; its
derived integers are properties, computed when a rule reads them, which
rules do on admissible tuples only.  The residue coordinates of a class
let ``ParamBox`` count and walk the admissible tuples of a box.

Everything is exact; characters take values in the symbolic unit group
of :mod:`.characters`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product as iproduct

from . import intlin
from .core import Elt, commutator, elt
from .characters import (
    Character,
    ONE,
    UnitValue,
    ValueSymbol,
    evaluate,
    root_of_unity,
    solve_character,
    symbol_value,
)
from .enumeration import ParamBox
from .subgroup import ENUMERATION_CAP, CapacityError, Subgroup, subgroup


class NoSubsetError(ValueError):
    """Raised when a parameter tuple belongs to no admissible subset."""


class CaseStructureError(ValueError):
    """Subgroup has feasible ranks but sits outside the parametrized
    families (raised with the message "violates case structure")."""


_gcd, _lcm = math.gcd, math.lcm  # both nonnegative for any signs
_F_MOVE_CAP = 64  # the f-move candidates built per pair


def _div(x: int, y: int) -> int:
    # exact integer quotient; divisibility is guaranteed by construction
    q, r = divmod(x, y)
    if r:
        raise AssertionError(f"{x} is not divisible by {y}")
    return q


def _order(x: int, m: int) -> int:
    """Order of x modulo m, |m| / gcd(x, m); 0 when m is 0."""
    return abs(m) // _gcd(x, m) if m else 0


class _kept:
    """A property computed on the first read and kept in the instance;
    functools.cached_property before Python 3.12 takes a lock on each
    first read, a cost that every key a ParamBox tries would pay."""

    def __init__(self, rule):
        self.rule, self.__doc__ = rule, rule.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, point, owner=None):
        if point is None:
            return self
        value = point.__dict__[self.name] = self.rule(point)
        return value


# ---------------------------------------------------------------------------
# fiber descriptors and stratum rows


@dataclass(frozen=True)
class FiberDescriptor:
    """One factor of a stratum: the fiber over a single value coordinate.

    kind is one of Cstar, E, P, T, muN, mu_infty, Czw, CzwSing, point.
    moduli holds the symbolic multiplier words (one for E/P, two for T).
    order is the root-of-unity order for muN.  constraint restricts the
    underlying coordinate range: off_circle, circle_nontorsion, torsion,
    nontorsion, or None for no restriction.
    """

    kind: str
    moduli: tuple[str, ...] = ()
    order: int | None = None
    constraint: str | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.moduli:
            out["moduli"] = list(self.moduli)
        if self.order is not None:
            out["order"] = self.order
        if self.constraint is not None:
            out["constraint"] = self.constraint
        return out


@dataclass(frozen=True)
class StratumRow:
    row: int  # 1-based position in the case's stratum table
    fibers: tuple[FiberDescriptor, ...]
    selector: str = ""
    note: str = ""

    def to_json(self) -> dict:
        out = {"row": self.row, "fibers": [f.to_json() for f in self.fibers]}
        if self.selector:
            out["selector"] = self.selector
        if self.note:
            out["note"] = self.note
        return out


def _mono(*pairs: tuple[str, int]) -> str:
    """Canonical multiplier word, leading exponent normalized positive."""
    terms = [(name, e) for name, e in pairs if e]
    if not terms:
        return "1"
    if terms[0][1] < 0:
        terms = [(n, -e) for n, e in terms]
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in terms)


def _cstar(constraint: str | None = None) -> FiberDescriptor:
    return FiberDescriptor("Cstar", constraint=constraint)


def _ell(word: str, constraint: str | None = None) -> FiberDescriptor:
    return FiberDescriptor("E", moduli=(word,), constraint=constraint)


def _pp(word: str, constraint: str | None = None) -> FiberDescriptor:
    return FiberDescriptor("P", moduli=(word,), constraint=constraint)


def _tt(word1: str, word2: str) -> FiberDescriptor:
    return FiberDescriptor("T", moduli=(word1, word2))


def _mun(n: int) -> FiberDescriptor:
    return FiberDescriptor("muN", order=abs(n))


def _muinf() -> FiberDescriptor:
    return FiberDescriptor("mu_infty")


def _curve(singular: bool = False) -> FiberDescriptor:
    return FiberDescriptor("CzwSing" if singular else "Czw", moduli=("z", "w"))


# the lambda coordinate of a row: off the circle / on it but nontorsion
_LAM_OFF = _cstar("off_circle")
_LAM_CIRC = _cstar("circle_nontorsion")


# ---------------------------------------------------------------------------
# the point of a parameter tuple


class RankCase:
    """The rules every rank pair's point shares, and the answers of a rank
    pair without a rule of its own.

    A rank pair's class is a namedtuple of its parameters with this mixin.
    It sets ``ranks`` and ``coords``, the value names of the defining
    generators (the central one is "lambda"), and defines

      * ``generators``: the ordered defining generators (kept),
      * ``shape(moved, canon)``: the point of a residue-canonical subgroup
        with canonical level-2 residues canon, read off its lattices;
        CaseStructureError when its shape is not the case's,
      * ``subset``: the subset label, or NoSubsetError (kept),
      * ``conditions(values, chi)``: the irreducibility conditions,
      * ``normalizer()``: generators of the normalizer modulo the subgroup,
      * ``stratum_rows(values)``: (fibers, matched, selector) per row,
      * ``samples()``: value assignments for character samples,

    and may define the rules below, ``move_candidates(vals)`` yielding
    every f-move candidate lazily.
    """

    __slots__ = ()
    ranks: tuple[int, int]
    coords: tuple[str, ...]
    scanned = False  # irreducibility is decided by the finite-index scan
    # (residue, modulus) name pairs: the residue coordinate enters the
    # subset conditions only through the bound |residue| < |modulus|
    residues = ()
    # coordinates that no admissible tuple sets to zero
    nonzero = ()

    @property
    def label(self) -> str | None:
        """The subset label; None when the tuple is in no subset."""
        try:
            return self.subset
        except NoSubsetError:
            return None

    @_kept
    def sub(self) -> Subgroup:
        """The canonical subgroup (centre included)."""
        return subgroup([*self.generators, elt(c=1)])

    def values(self, chi: Character) -> dict[str, UnitValue]:
        """Character values on the defining generators plus the centre."""
        if chi.sub.c0 != 1:
            raise ValueError("the character's domain must contain the full "
                             "centre")
        vals = {name: evaluate(chi, g)
                for name, g in zip(self.coords, self.generators)}
        vals["lambda"] = evaluate(chi, elt(c=1))
        return vals

    def character(self, vals: dict) -> Character:
        """Character on the canonical subgroup with the given values on the
        defining generators (keys from coords plus "lambda")."""
        return solve_character(
            self.sub, [*self.generators, elt(c=1)],
            [vals[name] for name in self.coords] + [vals.get("lambda", ONE)])

    def sample_characters(self) -> list[Character]:
        """Deterministic generic valid characters on the canonical subgroup.

        Free directions get fresh symbols; constrained directions get exact
        torsion solutions.  Every returned character is a valid
        homomorphism and satisfies the case's irreducibility conditions.
        """
        chars = []
        for assign in self.samples():
            try:
                chars.append(self.character(assign))
            except ValueError:
                continue
        return chars

    def strata(self, v: dict) -> list[tuple[StratumRow, bool]]:
        """All stratum rows for the subset with the selector evaluated on
        the given character values; rows are 1-based in table order."""
        return [(StratumRow(i, tuple(fibers), selector), matched)
                for i, (fibers, matched, selector)
                in enumerate(self.stratum_rows(v), 1)]

    def action(self, gi: int, v: dict) -> list[UnitValue] | None:
        """Closed-form values of the conjugated character on the defining
        generators, for the gi-th normalizer generator; None when no closed
        form is tabulated for this subset (the conjugation is then computed
        from first principles).  The central value is always unchanged.
        """
        return None

    def printed(self, gi: int, v: dict):
        """Alternate displayed reading where the typeset closed form differs
        from the verified one; (note, values) or None."""
        return None

    def relations(self) -> list:
        """Displayed commutator identities: (name, element, exact word
        builder, printed word builder or None).  Builders map the value
        dict to a UnitValue; the exact one matches the element's
        decomposition."""
        return []

    def central_orders(self, bound: int = 2000):
        """Central-value orders up to the bound compatible with the level-2
        exponents, in increasing order."""
        raise ValueError("central orders are parameter-determined only for "
                         "the two level-2-saturated cases")

    def conjugation(self, shift: int):
        """The residue-shifting conjugation move: (conjugator, new point).
        Conjugating the canonical subgroup by the conjugator yields the
        canonical subgroup of the new point."""
        raise ValueError(
            "the tabulated residue-shifting move exists for rank pairs "
            "(1,1), (2,0) and (2,1) only")

    def f_moves(self, vals: dict) -> list:
        """Finite root/residue replacement candidates: (point, values,
        note), the first _F_MOVE_CAP of them in the case's order.

        Candidate tuples share the isolator with the input; the caller is
        responsible for filtering by validity and restriction agreement.
        """
        return list(islice(self.move_candidates(vals), _F_MOVE_CAP))

    def move_candidates(self, vals: dict):
        return iter(())


class _Table(dict):
    def __missing__(self, ranks):
        raise ValueError(f"unknown rank pair {ranks}")


def parse(ranks: tuple[int, int], params) -> RankCase:
    """The point of a parameter tuple of the rank pair."""
    case = CASES[ranks]
    p = tuple(map(int, params))
    if len(p) != len(case._fields):
        raise ValueError(f"rank pair {case.ranks} takes {len(case._fields)} "
                         f"parameters, got {len(p)}")
    return case._make(p)


# ---------------------------------------------------------------------------
# the tuples of a box


def param_box(ranks, box: tuple[int, int]) -> ParamBox:
    """The admissible tuples with all coordinates in [box[0], box[1]],
    counted, walked lazily in lexicographic order and unranked without
    being built (see ParamBox)."""
    return ParamBox(CASES[ranks], box)


def enumerate_params(ranks, box: tuple[int, int], limit: int | None = None):
    """Admissible tuples with all coordinates in [box[0], box[1]],
    lexicographically ordered; limit caps the output length, and the walk
    stops there."""
    return list(islice(param_box(ranks, box), limit))


def sweep_params(ranks, box: tuple[int, int], limit: int | None = None):
    """The tuples a sweep of the box checks, and the box's count: every
    admissible tuple, lazily in lexicographic order, or with a limit below
    the count the limit tuples at ranks 0, s, 2s, ..., s = count // limit,
    unranked from the box's blocks.  A sweep of more than ENUMERATION_CAP
    tuples is refused with CapacityError before any is made."""
    space = param_box(ranks, box)
    checked = space.count if limit is None else min(space.count, limit)
    if checked > ENUMERATION_CAP:
        raise CapacityError(f"the sweep would check {checked} tuples, more "
                            f"than {ENUMERATION_CAP}")
    if checked < space.count:
        return space.strided(limit), space.count
    return space, space.count


# ---------------------------------------------------------------------------
# functions of (ranks, params), one parse each, which bench/gen.py imports


def defining_generators(ranks: tuple[int, int], params) -> list[Elt]:
    """Ordered non-central generators of the canonical subgroup."""
    return list(parse(ranks, params).generators)


def build_subgroup(ranks: tuple[int, int], params) -> Subgroup:
    """Canonical subgroup for a parameter tuple (centre included)."""
    return parse(ranks, params).sub


def case_values(ranks: tuple[int, int], params, chi: Character) -> dict[str, UnitValue]:
    """Character values on the defining generators plus the centre."""
    return parse(ranks, params).values(chi)


def subset_of(ranks: tuple[int, int], params) -> str:
    """Subset label of an admissible tuple; NoSubsetError otherwise."""
    return parse(ranks, params).subset


def character_samples(ranks, subset: str, params) -> list[Character]:
    """The sample characters of a tuple of the given subset (see
    RankCase.sample_characters); ValueError for a subset not the tuple's."""
    point = parse(ranks, params)
    if point.subset != subset:
        raise ValueError(f"the tuple is in subset {point.subset}, not "
                         f"{subset}")
    return point.sample_characters()


def character_from_values(ranks, params, vals: dict) -> Character:
    """Character on build_subgroup(ranks, params) with the given values on
    the defining generators (keys from COORD_NAMES plus "lambda")."""
    return parse(ranks, params).character(vals)


# ---------------------------------------------------------------------------
# rules shared by several rank pairs


def _lattice_matches(sub: Subgroup, want_rows: list[tuple[int, int]]) -> bool:
    have = [tuple(r) for r in sub.level2_rows]
    want = [tuple(r) for r in intlin.hnf([list(r) for r in want_rows])]
    return have == want


def _pivot_cols(rows) -> tuple[int, ...]:
    cols = []
    for r in rows:
        for j, x in enumerate(r):
            if x:
                cols.append(j)
                break
    return tuple(cols)


def _split_level2(moved: Subgroup) -> tuple[int, int]:
    """The diagonal of a level-2 lattice split along the coordinate axes."""
    l2 = moved.level2_rows
    if l2[0][1] != 0:
        raise CaseStructureError(
            "violates case structure: the level-2 lattice is not split "
            "along the coordinate axes")
    return l2[0][0], l2[1][1]


def _lambda_rows(lam_cls: str, fibers, matched: bool = True,
                 tail: str = "") -> list:
    """A stratum row with lambda off the circle and its twin with lambda on
    it; fibers(_ell) and fibers(_pp) give their other fibers."""
    return [(fibers(_ell) + [_LAM_OFF], lam_cls == "off_circle" and matched,
             "lambda off the circle" + tail),
            (fibers(_pp) + [_LAM_CIRC], lam_cls == "circle_free" and matched,
             "lambda on the circle" + tail)]


def _cond(name: str, holds: bool, detail: str = "") -> dict:
    out = {"name": name, "holds": bool(holds)}
    if detail:
        out["detail"] = detail
    return out


def _central_free(v: dict) -> dict:
    lam = v["lambda"]
    return _cond("central value is not a root of unity",
                 not lam.is_root_of_unity, str(lam))


def _central_finite(lam: UnitValue, nu: int | None) -> dict:
    return _cond("central value has finite order", nu is not None, str(lam))


def _kills_commutator(chi: Character, gens: list[Elt]) -> dict:
    return _cond("character kills the commutator of the level-1 generators",
                 evaluate(chi, commutator(gens[0], gens[1])).is_one)


def _sym(name: str, circle: bool = False) -> UnitValue:
    return symbol_value(ValueSymbol(name, on_circle=circle))


def _torsion_solution(m: int, target: UnitValue, j: int) -> UnitValue:
    """A solution x of x**m = target, twisted by the j-th root of unity."""
    return target ** Fraction(1, m) * root_of_unity(j, abs(m))


# ---------------------------------------------------------------------------
# the six rank pairs


class _Case11(RankCase, namedtuple("_Case11", "a d f b e")):
    """(1, 1): one level-1 generator and the primitive level-2 element
    along its corner direction."""

    ranks, coords = (1, 1), ("t", "z")

    # n = gcd(a, f), (a1, f1) the primitive direction of (a, f), and lexp
    # the central exponent that the first normalizer generator of subsets
    # S1-S4 puts on t; rules read them only when (a, f) != (0, 0)
    n = property(lambda self: _gcd(self.a, self.f))
    a1 = property(lambda self: self.a // self.n)
    f1 = property(lambda self: self.f // self.n)
    lexp = property(lambda self: self.a1 * self.e + self.f1 * self.b
                    + (1 - self.n) * self.a1 * self.f1 * self.d)

    @_kept
    def generators(self) -> tuple[Elt, ...]:
        if (self.a, self.f) == (0, 0):
            raise NoSubsetError("no subset: requires (a, f) != (0, 0)")
        return (elt(a=self.a, d=self.d, f=self.f, b=self.b, e=self.e),
                elt(b=self.a1, e=self.f1))

    @classmethod
    def shape(cls, moved: Subgroup, canon) -> _Case11:
        (a, d, f), (b, e) = moved.level1_rows[0], canon[0]
        if (a, f) == (0, 0):
            raise CaseStructureError(
                "violates case structure: the level-1 direction has no "
                "corner component")
        point = cls(a, d, f, b, e)
        if not _lattice_matches(moved, [(point.a1, point.f1)]):
            raise CaseStructureError(
                "violates case structure: the level-2 lattice is not the "
                "primitive corner direction")
        if d == 0 and f == 0:
            return cls(a, 0, 0, 1, e)
        if a == 0 and d == 0:
            return cls(0, 0, f, b, 1)
        return point

    @_kept
    def subset(self) -> str:
        a, d, f, b, e = self
        if (a, f) == (0, 0):
            raise NoSubsetError("no subset: requires (a, f) != (0, 0)")
        if d == 0 and f == 0:
            # normal family along the first axis
            if b != 1:
                raise NoSubsetError("no subset: requires b = 1 when d = f = 0")
            if _gcd(e, a) != 1:
                raise NoSubsetError(
                    "no subset: requires gcd(e, a) = 1 when d = f = 0")
            return "N1"
        if a == 0 and d == 0:
            if e != 1:
                raise NoSubsetError("no subset: requires e = 1 when a = d = 0")
            if _gcd(b, f) != 1:
                raise NoSubsetError(
                    "no subset: requires gcd(b, f) = 1 when a = d = 0")
            return "N2"
        if _gcd(self.f1 * b - self.a1 * e, a, d, f) != 1:
            raise NoSubsetError(
                "no subset: requires gcd(f1*b - a1*e, a, d, f) = 1 "
                "(f1, a1 the primitive direction of (f, a))")
        if a and d and f:
            return "S1"
        if a == 0:
            return "S2"  # d, f nonzero
        if f == 0:
            return "S3"  # a, d nonzero
        return "S4"  # d == 0, a, f nonzero

    def conditions(self, v: dict, chi: Character) -> list[dict]:
        return [_central_free(v)]

    def normalizer(self) -> list[Elt]:
        if self.subset in ("S1", "S3", "S4"):
            return [elt(a=self.a1, f=-self.f1), elt(e=1)]
        if self.subset == "S2":
            return [elt(a=self.a1, f=-self.f1), elt(b=1)]
        if self.subset == "N1":
            return [elt(d=1), elt(e=1), elt(f=1)]
        return [elt(d=1), elt(b=1), elt(a=1)]  # N2, mirrored

    def action(self, gi: int, v: dict):
        a, d, f, b, e = self
        t, z, lam = v["t"], v["z"], v["lambda"]
        if self.subset in ("S1", "S2", "S3", "S4"):
            if gi == 0:
                return [t * z ** d * lam ** self.lexp,
                        z * lam ** (2 * self.a1 * self.f1)]
            return [t * lam ** (f if self.subset == "S2" else -a), z]
        if self.subset == "N1":
            if gi == 0:
                return [t * z ** (-abs(a)), z]
            if gi == 1:
                return [t * lam ** (-a), z]
            return [t * lam ** (-b), z * lam ** (-self.a1)]
        return None  # N2: mirrored, computed from first principles

    def printed(self, gi: int, v: dict):
        if self.subset not in ("S1", "S3", "S4") or gi != 0:
            return None
        a, d, f, b, e = self
        a1, f1, lam = self.a1, self.f1, v["lambda"]
        return ("displayed central exponent reads a'e + f'b + a'f'd; the "
                "computed one carries (1 - gcd(a, f)) on the a'f'd term",
                [v["t"] * v["z"] ** d * lam ** (a1 * e + f1 * b + a1 * f1 * d),
                 v["z"] * lam ** (2 * a1 * f1)])

    def stratum_rows(self, v: dict) -> list:
        a, d, f, b, e = self
        a1, f1, lexp, subset = self.a1, self.f1, self.lexp, self.subset
        lam_cls = v["lambda"].modulus_class()
        off, circ = lam_cls == "off_circle", lam_cls == "circle_free"
        ztor = v["z"].is_root_of_unity
        if subset == "S1":
            tw = _tt(_mono(("z", d), ("lambda", lexp)), _mono(("lambda", a)))
            zq = _mono(("lambda", 2 * a1 * f1))
            g = _mono(("lambda", _gcd(lexp, a)))
            return (_lambda_rows(lam_cls, lambda fib: [tw, fib(zq, "nontorsion")],
                                 not ztor, ", z not torsion")
                    + _lambda_rows(lam_cls, lambda fib: [fib(g), _muinf()],
                                   ztor, ", z torsion"))
        if subset in ("S2", "S3"):
            lam_exp = f1 * b if subset == "S2" else a1 * e
            axis = f if subset == "S2" else a
            tw = _tt(_mono(("z", d), ("lambda", lam_exp)),
                     _mono(("lambda", axis)))
            g = _mono(("lambda", _gcd(lam_exp, axis)))
            zcls = v["z"].modulus_class()
            return [
                ([tw, _cstar("off_circle"), _LAM_OFF],
                 off and zcls == "off_circle",
                 "z off the circle, lambda off the circle"),
                ([tw, _cstar("circle_nontorsion"), _LAM_OFF],
                 off and zcls == "circle_free",
                 "z on the circle non-torsion, lambda off the circle"),
                ([_ell(g), _muinf(), _LAM_OFF], off and ztor,
                 "z torsion, lambda off the circle"),
                ([tw, _cstar("nontorsion"), _LAM_CIRC], circ and not ztor,
                 "z not torsion, lambda on the circle"),
                ([_pp(g), _muinf(), _LAM_CIRC], circ and ztor,
                 "z torsion, lambda on the circle"),
            ]
        if subset == "S4":
            g = _mono(("lambda", _gcd(lexp, a)))  # d = 0 in S4
            zq = _mono(("lambda", 2 * a1 * f1))
            return _lambda_rows(lam_cls, lambda fib: [fib(g), fib(zq)])
        axis = a if subset == "N1" else f  # N1 / N2
        tw = _tt(_mono(("z", axis)), _mono(("lambda", axis)))
        return [
            ([tw, _ell("lambda", "nontorsion"), _LAM_OFF], off and not ztor,
             "lambda off the circle, z not torsion"),
            ([_ell("lambda"), _muinf(), _LAM_OFF], off and ztor,
             "lambda off the circle, z torsion"),
            ([tw, _pp("lambda", "nontorsion"), _LAM_CIRC], circ and not ztor,
             "lambda on the circle, z not torsion"),
            ([_pp("lambda"), _muinf(), _LAM_CIRC], circ and ztor,
             "lambda on the circle, z torsion"),
        ]

    def samples(self) -> list[dict]:
        return [
            {"t": _sym("t"), "z": _sym("z"), "lambda": _sym("lam")},
            {"t": _sym("t"), "z": root_of_unity(1, 3),
             "lambda": _sym("lam", True)},
        ]

    def conjugation(self, shift: int):
        a, d, f, b, e = self
        return elt(d=shift), self._replace(b=b - a * shift, e=e + f * shift)


class _Case20(RankCase, namedtuple("_Case20", "a b e f1 b1 e1")):
    """(2, 0): two level-1 generators along the outer axes and no level-2
    layer beyond the centre."""

    ranks, coords = (2, 0), ("t", "s")
    nonzero = ("a", "f1")

    @_kept
    def generators(self) -> tuple[Elt, ...]:
        return (elt(a=self.a, b=self.b, e=self.e),
                elt(f=self.f1, b=self.b1, e=self.e1))

    @classmethod
    def shape(cls, moved: Subgroup, canon) -> _Case20:
        # level-1 pivots other than the outer axes would give a non-central
        # commutator, so the pivots are (0, 2) and p2 is 0
        (a, x, y), (_, p2, f1) = moved.level1_rows
        if x or y or p2:
            raise CaseStructureError(
                "violates case structure: the two level-1 directions are "
                "not the pure outer axes")
        (b, e), (b1, e1) = canon
        return cls(a, b, e, f1, b1, e1)

    @_kept
    def subset(self) -> str:
        a, b, e, f1, b1, e1 = self
        if a == 0:
            raise NoSubsetError("no subset: requires a != 0")
        if f1 == 0:
            raise NoSubsetError("no subset: requires f' != 0")
        if a * e1 + f1 * b != 0:
            raise NoSubsetError("no subset: requires a*e' + f'*b = 0")
        if _gcd(a, b, e) != 1:
            raise NoSubsetError("no subset: requires gcd(a, b, e) = 1")
        if _gcd(f1, b1, e1) != 1:
            raise NoSubsetError("no subset: requires gcd(f', b', e') = 1")
        return "S"

    conditions = _Case11.conditions  # the central value off torsion

    def normalizer(self) -> list[Elt]:
        return [elt(b=1), elt(e=1)]

    def action(self, gi: int, v: dict):
        t, s, lam = v["t"], v["s"], v["lambda"]
        if gi == 0:
            return [t, s * lam ** self.f1]
        return [t * lam ** (-self.a), s]

    def printed(self, gi: int, v: dict):
        t, s, lam = v["t"], v["s"], v["lambda"]
        if gi == 0:
            return ("displayed form attaches the lambda^f' factor to the "
                    "first generator instead of the second",
                    [t * lam ** self.f1, s])
        return ("displayed form attaches the lambda^-a factor to the second "
                "generator instead of the first", [t, s * lam ** (-self.a)])

    def stratum_rows(self, v: dict) -> list:
        wf, wa = _mono(("lambda", self.f1)), _mono(("lambda", self.a))
        return _lambda_rows(v["lambda"].modulus_class(),
                            lambda fib: [fib(wf), fib(wa)])

    def samples(self) -> list[dict]:
        return [
            {"t": _sym("t"), "s": _sym("s"), "lambda": _sym("lam")},
            {"t": _sym("t", True), "s": _sym("s"), "lambda": _sym("lam", True)},
        ]

    def conjugation(self, shift: int):
        return elt(d=shift), self._replace(b=self.b - self.a * shift,
                                           e1=self.e1 + self.f1 * shift)


class _Case21(RankCase, namedtuple("_Case21", "a e d1 e1")):
    """(2, 1): the two leading level-1 axes over the first level-2 axis."""

    ranks, coords = (2, 1), ("t", "r", "z")
    nonzero = ("a", "d1")

    k1 = property(lambda self: _gcd(self.a, self.e))
    k2 = property(lambda self: _gcd(self.d1, self.e1))

    @_kept
    def generators(self) -> tuple[Elt, ...]:
        return (elt(a=self.a, e=self.e), elt(d=self.d1, e=self.e1), elt(b=1))

    @classmethod
    def shape(cls, moved: Subgroup, canon) -> _Case21:
        rows1 = moved.level1_rows
        if _pivot_cols(rows1) != (0, 1):
            raise CaseStructureError(
                "violates case structure: the level-1 lattice does not "
                "have the two leading axes as pivots")
        (a, x, y), (_, d1, z) = rows1
        if x or y or z:
            raise CaseStructureError(
                "violates case structure: the level-1 rows are not the "
                "pure leading axes")
        if not _lattice_matches(moved, [(1, 0)]):
            raise CaseStructureError(
                "violates case structure: the level-2 lattice is not the "
                "first coordinate axis")
        (_, e), (_, e1) = canon
        return cls(a, e, d1, e1)

    @_kept
    def subset(self) -> str:
        if self.a == 0:
            raise NoSubsetError("no subset: requires a != 0")
        if self.d1 == 0:
            raise NoSubsetError("no subset: requires d' != 0")
        return "S1" if self.k1 == 1 and self.k2 == 1 else "S2"

    def distinguished(self, z: UnitValue, lam: UnitValue) -> UnitValue:
        """The root of unity whose exact order k1*k2 subset S2 requires."""
        k = self.k1 * self.k2
        return z ** _div(self.a * self.d1, k) * lam ** _div(self.a * self.e1, k)

    def conditions(self, v: dict, chi: Character) -> list[dict]:
        conds = [_central_free(v), _kills_commutator(chi, self.generators)]
        if self.subset == "S2":
            k = self.k1 * self.k2
            w0 = self.distinguished(v["z"], v["lambda"])
            conds.append(_cond(
                f"distinguished root of unity has exact order {k}",
                w0.value_order() == k, str(w0)))
        return conds

    def normalizer(self) -> list[Elt]:
        return [elt(e=1)]

    def action(self, gi: int, v: dict):
        return [v["t"] * v["lambda"] ** (-self.a), v["r"], v["z"]]

    def stratum_rows(self, v: dict) -> list:
        wa = _mono(("lambda", self.a))
        return _lambda_rows(v["lambda"].modulus_class(), lambda fib: [
            fib(wa), _cstar(), _mun(self.a * self.d1)])

    def relations(self) -> list:
        a, e, d1, e1 = self
        gens = self.generators
        return [("commutator of the two level-1 generators",
                 commutator(gens[0], gens[1]),
                 lambda v: v["z"] ** (a * d1) * v["lambda"] ** (a * e1),
                 None)]

    def samples(self) -> list[dict]:
        a, e, d1, e1 = self
        out = []
        for j, circ in iproduct(range(abs(a * d1) + 1), (False, True)):
            lam = _sym("lam", circ)
            z = _torsion_solution(a * d1, lam ** (-a * e1), j)
            if (self.subset == "S2" and self.distinguished(z, lam).value_order()
                    != self.k1 * self.k2):
                continue
            out.append({"t": _sym("t"), "r": _sym("r"), "z": z, "lambda": lam})
            if len(out) >= 3:
                break
        return out

    def conjugation(self, shift: int):
        return elt(f=shift), self._replace(e1=self.e1 - self.d1 * shift)

    def move_candidates(self, vals: dict):
        a, e, d1, e1 = self
        t, r, z, lam = vals["t"], vals["r"], vals["z"], vals["lambda"]
        for m in intlin.divisors(self.k1)[1:]:
            p2 = self._make((a // m, e // m, d1 * m, e1 * m))
            for root in t.roots(m):
                yield (p2, {"t": root, "r": r ** m, "z": z, "lambda": lam},
                       f"root extraction of order {m} on the first generator")
        for m in intlin.divisors(self.k2)[1:]:
            p2 = self._make((a * m, e * m, d1 // m, e1 // m))
            for root in r.roots(m):
                yield (p2, {"t": t ** m, "r": root, "z": z, "lambda": lam},
                       f"root extraction of order {m} on the second generator")


class _Case12(RankCase, namedtuple("_Case12", "a d f b e b1 e1")):
    """(1, 2): one level-1 generator over a full-rank level-2 lattice."""

    ranks, coords = (1, 2), ("t", "z", "w")
    residues = (("b", "b1"), ("e", "e1"))
    nonzero = ("d",)

    # the exponents of the normalizer generators elt(d=d1_) and
    # elt(f=f1_) outside subset A
    d1_ = property(lambda self: _lcm(_order(self.a, self.b1),
                                     _order(self.f, self.e1)))
    f1_ = property(lambda self: _order(self.d, self.e1))

    @_kept
    def generators(self) -> tuple[Elt, ...]:
        return (elt(a=self.a, d=self.d, f=self.f, b=self.b, e=self.e),
                elt(b=self.b1), elt(e=self.e1))

    @classmethod
    def shape(cls, moved: Subgroup, canon) -> _Case12:
        (a, d, f) = moved.level1_rows[0]
        b1, e1 = _split_level2(moved)
        (b, e) = canon[0]
        return cls(a, d, f, b, e, b1, e1)

    @_kept
    def subset(self) -> str:
        a, d, f, b, e, b1, e1 = self
        if self == (0, 1, 0, 0, 0, 1, 1):
            return "A"
        if d == 0:
            raise NoSubsetError("no subset: requires d != 0")
        if a == 0 and f == 0:
            raise NoSubsetError("no subset: only (0, 1, 0, 0, 0, 1, 1) is "
                                "admissible with a = f = 0")
        if a != 0 and f != 0:
            if b1 == 0 or e1 == 0:
                raise NoSubsetError("no subset: requires b', e' != 0")
            if abs(b) >= abs(b1) or abs(e) >= abs(e1):
                raise NoSubsetError(
                    "no subset: requires |b| < |b'| and |e| < |e'|")
            return "S1"
        if a != 0:  # f == 0
            if b1 != 1:
                raise NoSubsetError("no subset: requires b' = 1 when f = 0")
            if b != 0:
                raise NoSubsetError("no subset: requires b = 0 when f = 0")
            if e1 == 0 or abs(e) >= abs(e1):
                raise NoSubsetError("no subset: requires |e| < |e'|, e' != 0")
            return "S2"
        # a == 0, f != 0
        if e1 != 1:
            raise NoSubsetError("no subset: requires e' = 1 when a = 0")
        if e != 0:
            raise NoSubsetError("no subset: requires e = 0 when a = 0")
        if b1 == 0 or abs(b) >= abs(b1):
            raise NoSubsetError("no subset: requires |b| < |b'|, b' != 0")
        return "S3"

    def conditions(self, v: dict, chi: Character) -> list[dict]:
        lam, z, w = v["lambda"], v["z"], v["w"]
        if self.subset == "A":
            free = not lam.is_root_of_unity
            generic = not z.is_root_of_unity and not w.is_root_of_unity
            return [_cond("central value off torsion, or both level-2 values "
                          "off torsion", free or generic)]
        nu = lam.value_order()
        conds = [_central_finite(lam, nu)]
        if nu is not None:
            conds.append(_cond("b' matches the central order against f",
                               abs(self.b1) == _order(self.f, nu),
                               f"order {nu}"))
            conds.append(_cond("e' matches the central order against a",
                               abs(self.e1) == _order(self.a, nu),
                               f"order {nu}"))
        conds.append(_cond("first level-2 value is not a root of unity",
                           not z.is_root_of_unity))
        conds.append(_cond("second level-2 value is not a root of unity",
                           not w.is_root_of_unity))
        return conds

    def normalizer(self) -> list[Elt]:
        if self.subset == "A":
            return [elt(a=1), elt(f=1)]
        return [elt(d=self.d1_), elt(f=self.f1_)]

    def action(self, gi: int, v: dict):
        a, d, f, b, e, b1, e1 = self
        t, z, w, lam = v["t"], v["z"], v["w"], v["lambda"]
        if self.subset == "A":
            if gi == 0:
                return [t * z, z, w * lam]
            return [t * w ** (-1), z * lam ** (-1), w]
        if self.subset == "S3":
            return None  # mirrored, computed from first principles
        d1_, f1_ = self.d1_, self.f1_
        if gi == 0:
            return [t * z ** (-_div(a * d1_, b1)) * w ** _div(f * d1_, e1),
                    z, w]
        return [t * w ** (-_div(f1_ * d, e1)) * lam ** (-b * f1_),
                z * lam ** (-b1 * f1_), w]

    def stratum_rows(self, v: dict) -> list:
        a, d, f, b, e, b1, e1 = self
        lam_cls = v["lambda"].modulus_class()
        ztor, wtor = v["z"].is_root_of_unity, v["w"].is_root_of_unity
        if self.subset != "A":
            d1_, f1_ = self.d1_, self.f1_
            u = _mono(("z", -_div(a * d1_, b1)), ("w", _div(f * d1_, e1)))
            vv = _mono(("w", _div(f1_ * d, e1)), ("lambda", b * f1_))
            return [([_tt(u, vv), _cstar("nontorsion"), _cstar("nontorsion"),
                      _mun(_gcd(a * e1, f * b1))],
                     lam_cls == "torsion" and not ztor and not wtor,
                     "lambda torsion, z and w not torsion")]
        tw = _tt("z", "w")
        rows = []
        for zt, wt, first, tail in ((False, False, tw, "z and w not torsion"),
                                    (False, True, _ell("z"), "w torsion only"),
                                    (True, False, _ell("w"), "z torsion only"),
                                    (True, True, _cstar(), "z and w torsion")):
            kinds = ["torsion" if zt else "nontorsion",
                     "torsion" if wt else "nontorsion"]
            rows += _lambda_rows(
                lam_cls, lambda fib: [first] + [fib("lambda", k) for k in kinds],
                (ztor, wtor) == (zt, wt), ", " + tail)
        return rows + [([tw, _cstar("nontorsion"), _cstar("nontorsion"), _muinf()],
                        lam_cls == "torsion",
                        "lambda torsion (z, w forced non-torsion)")]

    def central_orders(self, bound: int = 2000):
        # b' and e' are orders modulo nu, so both divide nu
        a, f, b1, e1 = self.a, self.f, self.b1, self.e1
        cap = min(bound, abs(b1 * e1) * max(abs(a), 1) * max(abs(f), 1))
        step = _lcm(b1, e1)  # 0 if one is 0: no order is 0, so no nu
        return (nu for nu in (range(step, cap + 1, step) if step else ())
                if abs(b1) == _order(f, nu) and abs(e1) == _order(a, nu))

    def samples(self) -> list[dict]:
        if self.subset == "A":
            return [
                {"t": _sym("t"), "z": _sym("z"), "w": _sym("w"),
                 "lambda": _sym("lam")},
                {"t": _sym("t"), "z": _sym("z"), "w": _sym("w"),
                 "lambda": root_of_unity(1, 5)},
            ]
        return [{"t": _sym("t"), "z": _sym("z"), "w": _sym("w"),
                 "lambda": root_of_unity(1, nu)}
                for nu in islice(self.central_orders(), 2)]

    def move_candidates(self, vals: dict):
        if self.subset == "A":
            return
        a, d, f, b, e, b1, e1 = self
        t, z, w, lam = vals["t"], vals["z"], vals["w"], vals["lambda"]
        if (b, e) != (0, 0):
            t2 = t * z ** Fraction(-b, b1) * w ** Fraction(-e, e1)
            yield (self._replace(b=0, e=0),
                   {"t": t2, "z": z, "w": w, "lambda": lam},
                   "clearing the level-2 residues of the first generator")
        for m in intlin.divisors(_gcd(a, d, f))[1:]:
            # adjust the residues so the m-th root closes over the lattice
            a2, d2, f2 = a // m, d // m, f // m
            bshift = (m * (m - 1) // 2) * a2 * d2
            eshift = (m * (m - 1) // 2) * d2 * f2
            for beta in range(abs(b1)):
                if (m * beta + bshift - b) % b1 if b1 else (m * beta + bshift - b):
                    continue
                for eps in range(abs(e1)):
                    if (m * eps + eshift - e) % e1 if e1 else (m * eps + eshift - e):
                        continue
                    qb = _div(m * beta + bshift - b, b1)
                    qe = _div(m * eps + eshift - e, e1)
                    for root in (t * z ** qb * w ** qe).roots(m):
                        yield (self._make((a2, d2, f2, beta, eps, b1, e1)),
                               {"t": root, "z": z, "w": w, "lambda": lam},
                               f"root extraction of order {m} on the "
                               "level-1 generator")
        for m in intlin.divisors(b1)[1:]:
            for root in z.roots(m):
                yield (self._replace(b1=b1 // m),
                       {"t": t, "z": root, "w": w, "lambda": lam},
                       f"root extraction of order {m} on the first level-2 "
                       "generator")
        for m in intlin.divisors(e1)[1:]:
            for root in w.roots(m):
                yield (self._replace(e1=e1 // m),
                       {"t": t, "z": z, "w": root, "lambda": lam},
                       f"root extraction of order {m} on the second level-2 "
                       "generator")


class _Case22(RankCase, namedtuple("_Case22", "a f b e d1 f1 b1 e1 b2 e2")):
    """(2, 2): two level-1 generators over a full-rank level-2 lattice."""

    ranks, coords = (2, 2), ("t", "s", "z", "w")
    residues = (("b", "b2"), ("e", "e2"), ("b1", "b2"), ("e1", "e2"))

    # ft, at, dt: the normalizer exponents of subsets S1/S2, S3 and S4;
    # the character is z**m1 * w**m2 * lambda**cexp on the commutator of
    # the level-1 generators; nn is the order of the central pairing
    ft = property(lambda self: _order(self.d1, self.e2))
    at = property(lambda self: _order(self.d1, self.b2))
    dt = property(lambda self: _lcm(_order(self.a, self.b2),
                                    _order(self.f1, self.e2)))
    cexp = property(lambda self: self.a * self.e1 + self.b * self.f1
                    - self.b1 * self.f - self.a * self.d1 * self.f
                    - self.a * self.d1 * self.f1)
    m1 = property(lambda self: _div(self.a * self.d1, self.b2))
    m2 = property(lambda self: -_div(self.d1 * self.f, self.e2))
    nn = property(lambda self: _gcd(self.f1 * self.b2, self.a * self.e2,
                                    self.f * self.b2))

    @_kept
    def generators(self) -> tuple[Elt, ...]:
        return (elt(a=self.a, f=self.f, b=self.b, e=self.e),
                elt(d=self.d1, f=self.f1, b=self.b1, e=self.e1),
                elt(b=self.b2), elt(e=self.e2))

    @classmethod
    def shape(cls, moved: Subgroup, canon) -> _Case22:
        b2, e2 = _split_level2(moved)
        rows1 = moved.level1_rows
        piv = _pivot_cols(rows1)
        if piv == (0, 1):
            (a, x, f), (_, d1, f1) = rows1
            if x:
                raise CaseStructureError(
                    "violates case structure: the leading level-1 row has "
                    "a diagonal-gap component")
            (b, e), (b1, e1) = canon
            return cls(a, f, b, e, d1, f1, b1, e1, b2, e2)
        if piv == (0, 2):
            (a, x, y), (_, _, f1) = rows1
            if x or y:
                raise CaseStructureError(
                    "violates case structure: the leading level-1 row is "
                    "not a pure axis")
            (b, e), (b1, e1) = canon
            return cls(a, 0, b, e, 0, f1, b1, e1, b2, e2)
        # the HNF of a rank-2 lattice has two pivots: the last pattern (1, 2)
        (_, d1, z), (_, _, f) = rows1
        if z:
            raise CaseStructureError(
                "violates case structure: the middle level-1 row has "
                "a trailing component")
        (b1, e1), (b, e) = canon
        return cls(0, f, b, e, d1, 0, b1, e1, b2, e2)

    @_kept
    def subset(self) -> str:
        a, f, b, e, d1, f1, b1, e1, b2, e2 = self
        if a != 0 and f != 0 and d1 != 0 and f1 != 0:
            if b2 == 0 or e2 == 0:
                raise NoSubsetError("no subset: requires b'', e'' != 0")
            if d1 * a % b2 or d1 * f % e2:
                raise NoSubsetError(
                    "no subset: requires b'' | d'*a and e'' | d'*f")
            if max(abs(b), abs(b1)) >= abs(b2) or max(abs(e), abs(e1)) >= abs(e2):
                raise NoSubsetError("no subset: requires |b|, |b'| < |b''| "
                                    "and |e|, |e'| < |e''|")
            return "S1"
        if a != 0 and d1 != 0 and f == 0 and f1 == 0:
            if b2 != 1 or b != 0 or b1 != 0:
                raise NoSubsetError("no subset: requires b'' = 1 and "
                                    "b = b' = 0 when f = f' = 0")
            if e2 == 0 or max(abs(e), abs(e1)) >= abs(e2):
                raise NoSubsetError(
                    "no subset: requires |e|, |e'| < |e''|, e'' != 0")
            return "S2"
        if a == 0 and f != 0 and d1 != 0 and f1 == 0:
            if e2 != 1 or e != 0 or e1 != 0:
                raise NoSubsetError("no subset: requires e'' = 1 and "
                                    "e = e' = 0 when a = f' = 0")
            if b2 == 0 or max(abs(b), abs(b1)) >= abs(b2):
                raise NoSubsetError(
                    "no subset: requires |b|, |b'| < |b''|, b'' != 0")
            return "S3"
        if a != 0 and f1 != 0 and d1 == 0 and f == 0:
            if b2 == 0 or e2 == 0:
                raise NoSubsetError("no subset: requires b'', e'' != 0")
            if max(abs(b), abs(b1)) >= abs(b2) or max(abs(e), abs(e1)) >= abs(e2):
                raise NoSubsetError("no subset: requires |b|, |b'| < |b''| "
                                    "and |e|, |e'| < |e''|")
            return "S4"
        raise NoSubsetError(
            "no subset: level-1 zero pattern matches none of the four "
            "admissible degenerations (need a,f,d',f' all nonzero; or "
            "f = f' = 0; or a = f' = 0; or d' = f = 0)")

    def conditions(self, v: dict, chi: Character) -> list[dict]:
        lam = v["lambda"]
        nu = lam.value_order()
        conds = [_central_finite(lam, nu)]
        if nu is not None:
            conds.append(_cond(
                "b'' matches the central order against (f, f')",
                abs(self.b2) == _lcm(_order(self.f, nu), _order(self.f1, nu)),
                f"order {nu}"))
            conds.append(_cond("e'' matches the central order against a",
                               abs(self.e2) == _order(self.a, nu),
                               f"order {nu}"))
        conds.append(_kills_commutator(chi, self.generators))
        conds.append(_cond("level-2 values are not both torsion",
                           not (v["z"].is_root_of_unity
                                and v["w"].is_root_of_unity)))
        return conds

    def normalizer(self) -> list[Elt]:
        if self.subset in ("S1", "S2"):
            return [elt(f=self.ft)]
        if self.subset == "S3":
            return [elt(a=self.at)]
        return [elt(d=self.dt, f=1)]  # S4

    def action(self, gi: int, v: dict):
        a, f, b, e, d1, f1, b1, e1, b2, e2 = self
        t, s, z, w, lam = v["t"], v["s"], v["z"], v["w"], v["lambda"]
        if self.subset in ("S1", "S2"):
            ft = self.ft
            return [t * lam ** (-b * ft),
                    s * w ** (-_div(d1 * ft, e2)) * lam ** (-b1 * ft),
                    z * lam ** (-b2 * ft), w]
        if self.subset == "S3":
            return None  # mirrored, computed from first principles
        dt = self.dt
        return [t * z ** (-_div(a * dt, b2)) * lam ** (a * dt - b),
                s * w ** _div(f1 * dt, e2) * lam ** (-b1),
                z * lam ** (-b2), w]

    def printed(self, gi: int, v: dict):
        if self.subset != "S4":
            return None
        return ("displayed form omits the central factors and reverses the "
                "w-exponent sign",
                [v["t"] * v["z"] ** (-_div(self.a * self.dt, self.b2)),
                 v["s"] * v["w"] ** (-_div(self.f1 * self.dt, self.e2)),
                 v["z"], v["w"]])

    def stratum_rows(self, v: dict) -> list:
        a, f, b, e, d1, f1, b1, e1, b2, e2 = self
        lam = v["lambda"]
        zc, wc = v["z"].modulus_class(), v["w"].modulus_class()
        if self.subset == "S1":
            sq = _mono(("w", _div(d1 * self.ft, e2)))
            return [([_cstar(), _ell(sq), _curve(), _mun(self.nn)],
                     wc == "off_circle", "w off the circle"),
                    ([_cstar(), _pp(sq), _curve(singular=True), _mun(self.nn)],
                     wc == "circle_free", "w on the circle non-torsion")]
        if self.subset == "S2":
            sq = _mono(("w", _div(d1 * self.ft, e2)))
            n2v = 0
            if lam.is_root_of_unity:
                n2v = abs(self.m1) * (lam ** (a * e1)).value_order()
            return [([_cstar(), _ell(sq), _mun(n2v), _cstar("off_circle"),
                      _mun(a * e2)], wc == "off_circle", "w off the circle"),
                    ([_cstar(), _pp(sq), _mun(n2v), _cstar("circle_nontorsion"),
                      _mun(a * e2)], wc == "circle_free",
                     "w on the circle non-torsion")]
        if self.subset == "S3":
            tq = _mono(("z", _div(d1 * self.at, b2)))
            n3v = 0
            if lam.is_root_of_unity:
                n3v = abs(self.m2) * (lam ** (f * b1)).value_order()
            return [([_cstar(), _ell(tq), _cstar("off_circle"), _mun(n3v),
                      _mun(f * b2)], zc == "off_circle", "z off the circle"),
                    ([_cstar(), _pp(tq), _cstar("circle_nontorsion"), _mun(n3v),
                      _mun(f * b2)], zc == "circle_free",
                     "z on the circle non-torsion")]
        # S4
        zq = _mono(("z", _div(a * self.dt, b2)))
        wq = _mono(("w", _div(f1 * self.dt, e2)))
        tslot = {"off_circle": _ell(zq), "circle_free": _pp(zq),
                 "torsion": _cstar()}
        sslot = {"off_circle": _ell(wq), "circle_free": _pp(wq),
                 "torsion": _cstar()}
        zslot = {"off_circle": _cstar("off_circle"),
                 "circle_free": _cstar("circle_nontorsion"),
                 "torsion": _muinf()}
        combos = [("off_circle", "off_circle"), ("circle_free", "off_circle"),
                  ("off_circle", "circle_free"), ("circle_free", "circle_free"),
                  ("torsion", "off_circle"), ("off_circle", "torsion"),
                  ("torsion", "circle_free"), ("circle_free", "torsion")]
        names = {"off_circle": "off the circle",
                 "circle_free": "on the circle non-torsion",
                 "torsion": "torsion"}
        return [([tslot[zk], sslot[wk], zslot[zk], zslot[wk], _mun(self.nn)],
                 zc == zk and wc == wk, f"z {names[zk]}, w {names[wk]}")
                for zk, wk in combos]

    def relations(self) -> list:
        m1, m2, cexp, gens = self.m1, self.m2, self.cexp, self.generators
        out = [("commutator of the two level-1 generators",
                commutator(gens[0], gens[1]),
                lambda v: v["z"] ** m1 * v["w"] ** m2 * v["lambda"] ** cexp,
                lambda v: v["z"] ** (-m1) * v["w"] ** m2 * v["lambda"] ** cexp)]
        if self.subset == "S4":
            out.append((
                "commutator of the first generator with the last level-2 one",
                commutator(gens[0], gens[3]),
                lambda v: v["lambda"] ** (self.a * self.e2), None))
            out.append((
                "commutator of the second generator with the first level-2 one",
                commutator(gens[1], gens[2]),
                lambda v: v["lambda"] ** (-self.f1 * self.b2), None))
        return out

    def central_orders(self, bound: int = 2000):
        # b'' and e'' are (lcms of) orders modulo nu, so both divide nu
        a, f, f1, b2, e2 = self.a, self.f, self.f1, self.b2, self.e2
        cap = min(bound, abs(b2 * e2) * max(abs(a), 1)
                  * max(abs(f), 1) * max(abs(f1), 1))
        step = _lcm(b2, e2)  # 0 if one is 0: no order is 0, so no nu
        return (nu for nu in (range(step, cap + 1, step) if step else ())
                if abs(b2) == _lcm(_order(f, nu), _order(f1, nu))
                and abs(e2) == _order(a, nu))

    def samples(self) -> list[dict]:
        m1, m2, subset = self.m1, self.m2, self.subset
        out = []
        for nu in islice(self.central_orders(), 2):
            lam = root_of_unity(1, nu)
            target = lam ** (-self.cexp)
            for j in (0, 1):
                if subset == "S1":
                    zv = _sym("z")
                    wv = (zv ** Fraction(-m1, m2) * target ** Fraction(1, m2)
                          * root_of_unity(j, abs(m2)))
                elif subset == "S2":
                    zv = _torsion_solution(m1, target, j)
                    wv = _sym("w")
                elif subset == "S3":
                    wv = _torsion_solution(m2, target, j)
                    zv = _sym("z")
                else:  # S4: commutator is central
                    if not target.is_one:
                        break  # no valid character for this order
                    zv = _sym("z") if j == 0 else root_of_unity(1, 7)
                    wv = _sym("w")
                out.append({"t": _sym("t"), "s": _sym("s"), "z": zv, "w": wv,
                            "lambda": lam})
        return out

    def move_candidates(self, vals: dict):
        a, f, b, e, d1, f1, b1, e1, b2, e2 = self
        nn = self.nn
        inv = (a * e1 + b * f1 - b1 * f) % nn if nn else None
        res_b = range(-abs(b2) + 1, abs(b2))
        res_e = range(-abs(e2) + 1, abs(e2))
        for bt, b1t, e1t in iproduct(res_b, res_b, res_e):
            if (bt, b1t, e1t) == (b, b1, e1):
                continue
            if nn and (a * e1t + bt * f1 - b1t * f) % nn != inv:
                continue
            for et in res_e:
                yield (self._replace(b=bt, e=et, b1=b1t, e1=e1t), dict(vals),
                       "residue replacement preserving the central pairing")


class _Case32(RankCase, namedtuple("_Case32",
                                   "a b e d1 b1 e1 f2 b2 e2 b3 e3")):
    """(3, 2): finite index, three diagonal level-1 generators over a
    full-rank level-2 lattice."""

    ranks, coords = (3, 2), ("t", "r", "s", "z", "w")
    scanned = True
    residues = (("b", "b3"), ("e", "e3"), ("b1", "b3"), ("e1", "e3"),
                ("b2", "b3"), ("e2", "e3"))
    nonzero = ("a", "d1", "f2")

    # n3 is the central order; z**m1 and w**m2 carry the commutators of
    # the consecutive level-1 generators
    n3 = property(lambda self: _gcd(self.f2 * self.b3,
                                    self.a * self.e2 + self.b * self.f2,
                                    self.a * self.e3))
    m1 = property(lambda self: _div(self.a * self.d1, self.b3))
    m2 = property(lambda self: _div(self.d1 * self.f2, self.e3))

    @_kept
    def generators(self) -> tuple[Elt, ...]:
        return (elt(a=self.a, b=self.b, e=self.e),
                elt(d=self.d1, b=self.b1, e=self.e1),
                elt(f=self.f2, b=self.b2, e=self.e2), elt(b=self.b3),
                elt(e=self.e3))

    @classmethod
    def shape(cls, moved: Subgroup, canon) -> _Case32:
        b3, e3 = _split_level2(moved)
        (a, x, y), (_, d1, z), (_, _, f2) = moved.level1_rows
        if x or y or z:
            raise CaseStructureError(
                "violates case structure: the level-1 lattice is not "
                "diagonal")
        (b, e), (b1, e1), (b2, e2) = canon
        return cls(a, b, e, d1, b1, e1, f2, b2, e2, b3, e3)

    @_kept
    def subset(self) -> str:
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = self
        for name, val in (("a", a), ("d'", d1), ("f''", f2), ("b'''", b3),
                          ("e'''", e3)):
            if val == 0:
                raise NoSubsetError(f"no subset: requires {name} != 0")
        if a * d1 % b3 or d1 * f2 % e3:
            raise NoSubsetError(
                "no subset: requires b''' | a*d' and e''' | d'*f''")
        if max(abs(b), abs(b1), abs(b2)) >= abs(b3):
            raise NoSubsetError("no subset: requires |b|, |b'|, |b''| < |b'''|")
        if max(abs(e), abs(e1), abs(e2)) >= abs(e3):
            raise NoSubsetError("no subset: requires |e|, |e'|, |e''| < |e'''|")
        return "S"

    def level2_orders(self, lam: UnitValue) -> tuple[int, int]:
        """The exact orders of the two level-2 values that a torsion
        central value forces."""
        return (abs(self.m1) * (lam ** (self.a * self.e1)).value_order(),
                abs(self.m2) * (lam ** (self.b1 * self.f2)).value_order())

    def conditions(self, v: dict, chi: Character) -> list[dict]:
        lam = v["lambda"]
        nu = lam.value_order()
        conds = [_central_finite(lam, nu)]
        if nu is not None:
            n1, n2 = self.level2_orders(lam)
            conds.append(_cond(f"first level-2 value has exact order {n1}",
                               v["z"].value_order() == n1))
            conds.append(_cond(f"second level-2 value has exact order {n2}",
                               v["w"].value_order() == n2))
            conds.append(_cond(f"central value has exact order {self.n3}",
                               nu == self.n3))
        return conds

    def normalizer(self) -> list[Elt]:
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = self
        dt = _lcm(_order(a, b3), _order(f2, e3))
        return [elt(b=1), elt(e=1), elt(d=dt), elt(a=_order(d1, b3)),
                elt(f=_order(d1, e3))]

    def stratum_rows(self, v: dict) -> list:
        ok = v["lambda"].modulus_class() == "torsion"
        n1, n2 = self.level2_orders(v["lambda"]) if ok else (0, 0)
        return [([_cstar(), _cstar(), _cstar(), _mun(n1), _mun(n2),
                  _mun(self.n3)], ok, "central value torsion")]

    def relations(self) -> list:
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = self
        m1, m2, gens = self.m1, self.m2, self.generators
        return [
            ("commutator of the first two generators",
             commutator(gens[0], gens[1]),
             lambda v: v["z"] ** m1 * v["lambda"] ** (a * e1),
             lambda v: v["z"] ** (-m1) * v["lambda"] ** (-a * e1)),
            ("commutator of the last two level-1 generators",
             commutator(gens[1], gens[2]),
             lambda v: v["w"] ** m2 * v["lambda"] ** (b1 * f2), None),
            ("commutator of the outer level-1 generators",
             commutator(gens[0], gens[2]),
             lambda v: v["lambda"] ** (a * e2 + b * f2),
             lambda v: v["lambda"] ** (-(a * e2 + b * f2))),
            ("commutator of the third generator with the first level-2 one",
             commutator(gens[2], gens[3]),
             lambda v: v["lambda"] ** (-f2 * b3),
             lambda v: v["lambda"] ** (f2 * b3)),
            ("commutator of the first generator with the second level-2 one",
             commutator(gens[0], gens[4]),
             lambda v: v["lambda"] ** (a * e3),
             lambda v: v["lambda"] ** (-a * e3)),
        ]

    def samples(self) -> list[dict]:
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = self
        n3, m1, m2 = self.n3, self.m1, self.m2
        out = []
        for nu in ([n3] if n3 == 1 else [n3, 1]):
            lam = root_of_unity(1, nu)
            if not (lam ** (a * e2 + b * f2)).is_one:
                continue
            for j in (0, 1):
                zv = _torsion_solution(m1, lam ** (-a * e1), j)
                wv = _torsion_solution(m2, lam ** (-b1 * f2), j)
                out.append({"t": _sym("t"), "r": _sym("r"), "s": _sym("s"),
                            "z": zv, "w": wv, "lambda": lam})
        return out

    def move_candidates(self, vals: dict):
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = self
        n3 = self.n3
        res_b = range(-abs(b3) + 1, abs(b3))
        res_e = range(-abs(e3) + 1, abs(e3))
        for bt, e1t, b1t, e2t in iproduct(res_b, res_e, res_b, res_e):
            if (bt, e1t, b1t, e2t) == (b, e1, b1, e2):
                continue
            if n3 and ((b1t * f2 - b1 * f2) % n3 or (a * e1t - a * e1) % n3
                       or (a * e2t + bt * f2 - a * e2 - b * f2) % n3):
                continue
            for et, b2t in iproduct(res_e, res_b):
                yield (self._replace(b=bt, e=et, b1=b1t, e1=e1t, b2=b2t,
                                     e2=e2t),
                       dict(vals), "residue replacement preserving the "
                       "relations")


# ---------------------------------------------------------------------------
# the table: each rank pair's class

CASES = _Table((case.ranks, case) for case in (
    _Case11, _Case20, _Case21, _Case12, _Case22, _Case32))

RANK_PAIRS = tuple(CASES)
COORD_NAMES = {ranks: case.coords for ranks, case in CASES.items()}
