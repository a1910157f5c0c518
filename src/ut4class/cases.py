"""Case tables for the classification of irreducible finite-weight pairs.

A weight pair is a subgroup of the unitriangular group together with a
character of it.  The classification is organized by the rank pair
(r1, r2) of the subgroup: r1 is the rank of its image modulo the derived
span, r2 the rank of the level-2 layer modulo the centre.  Six rank
pairs support irreducible pairs; each comes with

  * a parameter shape: an integer tuple describing a canonical subgroup
    (``build_subgroup``) with ordered defining generators,
  * a partition of the admissible tuples into subsets by degeneration
    pattern (``subset_of``),
  * irreducibility conditions on the character (``validity``),
  * generators of the normalizer with closed-form multiplier tables
    where a closed form is tabulated (``tabulated_action``),
  * a stratum table describing the fiber of the coarse moduli space
    (``strata_table``),
  * equivalence moves: a residue-shifting conjugation move and finite
    root/residue replacement candidates (``conjugation_move``,
    ``f_move_candidates``).

Everything is exact; characters take values in the symbolic unit group
of :mod:`.characters`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterable

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
from .subgroup import Subgroup, subgroup

RANK_PAIRS = ((1, 1), (2, 0), (2, 1), (1, 2), (2, 2), (3, 2))

SUBSETS = {
    (1, 1): ("S1", "S2", "S3", "S4", "N1", "N2"),
    (2, 0): ("S",),
    (2, 1): ("S1", "S2"),
    (1, 2): ("S1", "S2", "S3", "A"),
    (2, 2): ("S1", "S2", "S3", "S4"),
    (3, 2): ("S",),
}

PARAM_LENGTH = {
    (1, 1): 5,
    (2, 0): 6,
    (2, 1): 4,
    (1, 2): 7,
    (2, 2): 10,
    (3, 2): 11,
}

# value coordinates of the defining generators, in order; the central
# value is always called "lambda"
COORD_NAMES = {
    (1, 1): ("t", "z"),
    (2, 0): ("t", "s"),
    (2, 1): ("t", "r", "z"),
    (1, 2): ("t", "z", "w"),
    (2, 2): ("t", "s", "z", "w"),
    (3, 2): ("t", "r", "s", "z", "w"),
}


class NoSubsetError(ValueError):
    """Raised when a parameter tuple belongs to no admissible subset."""


def _gcd(*xs: int) -> int:
    return math.gcd(*[abs(x) for x in xs])


def _lcm(*xs: int) -> int:
    return math.lcm(*[abs(x) for x in xs])


def _div(x: int, y: int) -> int:
    # exact integer quotient; divisibility is guaranteed by construction
    q, r = divmod(x, y)
    if r:
        raise AssertionError(f"{x} is not divisible by {y}")
    return q


def _check_length(ranks: tuple[int, int], params: Iterable[int]) -> tuple[int, ...]:
    params = tuple(int(x) for x in params)
    want = PARAM_LENGTH[ranks]
    if len(params) != want:
        raise ValueError(
            f"rank pair {ranks} takes {want} parameters, got {len(params)}")
    return params


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
# defining generators and canonical subgroups


def defining_generators(ranks: tuple[int, int], params) -> list[Elt]:
    """Ordered non-central generators of the canonical subgroup."""
    p = _check_length(ranks, params)
    if ranks == (1, 1):
        a, d, f, b, e = p
        if (a, f) == (0, 0):
            raise NoSubsetError("no subset: requires (a, f) != (0, 0)")
        n = _gcd(a, f)
        return [elt(a=a, d=d, f=f, b=b, e=e), elt(b=a // n, e=f // n)]
    if ranks == (2, 0):
        a, b, e, f1, b1, e1 = p
        return [elt(a=a, b=b, e=e), elt(f=f1, b=b1, e=e1)]
    if ranks == (2, 1):
        a, e, d1, e1 = p
        return [elt(a=a, e=e), elt(d=d1, e=e1), elt(b=1)]
    if ranks == (1, 2):
        a, d, f, b, e, b1, e1 = p
        return [elt(a=a, d=d, f=f, b=b, e=e), elt(b=b1), elt(e=e1)]
    if ranks == (2, 2):
        a, f, b, e, d1, f1, b1, e1, b2, e2 = p
        return [elt(a=a, f=f, b=b, e=e), elt(d=d1, f=f1, b=b1, e=e1),
                elt(b=b2), elt(e=e2)]
    if ranks == (3, 2):
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = p
        return [elt(a=a, b=b, e=e), elt(d=d1, b=b1, e=e1),
                elt(f=f2, b=b2, e=e2), elt(b=b3), elt(e=e3)]
    raise ValueError(f"unknown rank pair {ranks}")


def build_subgroup(ranks: tuple[int, int], params) -> Subgroup:
    """Canonical subgroup for a parameter tuple (centre included)."""
    return subgroup(defining_generators(ranks, params) + [elt(c=1)])


def case_values(ranks: tuple[int, int], params, chi: Character) -> dict[str, UnitValue]:
    """Character values on the defining generators plus the centre."""
    if chi.sub.c0 != 1:
        raise ValueError("the character's domain must contain the full centre")
    gens = defining_generators(ranks, params)
    vals = {name: evaluate(chi, g) for name, g in zip(COORD_NAMES[ranks], gens)}
    vals["lambda"] = evaluate(chi, elt(c=1))
    return vals


# ---------------------------------------------------------------------------
# subset membership


def subset_of(ranks: tuple[int, int], params) -> str:
    """Subset label of an admissible tuple; NoSubsetError otherwise."""
    p = _check_length(ranks, params)
    if ranks == (1, 1):
        return _subset_11(p)
    if ranks == (2, 0):
        return _subset_20(p)
    if ranks == (2, 1):
        return _subset_21(p)
    if ranks == (1, 2):
        return _subset_12(p)
    if ranks == (2, 2):
        return _subset_22(p)
    if ranks == (3, 2):
        return _subset_32(p)
    raise ValueError(f"unknown rank pair {ranks}")


def _subset_11(p) -> str:
    a, d, f, b, e = p
    if (a, f) == (0, 0):
        raise NoSubsetError("no subset: requires (a, f) != (0, 0)")
    n = _gcd(a, f)
    a1, f1 = a // n, f // n
    if d == 0 and f == 0:
        # normal family along the first axis
        if b != 1:
            raise NoSubsetError("no subset: requires b = 1 when d = f = 0")
        if _gcd(e, a) != 1:
            raise NoSubsetError("no subset: requires gcd(e, a) = 1 when d = f = 0")
        return "N1"
    if a == 0 and d == 0:
        if e != 1:
            raise NoSubsetError("no subset: requires e = 1 when a = d = 0")
        if _gcd(b, f) != 1:
            raise NoSubsetError("no subset: requires gcd(b, f) = 1 when a = d = 0")
        return "N2"
    if _gcd(f1 * b - a1 * e, a, d, f) != 1:
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


def _subset_20(p) -> str:
    a, b, e, f1, b1, e1 = p
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


def _subset_21(p) -> str:
    a, e, d1, e1 = p
    if a == 0:
        raise NoSubsetError("no subset: requires a != 0")
    if d1 == 0:
        raise NoSubsetError("no subset: requires d' != 0")
    k1, k2 = _gcd(a, e), _gcd(d1, e1)
    return "S1" if k1 == 1 and k2 == 1 else "S2"


def _subset_12(p) -> str:
    a, d, f, b, e, b1, e1 = p
    if p == (0, 1, 0, 0, 0, 1, 1):
        return "A"
    if d == 0:
        raise NoSubsetError("no subset: requires d != 0")
    if a == 0 and f == 0:
        raise NoSubsetError(
            "no subset: only (0, 1, 0, 0, 0, 1, 1) is admissible with a = f = 0")
    if a != 0 and f != 0:
        if b1 == 0 or e1 == 0:
            raise NoSubsetError("no subset: requires b', e' != 0")
        if abs(b) >= abs(b1) or abs(e) >= abs(e1):
            raise NoSubsetError("no subset: requires |b| < |b'| and |e| < |e'|")
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


def _subset_22(p) -> str:
    a, f, b, e, d1, f1, b1, e1, b2, e2 = p
    if a != 0 and f != 0 and d1 != 0 and f1 != 0:
        if b2 == 0 or e2 == 0:
            raise NoSubsetError("no subset: requires b'', e'' != 0")
        if d1 * a % b2 or d1 * f % e2:
            raise NoSubsetError(
                "no subset: requires b'' | d'*a and e'' | d'*f")
        if max(abs(b), abs(b1)) >= abs(b2) or max(abs(e), abs(e1)) >= abs(e2):
            raise NoSubsetError(
                "no subset: requires |b|, |b'| < |b''| and |e|, |e'| < |e''|")
        return "S1"
    if a != 0 and d1 != 0 and f == 0 and f1 == 0:
        if b2 != 1 or b != 0 or b1 != 0:
            raise NoSubsetError(
                "no subset: requires b'' = 1 and b = b' = 0 when f = f' = 0")
        if e2 == 0 or max(abs(e), abs(e1)) >= abs(e2):
            raise NoSubsetError("no subset: requires |e|, |e'| < |e''|, e'' != 0")
        return "S2"
    if a == 0 and f != 0 and d1 != 0 and f1 == 0:
        if e2 != 1 or e != 0 or e1 != 0:
            raise NoSubsetError(
                "no subset: requires e'' = 1 and e = e' = 0 when a = f' = 0")
        if b2 == 0 or max(abs(b), abs(b1)) >= abs(b2):
            raise NoSubsetError("no subset: requires |b|, |b'| < |b''|, b'' != 0")
        return "S3"
    if a != 0 and f1 != 0 and d1 == 0 and f == 0:
        if b2 == 0 or e2 == 0:
            raise NoSubsetError("no subset: requires b'', e'' != 0")
        if max(abs(b), abs(b1)) >= abs(b2) or max(abs(e), abs(e1)) >= abs(e2):
            raise NoSubsetError(
                "no subset: requires |b|, |b'| < |b''| and |e|, |e'| < |e''|")
        return "S4"
    raise NoSubsetError(
        "no subset: level-1 zero pattern matches none of the four admissible "
        "degenerations (need a,f,d',f' all nonzero; or f = f' = 0; or "
        "a = f' = 0; or d' = f = 0)")


def _subset_32(p) -> str:
    a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = p
    for name, val in (("a", a), ("d'", d1), ("f''", f2), ("b'''", b3), ("e'''", e3)):
        if val == 0:
            raise NoSubsetError(f"no subset: requires {name} != 0")
    if a * d1 % b3 or d1 * f2 % e3:
        raise NoSubsetError("no subset: requires b''' | a*d' and e''' | d'*f''")
    if max(abs(b), abs(b1), abs(b2)) >= abs(b3):
        raise NoSubsetError("no subset: requires |b|, |b'|, |b''| < |b'''|")
    if max(abs(e), abs(e1), abs(e2)) >= abs(e3):
        raise NoSubsetError("no subset: requires |e|, |e'|, |e''| < |e'''|")
    return "S"


# ---------------------------------------------------------------------------
# irreducibility conditions


def _cond(name: str, holds: bool, detail: str = "") -> dict:
    out = {"name": name, "holds": bool(holds)}
    if detail:
        out["detail"] = detail
    return out


def validity(ranks, subset: str, params, chi: Character):
    """(ok, conditions) for the pair; ok is None when the decision is by
    the finite-index scan of the top-rank case."""
    p = _check_length(ranks, params)
    v = case_values(ranks, p, chi)
    lam = v["lambda"]
    conds: list[dict] = []
    if ranks in ((1, 1), (2, 0)):
        conds.append(_cond("central value is not a root of unity",
                           not lam.is_root_of_unity, str(lam)))
    elif ranks == (2, 1):
        a, e, d1, e1 = p
        h1, h2, _ = defining_generators(ranks, p)
        conds.append(_cond("central value is not a root of unity",
                           not lam.is_root_of_unity, str(lam)))
        conds.append(_cond("character kills the commutator of the level-1 generators",
                           evaluate(chi, commutator(h1, h2)).is_one))
        if subset == "S2":
            k = _gcd(a, e) * _gcd(d1, e1)
            w0 = v["z"] ** _div(a * d1, k) * lam ** _div(a * e1, k)
            conds.append(_cond(
                f"distinguished root of unity has exact order {k}",
                w0.value_order() == k, str(w0)))
    elif ranks == (1, 2):
        a, d, f, b, e, b1, e1 = p
        if subset == "A":
            free = not lam.is_root_of_unity
            generic = (not v["z"].is_root_of_unity
                       and not v["w"].is_root_of_unity)
            conds.append(_cond(
                "central value off torsion, or both level-2 values off torsion",
                free or generic))
        else:
            nu = lam.value_order()
            conds.append(_cond("central value has finite order", nu is not None,
                               str(lam)))
            if nu is not None:
                conds.append(_cond("b' matches the central order against f",
                                   abs(b1) == _div(nu, _gcd(nu, f)),
                                   f"order {nu}"))
                conds.append(_cond("e' matches the central order against a",
                                   abs(e1) == _div(nu, _gcd(nu, a)),
                                   f"order {nu}"))
            conds.append(_cond("first level-2 value is not a root of unity",
                               not v["z"].is_root_of_unity))
            conds.append(_cond("second level-2 value is not a root of unity",
                               not v["w"].is_root_of_unity))
    elif ranks == (2, 2):
        a, f, b, e, d1, f1, b1, e1, b2, e2 = p
        h1, h2 = defining_generators(ranks, p)[:2]
        nu = lam.value_order()
        conds.append(_cond("central value has finite order", nu is not None,
                           str(lam)))
        if nu is not None:
            want_b2 = _lcm(_div(nu, _gcd(nu, f)), _div(nu, _gcd(nu, f1)))
            conds.append(_cond("b'' matches the central order against (f, f')",
                               abs(b2) == want_b2, f"order {nu}"))
            conds.append(_cond("e'' matches the central order against a",
                               abs(e2) == _div(nu, _gcd(nu, a)), f"order {nu}"))
        conds.append(_cond("character kills the commutator of the level-1 generators",
                           evaluate(chi, commutator(h1, h2)).is_one))
        conds.append(_cond("level-2 values are not both torsion",
                           not (v["z"].is_root_of_unity and v["w"].is_root_of_unity)))
    elif ranks == (3, 2):
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = p
        n3 = _gcd(f2 * b3, a * e2 + b * f2, a * e3)
        nu = lam.value_order()
        conds.append(_cond("central value has finite order", nu is not None,
                           str(lam)))
        if nu is not None:
            lam_e1 = lam ** (a * e1)
            n1 = abs(_div(d1 * a, b3)) * lam_e1.value_order()
            lam_b1 = lam ** (b1 * f2)
            n2 = abs(_div(d1 * f2, e3)) * lam_b1.value_order()
            conds.append(_cond(f"first level-2 value has exact order {n1}",
                               v["z"].value_order() == n1))
            conds.append(_cond(f"second level-2 value has exact order {n2}",
                               v["w"].value_order() == n2))
            conds.append(_cond(f"central value has exact order {n3}",
                               nu == n3))
        ok = None  # decided by the finite-index double-coset scan
        return ok, conds
    else:
        raise ValueError(f"unknown rank pair {ranks}")
    return all(c["holds"] for c in conds), conds


# ---------------------------------------------------------------------------
# normalizer generators and tabulated multiplier formulas


def normalizer_generators(ranks, subset: str, params) -> list[Elt]:
    """Generators of the normalizer modulo the subgroup itself."""
    p = _check_length(ranks, params)
    if ranks == (1, 1):
        a, d, f, b, e = p
        n = _gcd(a, f)
        a1, f1 = a // n, f // n
        if subset in ("S1", "S3", "S4"):
            return [elt(a=a1, f=-f1), elt(e=1)]
        if subset == "S2":
            return [elt(a=a1, f=-f1), elt(b=1)]
        if subset == "N1":
            return [elt(d=1), elt(e=1), elt(f=1)]
        return [elt(d=1), elt(b=1), elt(a=1)]  # N2, mirrored
    if ranks == (2, 0):
        return [elt(b=1), elt(e=1)]
    if ranks == (2, 1):
        return [elt(e=1)]
    if ranks == (1, 2):
        a, d, f, b, e, b1, e1 = p
        if subset == "A":
            return [elt(a=1), elt(f=1)]
        d1_ = _lcm(_div(abs(b1), _gcd(a, b1)), _div(abs(e1), _gcd(f, e1)))
        f1_ = _div(abs(e1), _gcd(d, e1))
        return [elt(d=d1_), elt(f=f1_)]
    if ranks == (2, 2):
        a, f, b, e, d1, f1, b1, e1, b2, e2 = p
        if subset in ("S1", "S2"):
            ft = _div(abs(e2), _gcd(d1, e2))
            return [elt(f=ft)]
        if subset == "S3":
            at = _div(abs(b2), _gcd(d1, b2))
            return [elt(a=at)]
        dt = _lcm(_div(abs(b2), _gcd(a, b2)), _div(abs(e2), _gcd(f1, e2)))
        return [elt(d=dt, f=1)]  # S4
    if ranks == (3, 2):
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = p
        dt = _lcm(_div(abs(b3), _gcd(a, b3)), _div(abs(e3), _gcd(f2, e3)))
        at = _div(abs(b3), _gcd(d1, b3))
        ft = _div(abs(e3), _gcd(d1, e3))
        return [elt(b=1), elt(e=1), elt(d=dt), elt(a=at), elt(f=ft)]
    raise ValueError(f"unknown rank pair {ranks}")


def tabulated_action(ranks, subset: str, params, gi: int, v: dict) -> list[UnitValue] | None:
    """Closed-form values of the conjugated character on the defining
    generators, for the gi-th normalizer generator; None when no closed
    form is tabulated for this subset (the conjugation is then computed
    from first principles).  The central value is always unchanged.
    """
    p = _check_length(ranks, params)
    lam = v["lambda"]
    if ranks == (1, 1):
        a, d, f, b, e = p
        n = _gcd(a, f)
        a1, f1 = a // n, f // n
        t, z = v["t"], v["z"]
        if subset in ("S1", "S2", "S3", "S4"):
            if gi == 0:
                return [t * z ** d * lam ** (a1 * e + f1 * b + (1 - n) * a1 * f1 * d),
                        z * lam ** (2 * a1 * f1)]
            return [t * lam ** (f if subset == "S2" else -a), z]
        if subset == "N1":
            if gi == 0:
                return [t * z ** (-abs(a)), z]
            if gi == 1:
                return [t * lam ** (-a), z]
            return [t * lam ** (-b), z * lam ** (-a1)]
        return None  # N2: mirrored, computed from first principles
    if ranks == (2, 0):
        a, b, e, f1, b1, e1 = p
        t, s = v["t"], v["s"]
        if gi == 0:
            return [t, s * lam ** f1]
        return [t * lam ** (-a), s]
    if ranks == (2, 1):
        a, e, d1, e1 = p
        return [v["t"] * lam ** (-a), v["r"], v["z"]]
    if ranks == (1, 2):
        a, d, f, b, e, b1, e1 = p
        t, z, w = v["t"], v["z"], v["w"]
        if subset == "A":
            if gi == 0:
                return [t * z, z, w * lam]
            return [t * w ** (-1), z * lam ** (-1), w]
        if subset == "S3":
            return None  # mirrored, computed from first principles
        d1_ = _lcm(_div(abs(b1), _gcd(a, b1)), _div(abs(e1), _gcd(f, e1)))
        f1_ = _div(abs(e1), _gcd(d, e1))
        if gi == 0:
            return [t * z ** (-_div(a * d1_, b1)) * w ** _div(f * d1_, e1), z, w]
        return [t * w ** (-_div(f1_ * d, e1)) * lam ** (-b * f1_),
                z * lam ** (-b1 * f1_), w]
    if ranks == (2, 2):
        a, f, b, e, d1, f1, b1, e1, b2, e2 = p
        t, s, z, w = v["t"], v["s"], v["z"], v["w"]
        if subset in ("S1", "S2"):
            ft = _div(abs(e2), _gcd(d1, e2))
            return [t * lam ** (-b * ft),
                    s * w ** (-_div(d1 * ft, e2)) * lam ** (-b1 * ft),
                    z * lam ** (-b2 * ft), w]
        if subset == "S3":
            return None  # mirrored, computed from first principles
        dt = _lcm(_div(abs(b2), _gcd(a, b2)), _div(abs(e2), _gcd(f1, e2)))
        return [t * z ** (-_div(a * dt, b2)) * lam ** (a * dt - b),
                s * w ** _div(f1 * dt, e2) * lam ** (-b1),
                z * lam ** (-b2), w]
    return None  # (3, 2): computed from first principles


def printed_action_variant(ranks, subset: str, params, gi: int, v: dict):
    """Alternate displayed reading where the typeset closed form differs
    from the verified one; (note, values) or None."""
    p = _check_length(ranks, params)
    lam = v["lambda"]
    if ranks == (1, 1) and subset in ("S1", "S3", "S4") and gi == 0:
        a, d, f, b, e = p
        n = _gcd(a, f)
        a1, f1 = a // n, f // n
        return ("displayed central exponent reads a'e + f'b + a'f'd; the "
                "computed one carries (1 - gcd(a, f)) on the a'f'd term",
                [v["t"] * v["z"] ** d * lam ** (a1 * e + f1 * b + a1 * f1 * d),
                 v["z"] * lam ** (2 * a1 * f1)])
    if ranks == (2, 0):
        a, b, e, f1, b1, e1 = p
        t, s = v["t"], v["s"]
        if gi == 0:
            return ("displayed form attaches the lambda^f' factor to the first "
                    "generator instead of the second", [t * lam ** f1, s])
        return ("displayed form attaches the lambda^-a factor to the second "
                "generator instead of the first", [t, s * lam ** (-a)])
    if ranks == (2, 2) and subset == "S4":
        a, f, b, e, d1, f1, b1, e1, b2, e2 = p
        t, s, z, w = v["t"], v["s"], v["z"], v["w"]
        dt = _lcm(_div(abs(b2), _gcd(a, b2)), _div(abs(e2), _gcd(f1, e2)))
        return ("displayed form omits the central factors and reverses the "
                "w-exponent sign",
                [t * z ** (-_div(a * dt, b2)), s * w ** (-_div(f1 * dt, e2)),
                 z, w])
    return None


# ---------------------------------------------------------------------------
# stratum tables


def strata_table(ranks, subset: str, params, v: dict) -> list[tuple[StratumRow, bool]]:
    """All stratum rows for the subset with the selector evaluated on the
    given character values; rows are 1-based in table order."""
    p = _check_length(ranks, params)
    lam = v["lambda"]
    lam_cls = lam.modulus_class()  # off_circle / circle_free / torsion
    out: list[tuple[StratumRow, bool]] = []

    def add(fibers, matched, selector):
        out.append((StratumRow(len(out) + 1, tuple(fibers), selector), matched))

    if ranks == (1, 1):
        a, d, f, b, e = p
        n = _gcd(a, f)
        a1, f1 = a // n, f // n
        ztor = v["z"].is_root_of_unity
        if subset in ("S1",):
            lexp = a1 * e + f1 * b + (1 - n) * a1 * f1 * d
            tw = _mono(("z", d), ("lambda", lexp))
            zq = _mono(("lambda", 2 * a1 * f1))
            g = _mono(("lambda", _gcd(lexp, a)))
            add([_tt(tw, _mono(("lambda", a))), _ell(zq, "nontorsion"), _LAM_OFF],
                lam_cls == "off_circle" and not ztor,
                "lambda off the circle, z not torsion")
            add([_tt(tw, _mono(("lambda", a))), _pp(zq, "nontorsion"), _LAM_CIRC],
                lam_cls == "circle_free" and not ztor,
                "lambda on the circle, z not torsion")
            add([_ell(g), _muinf(), _LAM_OFF],
                lam_cls == "off_circle" and ztor,
                "lambda off the circle, z torsion")
            add([_pp(g), _muinf(), _LAM_CIRC],
                lam_cls == "circle_free" and ztor,
                "lambda on the circle, z torsion")
        elif subset in ("S2", "S3"):
            lam_exp = f1 * b if subset == "S2" else a1 * e
            axis = f if subset == "S2" else a
            tw1 = _mono(("z", d), ("lambda", lam_exp))
            tw2 = _mono(("lambda", axis))
            g = _mono(("lambda", _gcd(lam_exp, axis)))
            zcls = v["z"].modulus_class()
            add([_tt(tw1, tw2), _cstar("off_circle"), _LAM_OFF],
                lam_cls == "off_circle" and zcls == "off_circle",
                "z off the circle, lambda off the circle")
            add([_tt(tw1, tw2), _cstar("circle_nontorsion"), _LAM_OFF],
                lam_cls == "off_circle" and zcls == "circle_free",
                "z on the circle non-torsion, lambda off the circle")
            add([_ell(g), _muinf(), _LAM_OFF],
                lam_cls == "off_circle" and ztor,
                "z torsion, lambda off the circle")
            add([_tt(tw1, tw2), _cstar("nontorsion"), _LAM_CIRC],
                lam_cls == "circle_free" and not ztor,
                "z not torsion, lambda on the circle")
            add([_pp(g), _muinf(), _LAM_CIRC],
                lam_cls == "circle_free" and ztor,
                "z torsion, lambda on the circle")
        elif subset == "S4":
            g = _mono(("lambda", _gcd(a1 * e + f1 * b, a)))
            zq = _mono(("lambda", 2 * a1 * f1))
            add([_ell(g), _ell(zq), _LAM_OFF], lam_cls == "off_circle",
                "lambda off the circle")
            add([_pp(g), _pp(zq), _LAM_CIRC], lam_cls == "circle_free",
                "lambda on the circle")
        else:  # N1 / N2
            axis = a if subset == "N1" else f
            tw = _tt(_mono(("z", axis)), _mono(("lambda", axis)))
            add([tw, _ell("lambda", "nontorsion"), _LAM_OFF],
                lam_cls == "off_circle" and not ztor,
                "lambda off the circle, z not torsion")
            add([_ell("lambda"), _muinf(), _LAM_OFF],
                lam_cls == "off_circle" and ztor,
                "lambda off the circle, z torsion")
            add([tw, _pp("lambda", "nontorsion"), _LAM_CIRC],
                lam_cls == "circle_free" and not ztor,
                "lambda on the circle, z not torsion")
            add([_pp("lambda"), _muinf(), _LAM_CIRC],
                lam_cls == "circle_free" and ztor,
                "lambda on the circle, z torsion")
    elif ranks == (2, 0):
        a, b, e, f1, b1, e1 = p
        add([_ell(_mono(("lambda", f1))), _ell(_mono(("lambda", a))), _LAM_OFF],
            lam_cls == "off_circle", "lambda off the circle")
        add([_pp(_mono(("lambda", f1))), _pp(_mono(("lambda", a))), _LAM_CIRC],
            lam_cls == "circle_free", "lambda on the circle")
    elif ranks == (2, 1):
        a, e, d1, e1 = p
        add([_ell(_mono(("lambda", a))), _cstar(), _mun(a * d1), _LAM_OFF],
            lam_cls == "off_circle", "lambda off the circle")
        add([_pp(_mono(("lambda", a))), _cstar(), _mun(a * d1), _LAM_CIRC],
            lam_cls == "circle_free", "lambda on the circle")
    elif ranks == (1, 2):
        a, d, f, b, e, b1, e1 = p
        if subset == "A":
            ztor = v["z"].is_root_of_unity
            wtor = v["w"].is_root_of_unity
            tw = _tt("z", "w")
            add([tw, _ell("lambda", "nontorsion"), _ell("lambda", "nontorsion"),
                 _LAM_OFF],
                lam_cls == "off_circle" and not ztor and not wtor,
                "lambda off the circle, z and w not torsion")
            add([tw, _pp("lambda", "nontorsion"), _pp("lambda", "nontorsion"),
                 _LAM_CIRC],
                lam_cls == "circle_free" and not ztor and not wtor,
                "lambda on the circle, z and w not torsion")
            add([_ell("z"), _ell("lambda", "nontorsion"), _ell("lambda", "torsion"),
                 _LAM_OFF],
                lam_cls == "off_circle" and not ztor and wtor,
                "lambda off the circle, w torsion only")
            add([_ell("z"), _pp("lambda", "nontorsion"), _pp("lambda", "torsion"),
                 _LAM_CIRC],
                lam_cls == "circle_free" and not ztor and wtor,
                "lambda on the circle, w torsion only")
            add([_ell("w"), _ell("lambda", "torsion"), _ell("lambda", "nontorsion"),
                 _LAM_OFF],
                lam_cls == "off_circle" and ztor and not wtor,
                "lambda off the circle, z torsion only")
            add([_ell("w"), _pp("lambda", "torsion"), _pp("lambda", "nontorsion"),
                 _LAM_CIRC],
                lam_cls == "circle_free" and ztor and not wtor,
                "lambda on the circle, z torsion only")
            add([_cstar(), _ell("lambda", "torsion"), _ell("lambda", "torsion"),
                 _LAM_OFF],
                lam_cls == "off_circle" and ztor and wtor,
                "lambda off the circle, z and w torsion")
            add([_cstar(), _pp("lambda", "torsion"), _pp("lambda", "torsion"),
                 _LAM_CIRC],
                lam_cls == "circle_free" and ztor and wtor,
                "lambda on the circle, z and w torsion")
            add([tw, _cstar("nontorsion"), _cstar("nontorsion"), _muinf()],
                lam_cls == "torsion",
                "lambda torsion (z, w forced non-torsion)",)
        else:
            d1_ = _lcm(_div(abs(b1), _gcd(a, b1)), _div(abs(e1), _gcd(f, e1)))
            f1_ = _div(abs(e1), _gcd(d, e1))
            u = _mono(("z", -_div(a * d1_, b1)), ("w", _div(f * d1_, e1)))
            vv = _mono(("w", _div(f1_ * d, e1)), ("lambda", b * f1_))
            nn = _gcd(a * e1, f * b1)
            add([_tt(u, vv), _cstar("nontorsion"), _cstar("nontorsion"), _mun(nn)],
                lam_cls == "torsion"
                and not v["z"].is_root_of_unity and not v["w"].is_root_of_unity,
                "lambda torsion, z and w not torsion")
    elif ranks == (2, 2):
        out.extend(_strata_22(subset, p, v))
    elif ranks == (3, 2):
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = p
        n3 = _gcd(f2 * b3, a * e2 + b * f2, a * e3)
        ok = lam_cls == "torsion"
        n1 = n2 = 0
        if ok:
            n1 = abs(_div(d1 * a, b3)) * (lam ** (a * e1)).value_order()
            n2 = abs(_div(d1 * f2, e3)) * (lam ** (b1 * f2)).value_order()
        add([_cstar(), _cstar(), _cstar(), _mun(n1), _mun(n2), _mun(n3)],
            ok, "central value torsion")
    else:
        raise ValueError(f"unknown rank pair {ranks}")
    return out


def _strata_22(subset: str, p, v: dict) -> list[tuple[StratumRow, bool]]:
    a, f, b, e, d1, f1, b1, e1, b2, e2 = p
    lam = v["lambda"]
    z, w = v["z"], v["w"]
    zc, wc = z.modulus_class(), w.modulus_class()
    rows: list[tuple[StratumRow, bool]] = []

    def add(fibers, matched, selector):
        rows.append((StratumRow(len(rows) + 1, tuple(fibers), selector), matched))

    if subset in ("S1", "S2"):
        ft = _div(abs(e2), _gcd(d1, e2))
        sq = _mono(("w", _div(d1 * ft, e2)))
        if subset == "S1":
            nn = _gcd(f1 * b2, a * e2, f * b2)
            add([_cstar(), _ell(sq), _curve(), _mun(nn)],
                wc == "off_circle", "w off the circle")
            add([_cstar(), _pp(sq), _curve(singular=True), _mun(nn)],
                wc == "circle_free", "w on the circle non-torsion")
        else:
            n2v = 0
            if lam.is_root_of_unity:
                n2v = abs(_div(d1 * a, b2)) * (lam ** (a * e1)).value_order()
            add([_cstar(), _ell(sq), _mun(n2v), _cstar("off_circle"),
                 _mun(a * e2)],
                wc == "off_circle", "w off the circle")
            add([_cstar(), _pp(sq), _mun(n2v), _cstar("circle_nontorsion"),
                 _mun(a * e2)],
                wc == "circle_free", "w on the circle non-torsion")
    elif subset == "S3":
        at = _div(abs(b2), _gcd(d1, b2))
        tq = _mono(("z", _div(d1 * at, b2)))
        n3v = 0
        if lam.is_root_of_unity:
            n3v = abs(_div(d1 * f, e2)) * (lam ** (f * b1)).value_order()
        add([_cstar(), _ell(tq), _cstar("off_circle"), _mun(n3v), _mun(f * b2)],
            zc == "off_circle", "z off the circle")
        add([_cstar(), _pp(tq), _cstar("circle_nontorsion"), _mun(n3v),
             _mun(f * b2)],
            zc == "circle_free", "z on the circle non-torsion")
    else:  # S4
        dt = _lcm(_div(abs(b2), _gcd(a, b2)), _div(abs(e2), _gcd(f1, e2)))
        zq = _mono(("z", _div(a * dt, b2)))
        wq = _mono(("w", _div(f1 * dt, e2)))
        nn = _gcd(f1 * b2, a * e2)
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
        for zk, wk in combos:
            add([tslot[zk], sslot[wk], zslot[zk], zslot[wk], _mun(nn)],
                zc == zk and wc == wk, f"z {names[zk]}, w {names[wk]}")
    return rows


# ---------------------------------------------------------------------------
# displayed relation identities (for the verification report)


def relation_checks(ranks, subset: str, params):
    """Displayed commutator identities: (name, element, exact word builder,
    printed word builder or None).  Builders map the value dict to a
    UnitValue; the exact one matches the element's decomposition."""
    p = _check_length(ranks, params)
    gens = defining_generators(ranks, p)
    out = []
    if ranks == (2, 1):
        a, e, d1, e1 = p
        out.append((
            "commutator of the two level-1 generators",
            commutator(gens[0], gens[1]),
            lambda v: v["z"] ** (a * d1) * v["lambda"] ** (a * e1),
            None,
        ))
    elif ranks == (2, 2):
        a, f, b, e, d1, f1, b1, e1, b2, e2 = p
        cexp = a * e1 + b * f1 - b1 * f - a * d1 * f - a * d1 * f1
        out.append((
            "commutator of the two level-1 generators",
            commutator(gens[0], gens[1]),
            lambda v: (v["z"] ** _div(a * d1, b2) * v["w"] ** (-_div(d1 * f, e2))
                       * v["lambda"] ** cexp),
            lambda v: (v["z"] ** (-_div(a * d1, b2)) * v["w"] ** (-_div(d1 * f, e2))
                       * v["lambda"] ** cexp),
        ))
        if subset == "S4":
            out.append((
                "commutator of the first generator with the last level-2 one",
                commutator(gens[0], gens[3]),
                lambda v: v["lambda"] ** (a * e2),
                None,
            ))
            out.append((
                "commutator of the second generator with the first level-2 one",
                commutator(gens[1], gens[2]),
                lambda v: v["lambda"] ** (-f1 * b2),
                None,
            ))
    elif ranks == (3, 2):
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = p
        out.append((
            "commutator of the first two generators",
            commutator(gens[0], gens[1]),
            lambda v: v["z"] ** _div(a * d1, b3) * v["lambda"] ** (a * e1),
            lambda v: v["z"] ** (-_div(a * d1, b3)) * v["lambda"] ** (-a * e1),
        ))
        out.append((
            "commutator of the last two level-1 generators",
            commutator(gens[1], gens[2]),
            lambda v: v["w"] ** _div(d1 * f2, e3) * v["lambda"] ** (b1 * f2),
            None,
        ))
        out.append((
            "commutator of the outer level-1 generators",
            commutator(gens[0], gens[2]),
            lambda v: v["lambda"] ** (a * e2 + b * f2),
            lambda v: v["lambda"] ** (-(a * e2 + b * f2)),
        ))
        out.append((
            "commutator of the third generator with the first level-2 one",
            commutator(gens[2], gens[3]),
            lambda v: v["lambda"] ** (-f2 * b3),
            lambda v: v["lambda"] ** (f2 * b3),
        ))
        out.append((
            "commutator of the first generator with the second level-2 one",
            commutator(gens[0], gens[4]),
            lambda v: v["lambda"] ** (a * e3),
            lambda v: v["lambda"] ** (-a * e3),
        ))
    return out


# ---------------------------------------------------------------------------
# generic valid character samples (used by the verification oracle)


def _sym(name: str, circle: bool = False) -> UnitValue:
    return symbol_value(ValueSymbol(name, on_circle=circle))


def _torsion_solution(m: int, target: UnitValue, j: int) -> UnitValue:
    """A solution x of x**m = target, twisted by the j-th root of unity."""
    return target ** Fraction(1, m) * root_of_unity(j, abs(m))


def central_orders(ranks, subset: str, params, bound: int = 2000) -> list[int]:
    """Central-value orders compatible with the level-2 exponents."""
    p = _check_length(ranks, params)
    if ranks == (1, 2):
        a, d, f, b, e, b1, e1 = p
        return [nu for nu in range(1, min(bound, abs(b1 * e1) * max(abs(a), 1)
                                          * max(abs(f), 1)) + 1)
                if abs(b1) == nu // _gcd(nu, f) and abs(e1) == nu // _gcd(nu, a)]
    if ranks == (2, 2):
        a, f, b, e, d1, f1, b1, e1, b2, e2 = p
        cap = min(bound, abs(b2 * e2) * max(abs(a), 1)
                  * max(abs(f), 1) * max(abs(f1), 1))
        return [nu for nu in range(1, cap + 1)
                if abs(b2) == _lcm(nu // _gcd(nu, f), nu // _gcd(nu, f1))
                and abs(e2) == nu // _gcd(nu, a)]
    raise ValueError("central orders are parameter-determined only for the "
                     "two level-2-saturated cases")


def character_samples(ranks, subset: str, params) -> list[Character]:
    """Deterministic generic valid characters on the canonical subgroup.

    Free directions get fresh symbols; constrained directions get exact
    torsion solutions.  Every returned character is a valid homomorphism
    and satisfies the case's irreducibility conditions.
    """
    p = _check_length(ranks, params)
    gens = defining_generators(ranks, p) + [elt(c=1)]
    sub = subgroup(gens)
    names = COORD_NAMES[ranks] + ("lambda",)
    assigns: list[dict[str, UnitValue]] = []
    if ranks == (1, 1):
        assigns = [
            {"t": _sym("t"), "z": _sym("z"), "lambda": _sym("lam")},
            {"t": _sym("t"), "z": root_of_unity(1, 3), "lambda": _sym("lam", True)},
        ]
    elif ranks == (2, 0):
        assigns = [
            {"t": _sym("t"), "s": _sym("s"), "lambda": _sym("lam")},
            {"t": _sym("t", True), "s": _sym("s"), "lambda": _sym("lam", True)},
        ]
    elif ranks == (2, 1):
        a, e, d1, e1 = p
        k = _gcd(a, e) * _gcd(d1, e1)
        tried = [(j, circ) for j in range(abs(a * d1) + 1) for circ in (False, True)]
        for j, circ in tried:
            lam = _sym("lam", circ)
            z = _torsion_solution(a * d1, lam ** (-a * e1), j)
            if subset == "S2":
                w0 = z ** _div(a * d1, k) * lam ** _div(a * e1, k)
                if w0.value_order() != k:
                    continue
            assigns.append({"t": _sym("t"), "r": _sym("r"), "z": z, "lambda": lam})
            if len(assigns) >= 3:
                break
    elif ranks == (1, 2) and subset == "A":
        assigns = [
            {"t": _sym("t"), "z": _sym("z"), "w": _sym("w"), "lambda": _sym("lam")},
            {"t": _sym("t"), "z": _sym("z"), "w": _sym("w"),
             "lambda": root_of_unity(1, 5)},
        ]
    elif ranks == (1, 2):
        a, d, f, b, e, b1, e1 = p
        for nu in central_orders(ranks, subset, p)[:2]:
            lam = root_of_unity(1, nu)
            assigns.append({"t": _sym("t"), "z": _sym("z"), "w": _sym("w"),
                            "lambda": lam})
    elif ranks == (2, 2):
        a, f, b, e, d1, f1, b1, e1, b2, e2 = p
        m1 = _div(a * d1, b2)
        m2 = -_div(d1 * f, e2)
        cexp = a * e1 + b * f1 - b1 * f - a * d1 * f - a * d1 * f1
        for nu in central_orders(ranks, subset, p)[:2]:
            lam = root_of_unity(1, nu)
            target = lam ** (-cexp)
            for j in (0, 1):
                if subset in ("S1",):
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
                    wv = _sym("w") if j == 0 else _sym("w")
                assigns.append({"t": _sym("t"), "s": _sym("s"), "z": zv,
                                "w": wv, "lambda": lam})
    elif ranks == (3, 2):
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = p
        n3 = _gcd(f2 * b3, a * e2 + b * f2, a * e3)
        m1, m2 = _div(a * d1, b3), _div(d1 * f2, e3)
        for nu in ([n3] if n3 == 1 else [n3, 1]):
            lam = root_of_unity(1, nu)
            if not (lam ** (a * e2 + b * f2)).is_one:
                continue
            for j in (0, 1):
                zv = _torsion_solution(m1, lam ** (-a * e1), j)
                wv = _torsion_solution(m2, lam ** (-b1 * f2), j)
                assigns.append({"t": _sym("t"), "r": _sym("r"), "s": _sym("s"),
                                "z": zv, "w": wv, "lambda": lam})
    chars = []
    for a_ in assigns:
        try:
            chars.append(solve_character(sub, gens, [a_[n] for n in names]))
        except ValueError:
            continue
    return chars


def character_from_values(ranks, params, vals: dict) -> Character:
    """Character on build_subgroup(ranks, params) with the given values on
    the defining generators (keys from COORD_NAMES plus "lambda")."""
    p = _check_length(ranks, params)
    gens = defining_generators(ranks, p) + [elt(c=1)]
    values = [vals[name] for name in COORD_NAMES[ranks]]
    return solve_character(subgroup(gens), gens,
                           values + [vals.get("lambda", ONE)])


# ---------------------------------------------------------------------------
# parameter enumeration


def enumerate_params(ranks, box: tuple[int, int], limit: int | None = None):
    """Admissible tuples with all coordinates in [box[0], box[1]],
    lexicographically ordered; limit caps the output length."""
    lo, hi = int(box[0]), int(box[1])
    if lo > hi:
        return []
    n = PARAM_LENGTH[ranks]
    if ranks in ((2, 2), (3, 2)):
        found = sorted(_enumerate_structured(ranks, lo, hi))
    else:
        found = []
        for p in iproduct(range(lo, hi + 1), repeat=n):
            try:
                subset_of(ranks, p)
            except NoSubsetError:
                continue
            found.append(p)
    if limit is not None:
        found = found[:limit]
    return found


def _enumerate_structured(ranks, lo: int, hi: int):
    # the residue coordinates enter the subset conditions only through the
    # bounds |residue| < |modulus| that the residue ranges already enforce,
    # so the first tuple of each block of residues decides the whole block
    rng = [x for x in range(lo, hi + 1)]
    nz = [x for x in rng if x]
    out = []
    if ranks == (2, 2):
        for a, f, d1, f1 in iproduct(rng, rng, rng, rng):
            for b2, e2 in iproduct(nz, nz):
                res_b = [x for x in rng if abs(x) < abs(b2)]
                res_e = [x for x in rng if abs(x) < abs(e2)]
                block = [(a, f, b, e, d1, f1, b1, e1, b2, e2)
                         for b, e, b1, e1 in iproduct(res_b, res_e,
                                                      res_b, res_e)]
                if block and _admissible(ranks, block[0]):
                    out.extend(block)
    else:  # (3, 2)
        for a, d1, f2 in iproduct(nz, nz, nz):
            for b3 in [x for x in nz if a * d1 % x == 0 and lo <= x <= hi]:
                for e3 in [x for x in nz if d1 * f2 % x == 0 and lo <= x <= hi]:
                    res_b = [x for x in rng if abs(x) < abs(b3)]
                    res_e = [x for x in rng if abs(x) < abs(e3)]
                    block = [(a, b, e, d1, b1, e1, f2, b2, e2, b3, e3)
                             for b, b1, b2 in iproduct(res_b, repeat=3)
                             for e, e1, e2 in iproduct(res_e, repeat=3)]
                    if block and _admissible(ranks, block[0]):
                        out.extend(block)
    return out


def _admissible(ranks, p) -> bool:
    try:
        subset_of(ranks, p)
    except NoSubsetError:
        return False
    return True


# ---------------------------------------------------------------------------
# equivalence moves


def conjugation_move(ranks, params, shift: int):
    """The residue-shifting conjugation move: (conjugator, new params).

    Conjugating the canonical subgroup by the returned element yields the
    canonical subgroup of the returned tuple.
    """
    p = _check_length(ranks, params)
    if ranks == (1, 1):
        a, d, f, b, e = p
        return elt(d=shift), (a, d, f, b - a * shift, e + f * shift)
    if ranks == (2, 0):
        a, b, e, f1, b1, e1 = p
        return elt(d=shift), (a, b - a * shift, e, f1, b1, e1 + f1 * shift)
    if ranks == (2, 1):
        a, e, d1, e1 = p
        return elt(f=shift), (a, e, d1, e1 - d1 * shift)
    raise ValueError(
        "the tabulated residue-shifting move exists for rank pairs "
        "(1,1), (2,0) and (2,1) only")


def f_move_candidates(ranks, subset: str, params, vals: dict, cap: int = 64):
    """Finite root/residue replacement candidates: (params, values, note).

    Candidate tuples share the isolator with the input; the caller is
    responsible for filtering by validity and restriction agreement.
    """
    p = _check_length(ranks, params)
    out: list[tuple[tuple, dict, str]] = []
    lam = vals["lambda"]
    if ranks == (2, 1):
        a, e, d1, e1 = p
        t, r, z = vals["t"], vals["r"], vals["z"]
        k1, k2 = _gcd(a, e), _gcd(d1, e1)
        for m in range(2, k1 + 1):
            if k1 % m:
                continue
            p2 = (a // m, e // m, d1 * m, e1 * m)
            for root in t.roots(m):
                out.append((p2, {"t": root, "r": r ** m, "z": z, "lambda": lam},
                            f"root extraction of order {m} on the first generator"))
        for m in range(2, k2 + 1):
            if k2 % m:
                continue
            p2 = (a * m, e * m, d1 // m, e1 // m)
            for root in r.roots(m):
                out.append((p2, {"t": t ** m, "r": root, "z": z, "lambda": lam},
                            f"root extraction of order {m} on the second generator"))
    elif ranks == (1, 2) and subset != "A":
        a, d, f, b, e, b1, e1 = p
        t, z, w = vals["t"], vals["z"], vals["w"]
        if (b, e) != (0, 0):
            p2 = (a, d, f, 0, 0, b1, e1)
            t2 = t * z ** Fraction(-b, b1) * w ** Fraction(-e, e1)
            out.append((p2, {"t": t2, "z": z, "w": w, "lambda": lam},
                        "clearing the level-2 residues of the first generator"))
        k1 = _gcd(a, d, f)
        for m in range(2, k1 + 1):
            if k1 % m:
                continue
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
                    p2 = (a2, d2, f2, beta, eps, b1, e1)
                    qb = _div(m * beta + bshift - b, b1)
                    qe = _div(m * eps + eshift - e, e1)
                    base = t * z ** qb * w ** qe
                    for root in base.roots(m):
                        out.append((p2, {"t": root, "z": z, "w": w, "lambda": lam},
                                    f"root extraction of order {m} on the "
                                    "level-1 generator"))
        for m in range(2, abs(b1) + 1):
            if b1 % m:
                continue
            for root in z.roots(m):
                out.append(((a, d, f, b, e, b1 // m, e1),
                            {"t": t, "z": root, "w": w, "lambda": lam},
                            f"root extraction of order {m} on the first "
                            "level-2 generator"))
        for m in range(2, abs(e1) + 1):
            if e1 % m:
                continue
            for root in w.roots(m):
                out.append(((a, d, f, b, e, b1, e1 // m),
                            {"t": t, "z": z, "w": root, "lambda": lam},
                            f"root extraction of order {m} on the second "
                            "level-2 generator"))
    elif ranks == (2, 2):
        a, f, b, e, d1, f1, b1, e1, b2, e2 = p
        t, s, z, w = vals["t"], vals["s"], vals["z"], vals["w"]
        nn = _gcd(f1 * b2, a * e2, f * b2)
        inv = (a * e1 + b * f1 - b1 * f) % nn if nn else None
        res_b = range(-abs(b2) + 1, abs(b2))
        res_e = range(-abs(e2) + 1, abs(e2))
        for bt, b1t, e1t in iproduct(res_b, res_b, res_e):
            if (bt, b1t, e1t) == (b, b1, e1):
                continue
            if nn and (a * e1t + bt * f1 - b1t * f) % nn != inv:
                continue
            for et in res_e:
                p2 = (a, f, bt, et, d1, f1, b1t, e1t, b2, e2)
                out.append((p2, dict(vals),
                            "residue replacement preserving the central pairing"))
                if len(out) >= cap:
                    return out
    elif ranks == (3, 2):
        a, b, e, d1, b1, e1, f2, b2, e2, b3, e3 = p
        n3 = _gcd(f2 * b3, a * e2 + b * f2, a * e3)
        res_b = range(-abs(b3) + 1, abs(b3))
        res_e = range(-abs(e3) + 1, abs(e3))
        for bt, e1t, b1t, e2t in iproduct(res_b, res_e, res_b, res_e):
            if (bt, e1t, b1t, e2t) == (b, e1, b1, e2):
                continue
            if n3 and ((b1t * f2 - b1 * f2) % n3 or (a * e1t - a * e1) % n3
                       or (a * e2t + bt * f2 - a * e2 - b * f2) % n3):
                continue
            for et, b2t in iproduct(res_e, res_b):
                p2 = (a, bt, et, d1, b1t, e1t, f2, b2t, e2t, b3, e3)
                out.append((p2, dict(vals),
                            "residue replacement preserving the relations"))
                if len(out) >= cap:
                    return out
    return out[:cap]
