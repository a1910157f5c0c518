"""Multiplicative characters with exact formal values.

Character values live in the multiplicative group generated by an
explicit root of unity part and formal symbols.  A symbol stands for a
fixed but generic nonzero complex number; ``on_circle`` symbols have
modulus one without being roots of unity, other symbols have modulus
different from one.  Distinct symbols are treated as multiplicatively
independent, so two values are equal exactly when their torsion parts
and exponent vectors agree.  Exponents are Fractions because root
extraction (used when moving a character along a finite-index step)
divides them.

A character is stored by its values on the canonical generators of its
domain subgroup.  Evaluation extracts the coordinates of an element
along those generators; the result is a homomorphism exactly when the
values kill the derived subgroup, which ``validate`` checks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from . import intlin
from .core import IDENTITY, Elt, compose, conjugate, inverse, power
from .subgroup import (
    Subgroup,
    conjugate_subgroup,
    decompose,
    derived_subgroup,
)


@dataclass(frozen=True)
class ValueSymbol:
    """A generic nonzero complex parameter.

    on_circle=True declares modulus exactly one (but not a root of
    unity); on_circle=False declares modulus different from one.
    """

    name: str
    on_circle: bool = False


def _norm_exps(items) -> tuple[tuple[ValueSymbol, Fraction], ...]:
    acc: dict[str, tuple[ValueSymbol, Fraction]] = {}
    for sym, ex in items:
        if type(ex) is not Fraction:
            ex = Fraction(ex)
        if sym.name in acc:
            prev_sym, prev = acc[sym.name]
            if prev_sym != sym:
                raise ValueError(f"conflicting declarations for symbol {sym.name!r}")
            ex = prev + ex
        if ex:
            acc[sym.name] = (sym, ex)
        else:
            acc.pop(sym.name, None)
    return tuple(acc[k] for k in sorted(acc))


@dataclass(frozen=True)
class UnitValue:
    """torsion part exp(2*pi*i*torsion) times a product of symbol powers."""

    torsion: Fraction = Fraction(0)
    exps: tuple[tuple[ValueSymbol, Fraction], ...] = ()

    # every constructor leaves exps normalized, so a product with a pure
    # root of unity, or an integer power, needs no renormalization
    def __mul__(self, other: "UnitValue") -> "UnitValue":
        if not other.exps:
            exps = self.exps
        elif not self.exps:
            exps = other.exps
        else:
            exps = _norm_exps(self.exps + other.exps)
        return UnitValue((self.torsion + other.torsion) % 1, exps)

    def __truediv__(self, other: "UnitValue") -> "UnitValue":
        if not other.exps:
            exps = self.exps
        else:
            exps = _norm_exps(self.exps + tuple((s, -e) for s, e in other.exps))
        return UnitValue((self.torsion - other.torsion) % 1, exps)

    def __pow__(self, r) -> "UnitValue":
        if isinstance(r, int) and r:
            return UnitValue((self.torsion * r) % 1,
                             tuple((s, e * r) for s, e in self.exps))
        r = Fraction(r)
        return UnitValue((self.torsion * r) % 1,
                         _norm_exps((s, e * r) for s, e in self.exps))

    def roots(self, m: int) -> Iterator["UnitValue"]:
        """All m-th roots, lazily: the principal root twisted by the k-th
        m-th root of unity for k = 0, 1, ..., m - 1."""
        if m <= 0:
            raise ValueError("root order must be positive")
        pr = self ** Fraction(1, m)
        return (pr * root_of_unity(k, m) for k in range(m))

    @property
    def is_one(self) -> bool:
        return self.torsion == 0 and not self.exps

    @property
    def is_root_of_unity(self) -> bool:
        return not self.exps

    def value_order(self) -> int | None:
        """Multiplicative order, or None when infinite."""
        return self.torsion.denominator if self.is_root_of_unity else None

    def modulus_class(self) -> str:
        """'off_circle', 'circle_free' (modulus one, infinite order) or 'torsion'."""
        if any(not s.on_circle and e for s, e in self.exps):
            return "off_circle"
        if self.exps:
            return "circle_free"
        return "torsion"

    def numeric(self, assign: Mapping[str, complex]) -> complex:
        """Numeric value for concrete symbol assignments (principal branches)."""
        out = cmath.exp(2j * cmath.pi * float(self.torsion))
        for s, e in self.exps:
            out *= cmath.exp(float(e) * cmath.log(complex(assign[s.name])))
        return out

    def __str__(self) -> str:
        parts = []
        if self.torsion:
            parts.append(f"zeta({self.torsion})")
        for s, e in self.exps:
            parts.append(s.name if e == 1 else f"{s.name}^{e}")
        return " * ".join(parts) if parts else "1"


ONE = UnitValue()


def root_of_unity(num, den=1) -> UnitValue:
    """exp(2*pi*i*num/den)."""
    return UnitValue(Fraction(num, den) % 1, ())


def symbol_value(sym: ValueSymbol, exp=1) -> UnitValue:
    return UnitValue(Fraction(0), _norm_exps([(sym, Fraction(exp))]))


@dataclass(frozen=True)
class Character:
    """Values on the canonical generators of the domain subgroup.

    vals1 aligns with sub.gens1, vals2 with sub.gens2, val_c is the
    value on elt(c=sub.c0) (ONE when the centre part is trivial).
    """

    sub: Subgroup
    vals1: tuple[UnitValue, ...]
    vals2: tuple[UnitValue, ...]
    val_c: UnitValue

    def validate(self) -> None:
        """Raise ValueError unless the values define a homomorphism."""
        for d in derived_subgroup(self.sub).generators():
            if not evaluate(self, d).is_one:
                raise ValueError("values do not kill the derived subgroup")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except ValueError:
            return False
        return True


def character(
    sub: Subgroup,
    vals1: Sequence[UnitValue] = (),
    vals2: Sequence[UnitValue] = (),
    val_c: UnitValue = ONE,
) -> Character:
    if len(vals1) != len(sub.gens1) or len(vals2) != len(sub.gens2):
        raise ValueError("value count does not match the canonical generators")
    return Character(sub, tuple(vals1), tuple(vals2), val_c)


def evaluate(chi: Character, g: Elt) -> UnitValue:
    quots, rep = decompose(chi.sub, g)
    if rep != IDENTITY:
        raise ValueError("element outside the character's domain")
    # the product of v ** q over the generators, summed in one pass;
    # zip drops val_c when the domain has no centre part (no quotient)
    num, den = 0, 1
    exps: list = []
    for q, v in zip(quots, chi.vals1 + chi.vals2 + (chi.val_c,)):
        if q:
            t = v.torsion
            if t:
                d = t.denominator
                num = num * d + q * t.numerator * den
                den *= d
            exps.extend((s, e * q) for s, e in v.exps)
    return UnitValue(Fraction(num % den, den),
                     _norm_exps(exps) if exps else ())


def solve_character(sub: Subgroup, gens: Sequence[Elt],
                    values: Sequence[UnitValue]) -> Character:
    """Character on sub taking the given value on each listed generator.

    Solves for the values on the canonical generators over the
    abelianization, refusing inconsistent assignments.  The generators of
    the derived subgroup enter the system with value 1, so a returned
    character kills the derived subgroup: it is valid by construction.
    """
    m = len(sub.gens1) + len(sub.gens2) + (1 if sub.c0 else 0)
    if m == 0:
        for v in values:
            if not v.is_one:
                raise ValueError("the trivial subgroup only carries the "
                                 "trivial character")
        return character(sub)
    rows: list[list[int]] = []
    targets = []

    def _exp_row(g: Elt) -> list[int]:
        quots, rep = decompose(sub, g)
        if rep != IDENTITY:
            raise RuntimeError("internal inconsistency: a generator fell "
                               "outside its own subgroup")
        return quots

    for g, v in zip(gens, values):
        rows.append(_exp_row(g))
        targets.append(v)
    # relations among the generators must map to 1
    for d in derived_subgroup(sub).generators():
        rows.append(_exp_row(d))
        targets.append(ONE)

    hh, uu, kk = intlin.hnf_with_transform(rows)
    if len(hh) < m or any(hh[i][j] != (1 if i == j else 0)
                          for i in range(m) for j in range(m)):
        raise RuntimeError("internal inconsistency: generator exponents do "
                           "not span the abelianization")

    def _combine(coeffs):
        acc = ONE
        for c, v in zip(coeffs, targets):
            if c:
                acc = acc * v ** c
        return acc

    for krow in kk:
        if not _combine(krow).is_one:
            raise ValueError(
                "inconsistent values: a relation among the listed "
                "generators maps to a nontrivial value")
    vals = [_combine(uu[j]) for j in range(m)]
    k1, k2 = len(sub.gens1), len(sub.gens2)
    return character(sub, tuple(vals[:k1]), tuple(vals[k1:k1 + k2]),
                     vals[k1 + k2] if sub.c0 else ONE)


def power_solutions(x: UnitValue, y: UnitValue):
    """Solutions n of x * y**n == 1.

    Returns None (no solution), the string "all", or a pair (n0, q): the
    solutions are n0 + q*Z, with q == 0 pinning the single value n0.
    """
    if y.is_one:
        return "all" if x.is_one else None
    m = y.value_order()
    if m is not None:
        # y is a primitive m-th root of unity; x must be pure torsion and
        # the congruence n * num(y) = -num(x) (mod m) pins n modulo m
        if any(e for _, e in x.exps):
            return None
        t = -x.torsion * m
        if t.denominator != 1:
            return None
        p = int(y.torsion * m) % m
        _, pinv, _ = intlin.xgcd(p, m)
        n0 = (int(t) * pinv) % m
        return (n0, m) if (x * y ** n0).is_one else None
    # infinite order: matching any nonzero exponent of y pins n uniquely
    xe = dict(x.exps)
    n = None
    for s, ye in y.exps:
        if not ye:
            continue
        cand = -xe.get(s, 0) / ye
        if cand.denominator != 1:
            return None
        if n is None:
            n = int(cand)
        elif n != int(cand):
            return None
    if n is None or not (x * y ** n).is_one:
        return None
    return (n, 0)


def level2_gate(h: Subgroup, chi: Character, g0: Elt) -> bool:
    """Whether chi agrees with its conjugate by g0 on the level-2
    generators of h.  Conjugation by elt(b=B, e=E) fixes them, so when
    this fails no g0 * elt(b=B, e=E) agrees."""
    return all(evaluate(chi, compose(conjugate(s, g0), inverse(s))).is_one
               for s in h.gens2)


def agreement_conditions(h: Subgroup, chi: Character, g0: Elt, coeffs):
    """When chi agrees with its conjugate by g0 * elt(b=B, e=E) on the
    level-1 part of its domain, as congruences on (B, E); level2_gate
    covers the rest.

    h must contain the full centre, and coeffs are the rows of
    level1_sublattice(h, *g0[:3]).  Conjugating by elt(b=B, e=E) moves
    an element x by the central power B*x.f - E*x.a, so each row's
    element k gives one condition ((k.f, -k.a), sol): cb*B + ce*E must
    be a solution n of rho * lambda**n == 1, rho the ratio chi takes
    between k's conjugate by g0 and k, with sol as from power_solutions
    ("all", or (n0, q)).  Returns None when some condition has no
    solution.
    """
    lam = chi.val_c
    out = []
    for c in coeffs:
        k = None
        for ci, t in zip(c, h.gens1):
            if ci:
                term = power(t, ci)
                k = term if k is None else compose(k, term)
        if k is None:
            continue
        delta = compose(conjugate(k, g0), inverse(k))
        sol = power_solutions(evaluate(chi, delta), lam)
        if sol is None:
            return None
        out.append(((k.f, -k.a), sol))
    return out


def conjugate_character(chi: Character, g: Elt) -> Character:
    """chi^g with (chi^g)(x) = chi(g x g^-1), defined on g^-1 (dom) g."""
    dom = conjugate_subgroup(chi.sub, inverse(g))
    vals1 = tuple(evaluate(chi, conjugate(t, g)) for t in dom.gens1)
    vals2 = tuple(evaluate(chi, conjugate(s, g)) for s in dom.gens2)
    # conjugation fixes the centre pointwise
    val_c = evaluate(chi, Elt(0, 0, 0, 0, 0, dom.c0)) if dom.c0 else ONE
    return Character(dom, vals1, vals2, val_c)
