"""Multiplicative characters with exact formal values.

Character values live in the multiplicative group generated by an
explicit root of unity part and formal symbols.  A symbol stands for a
fixed but generic nonzero complex number; ``on_circle`` symbols have
modulus one without being roots of unity, other symbols have modulus
different from one.  Distinct symbols are treated as multiplicatively
independent, so two values are equal exactly when their torsion parts
and exponent vectors agree.  Exponents are rational because root
extraction (used when moving a character along a finite-index step)
divides them; a value keeps its torsion part and its exponents as
integers over one common denominator, so products, quotients, integer
powers and evaluation are integer arithmetic, and fractions appear only
in the printed form.

A character is stored by its values on the canonical generators of its
domain subgroup.  Evaluation extracts the coordinates of an element
along those generators; the result is a homomorphism exactly when the
values kill the derived subgroup, which ``validate`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import intlin
from .core import IDENTITY, Elt, commutator, conjugate, inverse
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


def _scaled(powers, k: int) -> tuple[tuple[ValueSymbol, int], ...]:
    """Every exponent times the nonzero integer k."""
    return powers if k == 1 else tuple([(s, e * k) for s, e in powers])


def _merge(xp, kx: int, yp, ky: int) -> tuple[tuple[ValueSymbol, int], ...]:
    """kx * xp + ky * yp for two power tuples sorted by symbol name and
    nonzero integers kx and ky: the exponents added name by name, zeros
    dropped."""
    if not yp:
        return _scaled(xp, kx)
    if not xp:
        return _scaled(yp, ky)
    out = []
    i = j = 0
    while i < len(xp) and j < len(yp):
        (s, e), (t, f) = xp[i], yp[j]
        if s.name < t.name:
            out.append((s, e * kx))
            i += 1
        elif t.name < s.name:
            out.append((t, f * ky))
            j += 1
        else:
            if s is not t and s != t:
                raise ValueError(
                    f"conflicting declarations for symbol {s.name!r}")
            if e * kx + f * ky:
                out.append((s, e * kx + f * ky))
            i += 1
            j += 1
    if i < len(xp):
        out += [(s, e * kx) for s, e in xp[i:]]
    if j < len(yp):
        out += [(t, f * ky) for t, f in yp[j:]]
    return tuple(out)


def _value(num: int, den: int, powers) -> "UnitValue":
    """The value exp(2*pi*i*num/den) * prod(s**(e/den)), in lowest terms."""
    if den == 1:
        return UnitValue(0, 1, powers)
    num %= den
    g = math.gcd(den, num, *[e for _, e in powers])
    if g > 1:
        num, den = num // g, den // g
        powers = tuple([(s, e // g) for s, e in powers])
    return UnitValue(num, den, powers)


def _product(x: "UnitValue", kx: int, y: "UnitValue", ky: int) -> "UnitValue":
    """x**kx * y**ky for nonzero integers kx and ky."""
    den = x.den
    if den != y.den:
        den = math.lcm(den, y.den)
        kx *= den // x.den
        ky *= den // y.den
    return _value(x.num * kx + y.num * ky, den,
                  _merge(x.powers, kx, y.powers, ky))


@dataclass(slots=True)
class UnitValue:
    """exp(2*pi*i*num/den) times the product of s**(e/den) over the pairs
    (s, e) of powers.

    The fields are kept in lowest terms: 0 <= num < den, every exponent e
    is a nonzero integer, powers is sorted by symbol name, and den is the
    least common denominator of the torsion part and the exponents.  So
    equal values have equal fields, and the group operations are integer
    arithmetic.  A value is never changed after it is made (it is not
    frozen only because a frozen dataclass takes three times as long to
    make, and the operations make one each).
    """

    num: int = 0
    den: int = 1
    powers: tuple[tuple[ValueSymbol, int], ...] = ()

    def __hash__(self) -> int:
        return hash((self.num, self.den, self.powers))

    def __mul__(self, other: "UnitValue") -> "UnitValue":
        return _product(self, 1, other, 1)

    def __truediv__(self, other: "UnitValue") -> "UnitValue":
        return _product(self, 1, other, -1)

    def __pow__(self, r) -> "UnitValue":
        if isinstance(r, int):
            p, q = r, 1
        else:
            if not isinstance(r, Fraction):
                r = Fraction(r)
            p, q = r.numerator, r.denominator
        if not p:
            return ONE
        return _value(self.num * p, self.den * q, _scaled(self.powers, p))

    def roots(self, m: int) -> Iterator["UnitValue"]:
        """All m-th roots, lazily: the principal root twisted by the k-th
        m-th root of unity for k = 0, 1, ..., m - 1."""
        if m <= 0:
            raise ValueError("root order must be positive")
        pr = _value(self.num, self.den * m, self.powers)
        return (pr * root_of_unity(k, m) for k in range(m))

    @property
    def torsion(self) -> Fraction:
        """The torsion part as a fraction of a full turn."""
        return Fraction(self.num, self.den)

    @property
    def exps(self) -> tuple[tuple[ValueSymbol, Fraction], ...]:
        """The symbol exponents as fractions."""
        return tuple((s, Fraction(e, self.den)) for s, e in self.powers)

    @property
    def is_one(self) -> bool:
        return self.den == 1 and not self.powers

    @property
    def is_root_of_unity(self) -> bool:
        return not self.powers

    def value_order(self) -> int | None:
        """Multiplicative order, or None when infinite."""
        return None if self.powers else self.den

    def modulus_class(self) -> str:
        """'off_circle', 'circle_free' (modulus one, infinite order) or 'torsion'."""
        if any(not s.on_circle for s, _ in self.powers):
            return "off_circle"
        if self.powers:
            return "circle_free"
        return "torsion"

    def __str__(self) -> str:
        parts = []
        if self.num:
            parts.append(f"zeta({self.torsion})")
        for s, e in self.powers:
            parts.append(s.name if e == self.den
                         else f"{s.name}^{Fraction(e, self.den)}")
        return " * ".join(parts) if parts else "1"


ONE = UnitValue()


def root_of_unity(num, den=1) -> UnitValue:
    """exp(2*pi*i*num/den)."""
    return _value(num, den, ()) if den > 0 else _value(-num, -den, ())


def symbol_value(sym: ValueSymbol, exp=1) -> UnitValue:
    if isinstance(exp, int):
        return UnitValue(0, 1, ((sym, exp),) if exp else ())
    return UnitValue(0, 1, ((sym, 1),)) ** exp


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
    # the product of v ** q over the generators as one integer dot product
    # over their common denominator; zip drops val_c when the domain has no
    # centre part (no quotient)
    num, den, powers = 0, 1, ()
    for q, v in zip(quots, chi.vals1 + chi.vals2 + (chi.val_c,)):
        if not q:
            continue
        if den % v.den:  # bring the sum so far to the new denominator
            scale = math.lcm(den, v.den) // den
            num, den = num * scale, den * scale
            powers = _scaled(powers, scale)
        k = q * (den // v.den)
        num += k * v.num
        if v.powers:
            powers = _merge(powers, 1, v.powers, k)
    return _value(num, den, powers)


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
        # y is the primitive m-th root of unity zeta(num(y)/m); x must be an
        # m-th root of unity, and n * num(y) = -num(x) * m/den(x) (mod m)
        # pins n modulo m
        if x.powers or m % x.den:
            return None
        _, pinv, _ = intlin.xgcd(y.num, m)
        n0 = (-x.num * (m // x.den) * pinv) % m
        return (n0, m) if (x * y ** n0).is_one else None
    # infinite order: matching any exponent of y pins n uniquely
    xe = dict(x.powers)
    n = None
    for s, ye in y.powers:
        cand, rem = divmod(-xe.get(s, 0) * y.den, ye * x.den)
        if rem:
            return None
        if n is None:
            n = cand
        elif n != cand:
            return None
    if n is None or not (x * y ** n).is_one:
        return None
    return (n, 0)


def level2_gate(h: Subgroup, chi: Character) -> list[tuple[int, ...]]:
    """HNF basis of the lattice of (A, F) such that chi agrees with its
    conjugate by an element with a = A, f = F on the level-2 generators
    of h, which must contain the full centre.

    Conjugating s in h.gens2 by such an element moves it by the central
    power A*s.e - s.b*F, and the other coordinates move it not at all,
    so agreement asks lambda**(A*s.e - s.b*F) == 1 for every s: linear
    congruences modulo the order of lambda (equations when that order
    is infinite).  When (A, F) is outside, no element over it agrees.
    """
    n = len(h.gens2)
    if not n:
        return [(1, 0), (0, 1)]
    order = chi.val_c.value_order()
    modulus = [] if order is None else [
        [order if i == j else 0 for j in range(n)] for i in range(n)]
    return intlin.preimage([[s.e for s in h.gens2],
                            [-s.b for s in h.gens2]], modulus)


def agreement_conditions(chi: Character, g0: Elt, ks):
    """When chi agrees with its conjugate by g0 * elt(b=B, e=E) on the
    level-1 part of its domain, as congruences on (B, E); level2_gate
    covers the rest.

    chi's domain must contain the full centre, and ks are the elements
    of level1_sublattice(chi.sub, *g0[:3]).  Conjugating by elt(b=B,
    e=E) moves an element k by the central power B*k.f - E*k.a, so each
    k gives one condition ((k.f, -k.a), sol): cb*B + ce*E must be a
    solution n of rho * lambda**n == 1, rho the ratio chi takes between
    k's conjugate by g0 and k, that is its value on the commutator
    g0 k g0^-1 k^-1, with sol as from power_solutions ("all", or
    (n0, q)).  Returns None when some condition has no solution.
    """
    lam = chi.val_c
    out = []
    for k in ks:
        sol = power_solutions(evaluate(chi, commutator(g0, k)), lam)
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
