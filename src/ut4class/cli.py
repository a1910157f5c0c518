"""Command line interface for the classification toolkit.

Requests are JSON objects read from a file argument or standard input.
Each subcommand accepts either its bare payload or an envelope
{"command": ..., "payload": ...} whose command field must match the
subcommand on the command line.  Payload shapes live in
docs/schemas.md; group elements are six-entry integer rows in the
coordinate order [a, d, f, b, e, c] (matrix positions (1,2), (2,3),
(3,4), (1,3), (2,4), (1,4)).  Numbers must be JSON integers (1.0 is
refused); a payload of the wrong shape exits 2 before any group
computation, with one line naming the first offending field.

Responses print as a short text summary by default, or as JSON with
--json (compact) or --pretty (indented).  The tool is stateless and
deterministic: the same request always produces the same response.

Exit codes: 0 success, 2 malformed request or command line, 3 unmet
precondition (inadmissible input, inconsistent values, ambiguous
numeric lifting), 4 internal inconsistency, 5 capacity exceeded (a
valid request needing more enumeration than the tool's cap).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from fractions import Fraction

from . import cases, classify, oracle
from .characters import (
    ValueSymbol,
    root_of_unity,
    solve_character,
    symbol_value,
)
from .core import Elt
from .subgroup import CapacityError, isolator, subgroup

# --------------------------------------------------------------- requests


class RequestError(Exception):
    """A request without the shape its command needs (exit 2).  Not a
    ValueError, which main reports as an unmet precondition (exit 3)."""


def _row(x, n: int, kind: type) -> bool:
    """x is a list of n entries of type kind exactly: true and 1.0 are not
    integers, so no bool or float reaches the exact arithmetic."""
    return (isinstance(x, list) and len(x) == n
            and all(type(v) is kind for v in x))


def _leaf(ok, what: str):
    """The check of a value that must pass ok."""
    def check(x, where: str) -> None:
        if not ok(x):
            raise RequestError(f"{where}: expected {what}")
    return check


def _list_of(check_entry, what: str):
    """The check of a list of at most 64 entries passing check_entry."""
    def check(x, where: str) -> None:
        if not (isinstance(x, list) and len(x) <= 64):
            raise RequestError(f"{where}: expected {what}")
        for i, entry in enumerate(x):
            check_entry(entry, f"{where}[{i}]")
    return check


def _check_object(x, where: str, required: tuple, optional=()) -> None:
    """Refuse x unless it is an object with every required key and no
    other key but the optional ones, each value passing its key's check
    in _FIELDS.  The first fault is reported: a missing key in the order
    given, else an unexpected key in sorted order, else a bad value."""
    if not isinstance(x, dict):
        raise RequestError(f"{where}: expected an object")
    for key in required:
        if key not in x:
            raise RequestError(f"{where}: missing key {key!r}")
    for key in sorted(x):
        if key not in required + optional:
            raise RequestError(f"{where}: unexpected key {key!r}")
    for key in required + optional:
        if key in x:
            _FIELDS[key](x[key], f"{where}.{key}")


def _check_value(x, where: str) -> None:
    form = next((k for k in ("symbol", "root_of_unity", "numeric")
                 if isinstance(x, dict) and k in x), None)
    if form:
        _check_object(x, where, (form,),
                      ("on_circle", "power") if form == "symbol" else ())
    elif not (type(x) is str and x):
        raise RequestError(f"{where}: expected a non-empty string or an "
                           "object with key 'symbol', 'root_of_unity' or "
                           "'numeric'")


_PAIR = (("generators", "values"), ())

# a key means the same in every request: the check of its value
_FIELDS = {
    "generators": _list_of(_leaf(lambda x: _row(x, 6, int),
                                 "a list of 6 integers"),
                           "a list of at most 64 rows"),
    "values": _list_of(_check_value, "a list of at most 64 values"),
    "first": lambda x, where: _check_object(x, where, *_PAIR),
    "second": lambda x, where: _check_object(x, where, *_PAIR),
    "case": _leaf(lambda x: _row(x, 2, int) and tuple(x) in cases.CASES,
                  "a rank pair, one of "
                  + ", ".join(str(list(r)) for r in cases.CASES)),
    "subset": _leaf(lambda x: isinstance(x, str), "a string"),
    "symbol": _leaf(lambda x: type(x) is str and x, "a non-empty string"),
    "on_circle": _leaf(lambda x: type(x) is bool, "true or false"),
    "power": _leaf(lambda x: type(x) is int, "an integer"),
    "root_of_unity": _leaf(lambda x: _row(x, 2, int), "a list of 2 integers"),
    "numeric": _leaf(lambda x: _row(x, 2, str) and all(x),
                     "a list of 2 non-empty strings"),
}

# ------------------------------------------------------- value construction


def _farey_bracket(x: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """The nearest fractions with denominator at most n below and above x
    (x twice when its own denominator is at most n): the last convergent
    of x's continued fraction that fits and the largest semiconvergent
    after it, as in Fraction.limit_denominator."""
    if x.denominator <= n:
        return x, x
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = x.numerator, x.denominator
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > n:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (n - q0) // q1
    semi, conv = Fraction(p0 + k * p1, q0 + k * q1), Fraction(p1, q1)
    return min(semi, conv), max(semi, conv)


def _arc_fractions(center: Fraction, half: Fraction,
                   n: int) -> list[Fraction]:
    """The least two fractions of [0, 1) with denominator at most n that
    lie within `half` of `center` on the circle of turns, in increasing
    order (two tell one root from several).  Each step is a
    continued-fraction search, so the cost does not grow with n."""
    lo = center - half
    lo -= math.floor(lo)
    hi = lo + 2 * half
    # an arc across 0 splits; 1 is 0 again, so the upper piece stops short
    pieces = [(lo, hi)] if hi < 1 else [(Fraction(0), hi - 1), (lo, 1)]
    out: list[Fraction] = []
    for left, right in pieces:
        x = _farey_bracket(left, n)[1]
        while x <= right and x < 1 and len(out) < 2:
            out.append(x)
            # the next fraction of denominator <= n lies over 1/n^2 above
            x = _farey_bracket(x + Fraction(1, 2 * n * n), n)[1]
    return out


class _NumericLifter:
    """Lifts decimal re/im pairs to exact unit values.

    A value whose modulus sits within the tolerance of 1 is matched
    against the roots of unity with denominator up to q_max: those within
    the chord tolerance are the fractions of a turn inside an arc around
    the value's angle.  Exactly one such root is accepted, several are
    refused as ambiguous, none yields a fresh modulus-one symbol.
    Off-circle values get a fresh generic symbol.  Identical literal
    pairs share their symbol, so lifting is deterministic per request.
    """

    def __init__(self, q_max: int, tolerance: float) -> None:
        self.q_max = q_max
        self.tolerance = tolerance
        self._cache: dict[tuple[str, str], object] = {}
        self._fresh = 0

    def lift(self, re_s: str, im_s: str):
        key = (re_s, im_s)
        if key in self._cache:
            return self._cache[key]
        try:
            z = complex(float(re_s), float(im_s))
            finite = cmath.isfinite(z)
        except ValueError:
            finite = False
        if not finite:
            raise ValueError(f"bad decimal pair ({re_s!r}, {im_s!r})")
        if z == 0:
            raise ValueError("character values must be nonzero")
        r, tol = abs(z), self.tolerance
        if abs(r - 1.0) > tol:
            self._fresh += 1
            val = symbol_value(ValueSymbol(f"u{self._fresh}", on_circle=False))
        else:
            turns = math.atan2(z.imag, z.real) / (2.0 * math.pi)
            # |z - w|^2 = (r - 1)^2 + 4 r sin^2(theta / 2) for w on the
            # unit circle at angle theta from z, so |z - w| <= tol exactly
            # when theta / 2 <= asin(sqrt((tol^2 - (r - 1)^2) / (4 r)))
            half = math.asin(math.sqrt(
                (tol * tol - (r - 1.0) ** 2) / (4.0 * r))) / math.pi
            found = _arc_fractions(Fraction(turns), Fraction(half),
                                   self.q_max)
            if len(found) > 1:
                a, b = found
                raise ValueError(
                    "ambiguous numeric value: within tolerance of the roots "
                    f"of unity {a} and {b} (as fractions of a full turn); "
                    "tighten --tolerance or lower --numeric-q")
            if found:
                fr = found[0]
                val = root_of_unity(fr.numerator, fr.denominator)
            else:
                self._fresh += 1
                val = symbol_value(
                    ValueSymbol(f"w{self._fresh}", on_circle=True))
        self._cache[key] = val
        return val


def _value(spec, lifter: _NumericLifter):
    if isinstance(spec, str):
        return symbol_value(ValueSymbol(spec, on_circle=False))
    if "symbol" in spec:
        sym = ValueSymbol(spec["symbol"], spec.get("on_circle", False))
        return symbol_value(sym, spec.get("power", 1))
    if "root_of_unity" in spec:
        num, den = spec["root_of_unity"]
        if den < 1:
            raise ValueError("root-of-unity denominator must be positive")
        return root_of_unity(num, den)
    re_s, im_s = spec["numeric"]
    return lifter.lift(re_s, im_s)


def _pair_obj(spec: dict, lifter: _NumericLifter):
    gens = [Elt(*row) for row in spec["generators"]]
    sub = subgroup(gens)
    raw = spec.get("values")
    if raw is None:
        return sub, None
    if len(raw) != len(gens):
        raise ValueError("need exactly one value per generator")
    values = [_value(v, lifter) for v in raw]
    return sub, solve_character(sub, gens, values)


# --------------------------------------------------------------- handlers


def _cmd_classify(payload, args):
    lifter = _NumericLifter(args.numeric_q, args.tolerance)
    sub, chi = _pair_obj(payload, lifter)
    if chi is not None:
        return classify.is_irreducible(sub, chi).to_json()
    nf = classify.normal_form(sub)
    out = nf.to_json()
    try:
        out["subset"] = cases.subset_of(nf.ranks, nf.params)
    except cases.NoSubsetError as exc:
        out["subset"] = None
        out["note"] = str(exc)
    return out


def _cmd_irreducible(payload, args):
    lifter = _NumericLifter(args.numeric_q, args.tolerance)
    sub, chi = _pair_obj(payload, lifter)
    return classify.is_irreducible(sub, chi).to_json()


def _cmd_stratum(payload, args):
    lifter = _NumericLifter(args.numeric_q, args.tolerance)
    sub, chi = _pair_obj(payload, lifter)
    return classify.stratum(sub, chi).to_json()


def _cmd_equivalent(payload, args):
    lifter = _NumericLifter(args.numeric_q, args.tolerance)
    s1, c1 = _pair_obj(payload["first"], lifter)
    s2, c2 = _pair_obj(payload["second"], lifter)
    return classify.equivalent(s1, c1, s2, c2)


def _cmd_isolator(payload, args):
    sub = subgroup([Elt(*row) for row in payload["generators"]])
    return {
        "isolator": isolator(sub).summary(),
        "is_isolated": classify.is_isolated(sub),
    }


def _cmd_ranks(payload, args):
    sub = subgroup([Elt(*row) for row in payload["generators"]])
    r1, r2, r3 = sub.rank_signature()
    return {"rk1": r1, "rk2": r2, "rk3": r3,
            "hirsch_length": sub.hirsch_length()}


def _cmd_f_equivalents(payload, args):
    lifter = _NumericLifter(args.numeric_q, args.tolerance)
    sub, chi = _pair_obj(payload, lifter)
    return classify.f_equivalents(sub, chi, limit=args.limit)


def _cmd_verify(payload, args):
    return oracle.verify_case(tuple(payload["case"]),
                              (-args.box, args.box), limit=args.limit)


def _cmd_enumerate(payload, args):
    ranks = tuple(payload["case"])
    want = payload.get("subset")
    items = []
    for p in cases.param_box(ranks, (-args.box, args.box)):
        ss = cases.subset_of(ranks, p)
        if want is not None and ss != want:
            continue
        sub = cases.build_subgroup(ranks, p)
        items.append({
            "params": list(p),
            "subset": ss,
            "generators": [[g.a, g.d, g.f, g.b, g.e, g.c]
                           for g in sub.generators()],
        })
        if len(items) >= args.limit:
            break
    return {"case": list(ranks), "count": len(items), "items": items}


# each command: its handler, and the required and the optional keys of
# its payload
_COMMANDS = {
    "classify": (_cmd_classify, ("generators",), ("values",)),
    "irreducible": (_cmd_irreducible, *_PAIR),
    "stratum": (_cmd_stratum, *_PAIR),
    "equivalent": (_cmd_equivalent, ("first", "second"), ()),
    "isolator": (_cmd_isolator, ("generators",), ()),
    "ranks": (_cmd_ranks, ("generators",), ()),
    "f-equivalents": (_cmd_f_equivalents, *_PAIR),
    "verify": (_cmd_verify, ("case",), ()),
    "enumerate": (_cmd_enumerate, ("case",), ("subset",)),
}

# ----------------------------------------------------------------- output


def _fiber_text(f: dict) -> str:
    kind = f["kind"]
    bits = [kind]
    if f.get("moduli"):
        bits.append("[" + ", ".join(f["moduli"]) + "]")
    if f.get("order") is not None:
        bits.append(f"order {f['order']}")
    if f.get("constraint"):
        bits.append(f"({f['constraint']})")
    return " ".join(bits)


def _human(command: str, res: dict) -> str:
    if command in ("classify", "irreducible"):
        ranks = res["ranks"]
        lines = [f"case ({ranks[0]},{ranks[1]})  subset {res.get('subset')}  "
                 f"params {tuple(res['params'])}"]
        if "irreducible" in res:
            lines.append(f"irreducible: {res['irreducible']}")
            cert = res.get("certificate") or {}
            if cert.get("reason"):
                lines.append(f"reason: {cert['reason']}")
        if res.get("note"):
            lines.append(res["note"])
        return "\n".join(lines)
    if command == "stratum":
        lines = [f"row {res['row']} of {res['table_size']} for case "
                 f"({res['ranks'][0]},{res['ranks'][1]}) subset "
                 f"{res['subset']}"]
        for f in res["fibers"]:
            lines.append("  fiber: " + _fiber_text(f))
        if res.get("selector"):
            lines.append(f"selector: {res['selector']}")
        return "\n".join(lines)
    if command == "equivalent":
        line = res["status"]
        if "conjugator" in res:
            line += f"  conjugator {tuple(res['conjugator'])}"
        if res.get("invariant"):
            line += f"  ({res['invariant']})"
        return line
    if command == "isolator":
        iso = res["isolator"]
        return (f"isolated: {res['is_isolated']}\n"
                f"isolator rank signature {tuple(iso['rank_signature'])}, "
                f"level1 {iso['level1']}, level2 {iso['level2']}, "
                f"center {iso['center']}")
    if command == "ranks":
        return (f"rk1 {res['rk1']}  rk2 {res['rk2']}  rk3 {res['rk3']}  "
                f"hirsch {res['hirsch_length']}")
    if command == "f-equivalents":
        lines = [f"{len(res['companions'])} companion(s)"]
        for comp in res["companions"]:
            lines.append(f"  params {tuple(comp['params'])} subset "
                         f"{comp['subset']}: {comp['note']}")
        return "\n".join(lines)
    if command == "verify":
        return (f"case ({res['case'][0]},{res['case'][1]}): "
                f"{res['params_checked']} tuples checked, "
                f"{len(res['discrepancies'])} discrepancies, "
                f"{len(res['alternate_readings'])} alternate readings")
    if command == "enumerate":
        lines = [f"params {tuple(it['params'])}  subset {it['subset']}"
                 for it in res["items"]]
        lines.append(f"count {res['count']}")
        return "\n".join(lines)
    return json.dumps(res, indent=2, sort_keys=True)


# ------------------------------------------------------------ entry point


def _read_payload(args) -> dict:
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, and the errors of the decoder itself: an integer
        # past Python's digit limit, or nesting past the recursion limit
        raise RequestError(str(exc)) from None
    if isinstance(obj, dict) and "command" in obj:
        if obj.get("command") != args.command:
            raise RequestError(
                f"envelope names command {obj.get('command')!r} but the "
                f"command line says {args.command!r}")
        if "payload" not in obj:
            raise RequestError("envelope without payload")
        obj = obj["payload"]
    _check_object(obj, "payload", *_COMMANDS[args.command][1:])
    return obj


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def _tolerance(text: str) -> float:
    t = float(text)
    if not 0.0 < t <= 1e-3:
        raise argparse.ArgumentTypeError("tolerance must lie in (0, 1e-3]")
    return t


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once: a parser is a web of
    reference cycles, so one per request would leave garbage that only
    the cyclic collector frees."""
    ap = argparse.ArgumentParser(
        prog="ut4class",
        description="Classify monomial representations of the group of "
                    "unitriangular 4x4 integer matrices.")
    sp = ap.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, box=None, limit=None):
        p = sp.add_parser(name, help=help_text)
        p.add_argument("path", nargs="?", default="-",
                       help="JSON request file (default: standard input)")
        p.add_argument("--json", action="store_true",
                       help="print the response as compact JSON")
        p.add_argument("--pretty", action="store_true",
                       help="print the response as indented JSON")
        p.add_argument("--numeric-q", type=_positive, default=120,
                       metavar="Q", help="largest root-of-unity order tried "
                       "when lifting numeric values (default 120)")
        p.add_argument("--tolerance", type=_tolerance, default=1e-9,
                       metavar="T", help="numeric lifting tolerance, in "
                       "(0, 1e-3] (default 1e-9)")
        if box is not None:
            p.add_argument("--box", type=int, default=box,
                           help=f"parameter box half-width (default {box})")
        if limit is not None:
            p.add_argument("--limit", type=_positive, default=limit,
                           help=f"maximum items processed (default {limit})")
        return p

    add("classify", "normal form and subset; with values, full verdict")
    add("irreducible", "decide irreducibility of a subgroup/character pair")
    add("stratum", "the stratum row carrying an irreducible pair")
    add("equivalent", "decide conjugacy of two pairs")
    add("isolator", "isolator subgroup and isolation test")
    add("ranks", "rank signature and Hirsch length")
    add("f-equivalents", "finite-weight companions with equal restriction",
        limit=20)
    add("verify", "sweep a case's parameter box against first principles",
        box=3, limit=2000)
    add("enumerate", "stream admissible parameter tuples for a case",
        box=2, limit=1000)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = _read_payload(args)
        result = _COMMANDS[args.command][0](payload, args)
    except RequestError as exc:
        print(f"request error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"request error: {exc}", file=sys.stderr)
        return 2
    if args.pretty:
        print(json.dumps(result, indent=2, sort_keys=True))
    elif args.json:
        print(json.dumps(result, sort_keys=True, separators=(",", ":")))
    else:
        print(_human(args.command, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
