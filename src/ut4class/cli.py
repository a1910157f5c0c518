"""Command line interface for the classification toolkit.

Requests are JSON objects read from a file argument or standard input.
Each subcommand accepts either its bare payload or an envelope
{"command": ..., "payload": ...} whose command field must match the
subcommand on the command line.  Payload schemas live in
docs/schemas.md; group elements are six-entry integer rows in the
coordinate order [a, d, f, b, e, c] (matrix positions (1,2), (2,3),
(3,4), (1,3), (2,4), (1,4)).

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
import functools
import json
import math
import sys
from fractions import Fraction

import jsonschema

from . import cases, classify, oracle
from .characters import (
    ValueSymbol,
    root_of_unity,
    solve_character,
    symbol_value,
)
from .core import Elt
from .subgroup import CapacityError, isolator, subgroup

# ---------------------------------------------------------------- schemas

_INT6 = {
    "type": "array",
    "items": {"type": "integer"},
    "minItems": 6,
    "maxItems": 6,
}

_GENS = {"type": "array", "items": _INT6, "maxItems": 64}

_VALUE = {
    "oneOf": [
        {"type": "string", "minLength": 1},
        {
            "type": "object",
            "properties": {
                "symbol": {"type": "string", "minLength": 1},
                "on_circle": {"type": "boolean"},
                "power": {"type": "integer"},
            },
            "required": ["symbol"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "root_of_unity": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "required": ["root_of_unity"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "numeric": {
                    "type": "array",
                    "items": {"type": "string", "minLength": 1},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "required": ["numeric"],
            "additionalProperties": False,
        },
    ],
}

_VALUES = {"type": "array", "items": _VALUE, "maxItems": 64}


def _pair_schema(values_required: bool) -> dict:
    return {
        "type": "object",
        "properties": {"generators": _GENS, "values": _VALUES},
        "required": ["generators", "values"] if values_required
        else ["generators"],
        "additionalProperties": False,
    }


_GENS_ONLY = {
    "type": "object",
    "properties": {"generators": _GENS},
    "required": ["generators"],
    "additionalProperties": False,
}

_CASE = {"enum": [[1, 1], [2, 0], [2, 1], [1, 2], [2, 2], [3, 2]]}

_SCHEMAS = {
    "classify": _pair_schema(False),
    "irreducible": _pair_schema(True),
    "stratum": _pair_schema(True),
    "equivalent": {
        "type": "object",
        "properties": {
            "first": _pair_schema(True),
            "second": _pair_schema(True),
        },
        "required": ["first", "second"],
        "additionalProperties": False,
    },
    "isolator": _GENS_ONLY,
    "ranks": _GENS_ONLY,
    "f-equivalents": _pair_schema(True),
    "verify": {
        "type": "object",
        "properties": {"case": _CASE},
        "required": ["case"],
        "additionalProperties": False,
    },
    "enumerate": {
        "type": "object",
        "properties": {"case": _CASE, "subset": {"type": "string"}},
        "required": ["case"],
        "additionalProperties": False,
    },
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
        except ValueError:
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
        sym = ValueSymbol(spec["symbol"], bool(spec.get("on_circle", False)))
        return symbol_value(sym, spec.get("power", 1))
    if "root_of_unity" in spec:
        num, den = spec["root_of_unity"]
        if den < 1:
            raise ValueError("root-of-unity denominator must be positive")
        return root_of_unity(num, den)
    re_s, im_s = spec["numeric"]
    return lifter.lift(re_s, im_s)


def _pair_obj(spec: dict, lifter: _NumericLifter, need_values: bool):
    gens = [Elt(*row) for row in spec["generators"]]
    sub = subgroup(gens)
    raw = spec.get("values")
    if raw is None:
        if need_values:
            raise ValueError("this command needs character values")
        return sub, None
    if len(raw) != len(gens):
        raise ValueError("need exactly one value per generator")
    values = [_value(v, lifter) for v in raw]
    return sub, solve_character(sub, gens, values)


# --------------------------------------------------------------- handlers


def _cmd_classify(payload, args):
    lifter = _NumericLifter(args.numeric_q, args.tolerance)
    sub, chi = _pair_obj(payload, lifter, need_values=False)
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
    sub, chi = _pair_obj(payload, lifter, need_values=True)
    return classify.is_irreducible(sub, chi).to_json()


def _cmd_stratum(payload, args):
    lifter = _NumericLifter(args.numeric_q, args.tolerance)
    sub, chi = _pair_obj(payload, lifter, need_values=True)
    return classify.stratum(sub, chi).to_json()


def _cmd_equivalent(payload, args):
    lifter = _NumericLifter(args.numeric_q, args.tolerance)
    s1, c1 = _pair_obj(payload["first"], lifter, need_values=True)
    s2, c2 = _pair_obj(payload["second"], lifter, need_values=True)
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
    sub, chi = _pair_obj(payload, lifter, need_values=True)
    return classify.f_equivalents(sub, chi, limit=args.limit)


def _cmd_verify(payload, args):
    return oracle.verify_case(tuple(payload["case"]),
                              (-args.box, args.box), limit=args.limit)


def _cmd_enumerate(payload, args):
    ranks = tuple(payload["case"])
    want = payload.get("subset")
    items = []
    for p in cases.enumerate_params(ranks, (-args.box, args.box)):
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


_HANDLERS = {
    "classify": _cmd_classify,
    "irreducible": _cmd_irreducible,
    "stratum": _cmd_stratum,
    "equivalent": _cmd_equivalent,
    "isolator": _cmd_isolator,
    "ranks": _cmd_ranks,
    "f-equivalents": _cmd_f_equivalents,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
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


@functools.cache
def _validator(command: str):
    """Validator for one command's schema, checked against its metaschema
    once rather than on every request."""
    schema = _SCHEMAS[command]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _read_payload(args) -> dict:
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    obj = json.loads(text)
    if isinstance(obj, dict) and "command" in obj:
        if obj.get("command") != args.command:
            raise jsonschema.ValidationError(
                f"envelope names command {obj.get('command')!r} but the "
                f"command line says {args.command!r}")
        if "payload" not in obj:
            raise jsonschema.ValidationError("envelope without payload")
        obj = obj["payload"]
    # the error jsonschema.validate would raise
    error = jsonschema.exceptions.best_match(
        _validator(args.command).iter_errors(obj))
    if error is not None:
        raise error
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
        result = _HANDLERS[args.command](payload, args)
    except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
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
