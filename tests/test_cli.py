"""End-to-end tests for the JSON command line interface."""

import cmath
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ut4class

from ut4class import cases, cli
from ut4class.characters import root_of_unity
from ut4class.core import conjugate, elt


def run(tmp_path, capsys, cmd, payload, *flags):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    rc = cli.main([cmd, str(path), *flags])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def replay(cmd, payload, *flags):
    """One request on standard input: (exit code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = (io.StringIO(json.dumps(payload)),
                                         io.StringIO(), io.StringIO())
    try:
        rc = cli.main([cmd, "-", *flags])
        return rc, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def rows_for(ranks, params):
    sub = cases.build_subgroup(ranks, params)
    return [[g.a, g.d, g.f, g.b, g.e, g.c] for g in sub.generators()]


FULL_GROUP = [
    [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1],
]


def test_ranks_of_full_group(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "ranks", {"generators": FULL_GROUP},
                     "--json")
    assert rc == 0
    assert json.loads(out) == {"rk1": 3, "rk2": 2, "rk3": 1,
                               "hirsch_length": 6}


def test_ranks_reads_standard_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin",
                        io.StringIO(json.dumps({"generators": FULL_GROUP})))
    rc = cli.main(["ranks", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["rk1"] == 3


def test_classify_reports_subset_and_normal_form(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "classify",
                     {"generators": rows_for((1, 1), (1, 0, 1, 0, 0))},
                     "--json")
    assert rc == 0
    res = json.loads(out)
    assert res["ranks"] == [1, 1]
    assert res["subset"] == "S4"
    assert res["params"] == [1, 0, 1, 0, 0]
    assert res["conjugator"] == [0, 0, 0, 0, 0, 0]


def test_classify_with_values_gives_verdict(tmp_path, capsys):
    payload = {"generators": rows_for((1, 1), (1, 0, 1, 0, 0)),
               "values": ["t", "z", "lam"]}
    rc, out, _ = run(tmp_path, capsys, "classify", payload, "--json")
    assert rc == 0
    res = json.loads(out)
    assert res["irreducible"] is True
    assert res["certificate"]["conditions"]


def test_numeric_lifting_exact_for_small_orders():
    # every root of unity with denominator up to 12 round-trips exactly
    lifter = cli._NumericLifter(q_max=120, tolerance=1e-9)
    for q in range(1, 13):
        for p in range(q):
            z = cmath.exp(2j * math.pi * p / q)
            got = lifter.lift(repr(z.real), repr(z.imag))
            assert got == root_of_unity(p, q), (p, q)


def test_numeric_lifting_fresh_symbols():
    lifter = cli._NumericLifter(q_max=120, tolerance=1e-9)
    off = lifter.lift("0.5", "0")
    assert off.modulus_class() == "off_circle"
    z = cmath.exp(2j * math.pi * 0.1234)
    free = lifter.lift(repr(z.real), repr(z.imag))
    assert free.modulus_class() == "circle_free"
    # identical literals share their lifted value
    assert lifter.lift("0.5", "0") == off


def test_numeric_lifting_ambiguity_refused(tmp_path, capsys):
    t = (1.0 / 119.0 + 1.0 / 120.0) / 2.0
    z = cmath.exp(2j * math.pi * t)
    lifter = cli._NumericLifter(q_max=120, tolerance=1e-3)
    with pytest.raises(ValueError, match="ambiguous"):
        lifter.lift(repr(z.real), repr(z.imag))
    payload = {"generators": rows_for((1, 1), (1, 0, 1, 0, 0)),
               "values": ["t", "z", {"numeric": [repr(z.real),
                                                 repr(z.imag)]}]}
    rc, _, err = run(tmp_path, capsys, "irreducible", payload,
                     "--tolerance", "1e-3")
    assert rc == 3
    assert "ambiguous" in err


def scan_lift(z, q_max, tol):
    """The lifting rule as a scan over every denominator q <= q_max of the
    nearest fraction p/q, tested on the chord: ("root", turns),
    ("ambiguous", first, second), "free" or "off"."""
    if abs(abs(z) - 1.0) > tol:
        return "off"
    turns = math.atan2(z.imag, z.real) / (2.0 * math.pi)
    found = set()
    for q in range(1, q_max + 1):
        p = round(turns * q)
        if abs(z - cmath.exp(2j * math.pi * p / q)) <= tol:
            found.add(Fraction(p, q) % 1)
    if len(found) > 1:
        return ("ambiguous", *sorted(found)[:2])
    return ("root", found.pop()) if found else "free"


def arc_lift(z, q_max, tol):
    """The same outcome read off _NumericLifter."""
    try:
        v = cli._NumericLifter(q_max, tol).lift(repr(z.real), repr(z.imag))
    except ValueError as exc:
        names = str(exc).split("roots of unity ")[1].split(" (as")[0]
        return ("ambiguous", *map(Fraction, names.split(" and ")))
    kind = v.modulus_class()
    if kind == "torsion":
        return ("root", v.torsion)
    return "off" if kind == "off_circle" else "free"


def test_numeric_lifting_matches_the_denominator_scan():
    # while q_max * tol < pi at most one fraction per denominator fits in
    # the arc, so the arc search and the scan over every q <= q_max must
    # agree: same lifted value, same two fractions named as ambiguous
    rng = random.Random(5)
    seen = set()
    for tol in (1e-9, 1e-6, 1e-4, 1e-3):
        for q_max in (1, 2, 7, 12, 120, 1000):
            if q_max * tol >= 1:
                continue
            half = tol / (2 * math.pi)
            angles = [0.0, 0.5, -0.5, 1e-12, -1e-12, rng.random()]
            for _ in range(8):
                q = rng.randint(1, 150)
                base = rng.randrange(q) / q
                angles += [base, base + rng.uniform(-0.3, 0.3) * half,
                           base + rng.choice((-1, 1)) * half
                           * rng.uniform(0.9, 1.1)]
                q2 = rng.randint(2, 150)
                angles.append((base + rng.randrange(q2) / q2) / 2)
            for t in angles:
                for radius in (1.0, 1.0 + tol / 2, 1.0 - 0.9 * tol,
                               1.0 + 2 * tol):
                    z = radius * cmath.exp(2j * math.pi * t)
                    want = scan_lift(z, q_max, tol)
                    assert arc_lift(z, q_max, tol) == want, (tol, q_max, t)
                    seen.add(want if isinstance(want, str) else want[0])
    assert seen == {"root", "ambiguous", "free", "off"}


def test_numeric_lifting_counts_every_root_in_the_arc():
    # with q_max * tol beyond pi a denominator can hold several fractions
    # of the arc; a scan of the nearest one per denominator sees only 0
    # here, yet zeta(1/10000) lies within 6.3e-4 of 1 as well
    assert scan_lift(1 + 0j, 10000, 1e-3) == ("root", 0)
    with pytest.raises(ValueError, match="roots of unity 0 and 1/10000 "):
        cli._NumericLifter(10000, 1e-3).lift("1.0", "0.0")


def test_numeric_lifting_large_bound_is_fast(tmp_path, capsys):
    z = cmath.exp(2j * math.pi / 6)
    payload = {"generators": rows_for((1, 1), (1, 0, 1, 0, 0)),
               "values": ["t", "z", {"numeric": [repr(z.real),
                                                 repr(z.imag)]}]}
    t0 = time.perf_counter()
    rc, out, _ = run(tmp_path, capsys, "classify", payload,
                     "--numeric-q", "100000000", "--json")
    assert time.perf_counter() - t0 < 1
    assert rc == 0
    assert json.loads(out)["certificate"]["values"]["lambda"] == "zeta(1/6)"


def test_stratum_numeric_central_value_off_circle(tmp_path, capsys):
    payload = {"generators": rows_for((1, 1), (1, 0, 1, 0, 0)),
               "values": ["t", "z", {"numeric": ["0.5", "0"]}]}
    rc, out, _ = run(tmp_path, capsys, "stratum", payload, "--json")
    assert rc == 0
    res = json.loads(out)
    assert res["selector"] == "lambda off the circle"
    assert res["fibers"][-1] == {"kind": "Cstar", "constraint": "off_circle"}
    assert 1 <= res["row"] <= res["table_size"]


def test_stratum_rejects_reducible_pair(tmp_path, capsys):
    payload = {"generators": rows_for((1, 1), (1, 0, 1, 0, 0)),
               "values": ["t", "z", {"root_of_unity": [1, 3]}]}
    rc, _, err = run(tmp_path, capsys, "stratum", payload)
    assert rc == 3
    assert "not irreducible" in err


def test_equivalent_conjugated_pair(tmp_path, capsys):
    gens = [elt(a=g[0], d=g[1], f=g[2], b=g[3], e=g[4], c=g[5])
            for g in rows_for((1, 1), (2, 1, 2, 0, 0))]
    u = elt(a=1, b=2, e=-1)
    moved = [conjugate(g, u) for g in gens]
    rows2 = [[g.a, g.d, g.f, g.b, g.e, g.c] for g in moved]
    payload = {
        "first": {"generators": rows_for((1, 1), (2, 1, 2, 0, 0)),
                  "values": ["t", "z", "lam"]},
        "second": {"generators": rows2, "values": ["t", "z", "lam"]},
    }
    rc, out, _ = run(tmp_path, capsys, "equivalent", payload, "--json")
    assert rc == 0
    res = json.loads(out)
    assert res["status"] == "equivalent"
    assert "conjugator" in res


def test_equivalent_rank_mismatch_proved(tmp_path, capsys):
    payload = {
        "first": {"generators": rows_for((1, 1), (1, 0, 1, 0, 0)),
                  "values": ["t", "z", "lam"]},
        "second": {"generators": rows_for((2, 0), (1, 0, 0, 1, 0, 0)),
                   "values": ["t", "w", "lam"]},
    }
    rc, out, _ = run(tmp_path, capsys, "equivalent", payload, "--json")
    assert rc == 0
    assert json.loads(out)["status"] == "not equivalent (proved)"


# (1,1) pairs on one set of generators: a level-1 generator, the primitive
# corner direction and the centre
PAIR_11 = [[1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1]]


def test_equivalent_text_names_the_invariant(tmp_path, capsys):
    payload = {"first": {"generators": PAIR_11, "values": ["t", "z", "lam"]},
               "second": {"generators": PAIR_11, "values": ["t", "z", "mu"]}}
    rc, out, _ = run(tmp_path, capsys, "equivalent", payload)
    assert rc == 0
    assert out == "not equivalent (proved)  (central values differ)\n"


def test_equivalent_large_torsion_order_is_fast(tmp_path, capsys):
    # the central value has order 1000003 and the z values differ by
    # lambda^1000002: the power solve must not scan the torsion period
    lam = {"root_of_unity": [1, 1000003]}
    first = {"generators": PAIR_11,
             "values": ["t", {"root_of_unity": [1000002, 1000003]}, lam]}
    second = {"generators": PAIR_11,
              "values": ["t", {"root_of_unity": [0, 1]}, lam]}
    for a, b in ((first, second), (second, first)):
        t0 = time.perf_counter()
        rc, out, _ = run(tmp_path, capsys, "equivalent",
                         {"first": a, "second": b}, "--json")
        assert time.perf_counter() - t0 < 5
        assert rc == 0
        assert json.loads(out)["status"] == "equivalent"


def trivial_32(params):
    rows = rows_for((3, 2), params)
    return {"generators": rows,
            "values": [{"root_of_unity": [0, 1]}] * len(rows)}


def test_irreducible_beyond_the_former_coset_cap(tmp_path, capsys):
    # index 12^5 = 248,832 over 1,728 level-1 classes; e = 1 lies outside
    # H, normalizes it and fixes the trivial character
    payload = trivial_32((12, 0, 0, 12, 0, 0, 12, 0, 0, 12, 12))
    rc, out, err = run(tmp_path, capsys, "irreducible", payload, "--json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["irreducible"] is False


def test_capacity_exceeded_has_its_own_exit_code(tmp_path, capsys):
    # 101 * 101 * 20 = 204,020 level-1 classes, over the 200,000 cap
    payload = trivial_32((101, 0, 0, 101, 0, 0, 20, 0, 0, 1, 1))
    t0 = time.perf_counter()
    rc, out, err = run(tmp_path, capsys, "irreducible", payload)
    assert time.perf_counter() - t0 < 5
    assert (rc, out) == (5, "")
    assert err.startswith("capacity exceeded: ")
    assert "204020 level-1 classes" in err


def test_cli_import_leaves_numpy_out():
    # nor any other module outside the standard library: the CLI checks
    # requests itself, with no schema validator
    src = os.path.dirname(os.path.dirname(os.path.abspath(ut4class.__file__)))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "before = set(sys.modules); import ut4class.cli; "
             "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names)))")
    proc = subprocess.run([sys.executable, "-c", probe, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "['ut4class']"


def test_enumerate_contains_known_tuple(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "enumerate", {"case": [2, 0]},
                     "--json", "--box", "2", "--limit", "10000")
    assert rc == 0
    res = json.loads(out)
    allp = [tuple(it["params"]) for it in res["items"]]
    assert (1, 0, 0, 1, 0, 0) in allp
    assert allp == sorted(allp)
    assert res["count"] == len(res["items"])
    for it in res["items"]:
        assert it["subset"] == "S"
        assert len(it["generators"][0]) == 6


def test_enumerate_subset_filter(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "enumerate",
                     {"case": [1, 1], "subset": "N1"},
                     "--json", "--box", "2", "--limit", "10000")
    assert rc == 0
    res = json.loads(out)
    assert res["items"]
    for it in res["items"]:
        assert it["subset"] == "N1"
        a, d, f, b, e = it["params"]
        assert d == 0 and f == 0 and b == 1


def test_enumerate_empty_box(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "enumerate", {"case": [1, 1]},
                     "--json", "--box", "-1")
    assert rc == 0
    assert json.loads(out)["items"] == []


def test_exit_code_for_malformed_requests(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    assert cli.main(["ranks", str(path)]) == 2
    capsys.readouterr()
    rc, _, err = run(tmp_path, capsys, "ranks",
                     {"generators": [[1, 2, 3]]})
    assert rc == 2 and "request error" in err
    rc, _, err = run(tmp_path, capsys, "ranks",
                     {"command": "classify", "payload": {}})
    assert rc == 2 and "envelope" in err


@pytest.mark.parametrize("text, message", [
    ("[" + "9" * 5000 + "]", "Exceeds the limit (4300 digits)"),
    ("[" * 100000, "maximum recursion depth exceeded"),
], ids=["5000-digit integer", "nested 100000 deep"])
def test_undecodable_json_is_a_request_error(tmp_path, capsys, text, message):
    # the decoder's own ValueError and RecursionError, not only
    # JSONDecodeError, mean a malformed request
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    rc = cli.main(["ranks", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("request error: ") and message in err


def test_oversized_box_is_refused_at_once(tmp_path, capsys):
    t0 = time.perf_counter()
    rc, out, err = run(tmp_path, capsys, "enumerate", {"case": [3, 2]},
                       "--box", "1000000", "--limit", "1")
    assert time.perf_counter() - t0 < 1
    assert (rc, out) == (5, "")
    assert err == ("capacity exceeded: the parameter box spans more than "
                   "200000 blocks of tuples\n")
    rc, _, err = run(tmp_path, capsys, "verify", {"case": [2, 0]},
                     "--box", "4")
    assert rc == 5 and "blocks of tuples" in err


def test_large_boxes_answer_quickly(tmp_path, capsys):
    # the first tuple of a box with 144,937,184 admissible tuples, none of
    # the 7,415,392 of one whose blocks hold no tuple of subset "X", and
    # the 100 tuples of a strided sweep of one with 127,264
    t0 = time.perf_counter()
    rc, out, _ = run(tmp_path, capsys, "enumerate", {"case": [3, 2]},
                     "--json", "--box", "4", "--limit", "1")
    assert time.perf_counter() - t0 < 1
    assert rc == 0
    assert json.loads(out)["items"][0]["params"] == [-4, -3, -3, -4, -3, -3,
                                                      -4, -3, -3, -4, -4]
    t0 = time.perf_counter()
    rc, out, _ = run(tmp_path, capsys, "enumerate",
                     {"case": [3, 2], "subset": "X"}, "--json", "--box", "3")
    assert time.perf_counter() - t0 < 1
    assert (rc, json.loads(out)) == (0, {"case": [3, 2], "count": 0,
                                         "items": []})
    t0 = time.perf_counter()
    todo, total = cases.sweep_params((3, 2), (-2, 2), 100)
    assert time.perf_counter() - t0 < 0.1
    assert (len(todo), total) == (100, 127264)


def pair_11(value="lam"):
    """A (1,1) request whose central value is `value`."""
    return {"generators": PAIR_11, "values": ["t", "z", value]}


def ranks_of(*rows, **keys):
    return {"generators": list(rows), **keys}


ROW = [0, 0, 0, 0, 0, 1]
ANY_VALUE = ("a non-empty string or an object with key 'symbol', "
             "'root_of_unity' or 'numeric'")
RANK_PAIR = ("a rank pair, one of [1, 1], [2, 0], [2, 1], [1, 2], [2, 2], "
             "[3, 2]")

# one row per clause of a request's shape: the command and its flags, a
# payload breaking the clause, the one-line refusal, and a valid twin
REFUSALS = {
    "missing key": ("ranks", (), {}, "payload: missing key 'generators'",
                    ranks_of(ROW)),
    "extra key": ("ranks", (), ranks_of(ROW, extra=1),
                  "payload: unexpected key 'extra'", ranks_of(ROW)),
    "not an object": ("ranks", (), [ROW], "payload: expected an object",
                      ranks_of(ROW)),
    "wrong type": ("ranks", (), {"generators": "rows"},
                   "payload.generators: expected a list of at most 64 rows",
                   ranks_of(ROW)),
    "row of 5": ("ranks", (), ranks_of(ROW, [0, 0, 0, 0, 1]),
                 "payload.generators[1]: expected a list of 6 integers",
                 ranks_of(ROW, [0, 0, 0, 0, 1, 0])),
    "'x' entry": ("ranks", (), ranks_of([0, 0, 0, 0, "x", 0]),
                  "payload.generators[0]: expected a list of 6 integers",
                  ranks_of([0, 0, 0, 0, 1, 0])),
    "true entry": ("ranks", (), ranks_of([True, 0, 0, 0, 0, 0]),
                   "payload.generators[0]: expected a list of 6 integers",
                   ranks_of([1, 0, 0, 0, 0, 0])),
    "1.0 entry": ("isolator", (), ranks_of([1.0, 0, 0, 0, 0, 0], ROW),
                  "payload.generators[0]: expected a list of 6 integers",
                  ranks_of([1, 0, 0, 0, 0, 0], ROW)),
    "65 generators": ("ranks", (), ranks_of(*[ROW] * 65),
                      "payload.generators: expected a list of at most 64 "
                      "rows", ranks_of(*[ROW] * 64)),
    "values missing": ("irreducible", (), {"generators": PAIR_11},
                       "payload: missing key 'values'", pair_11()),
    "values not a list": ("irreducible", (),
                          {"generators": PAIR_11, "values": "lam"},
                          "payload.values: expected a list of at most 64 "
                          "values", pair_11()),
    "65 values": ("irreducible", (),
                  {"generators": PAIR_11, "values": ["t"] * 65},
                  "payload.values: expected a list of at most 64 values",
                  pair_11()),
    "empty name": ("irreducible", (), pair_11(""),
                   f"payload.values[2]: expected {ANY_VALUE}", pair_11()),
    "number value": ("irreducible", (), pair_11(7),
                     f"payload.values[2]: expected {ANY_VALUE}", pair_11()),
    "no value form": ("irreducible", (), pair_11({"name": "lam"}),
                      f"payload.values[2]: expected {ANY_VALUE}",
                      pair_11({"symbol": "lam"})),
    "empty symbol": ("irreducible", (), pair_11({"symbol": ""}),
                     "payload.values[2].symbol: expected a non-empty string",
                     pair_11({"symbol": "lam"})),
    "on_circle 1": ("irreducible", (),
                    pair_11({"symbol": "lam", "on_circle": 1}),
                    "payload.values[2].on_circle: expected true or false",
                    pair_11({"symbol": "lam", "on_circle": True})),
    "power 1.0": ("irreducible", (), pair_11({"symbol": "lam", "power": 1.0}),
                  "payload.values[2].power: expected an integer",
                  pair_11({"symbol": "lam", "power": 1})),
    "two forms": ("irreducible", (),
                  pair_11({"symbol": "lam", "root_of_unity": [1, 3]}),
                  "payload.values[2]: unexpected key 'root_of_unity'",
                  pair_11({"root_of_unity": [1, 3]})),
    "root of 1 entry": ("irreducible", (), pair_11({"root_of_unity": [1]}),
                        "payload.values[2].root_of_unity: expected a list "
                        "of 2 integers", pair_11({"root_of_unity": [1, 3]})),
    "root 1.0": ("irreducible", (), pair_11({"root_of_unity": [1.0, 3]}),
                 "payload.values[2].root_of_unity: expected a list of 2 "
                 "integers", pair_11({"root_of_unity": [1, 3]})),
    "numeric of 1 entry": ("irreducible", (), pair_11({"numeric": ["0.5"]}),
                           "payload.values[2].numeric: expected a list of 2 "
                           "non-empty strings",
                           pair_11({"numeric": ["0.5", "0"]})),
    "numeric numbers": ("irreducible", (), pair_11({"numeric": [0.5, 0]}),
                        "payload.values[2].numeric: expected a list of 2 "
                        "non-empty strings",
                        pair_11({"numeric": ["0.5", "0"]})),
    "numeric empty": ("irreducible", (), pair_11({"numeric": ["", "0"]}),
                      "payload.values[2].numeric: expected a list of 2 "
                      "non-empty strings", pair_11({"numeric": ["0", "1"]})),
    "second pair": ("equivalent", (),
                    {"first": pair_11(), "second": {"generators": PAIR_11}},
                    "payload.second: missing key 'values'",
                    {"first": pair_11(), "second": pair_11()}),
    "not a rank pair": ("verify", ("--box", "0"), {"case": [3, 3]},
                        f"payload.case: expected {RANK_PAIR}",
                        {"case": [3, 2]}),
    "case 1.0": ("enumerate", ("--box", "0"), {"case": [1.0, 1]},
                 f"payload.case: expected {RANK_PAIR}", {"case": [1, 1]}),
    "subset not a string": ("enumerate", ("--box", "0"),
                            {"case": [1, 1], "subset": 1},
                            "payload.subset: expected a string",
                            {"case": [1, 1], "subset": "N1"}),
    "envelope names another command": (
        "ranks", (), {"command": "classify", "payload": ranks_of(ROW)},
        "envelope names command 'classify' but the command line says "
        "'ranks'", {"command": "ranks", "payload": ranks_of(ROW)}),
    "envelope without payload": ("ranks", (), {"command": "ranks"},
                                 "envelope without payload",
                                 {"command": "ranks",
                                  "payload": ranks_of(ROW)}),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_request_error_names_the_first_bad_field(name):
    cmd, flags, bad, message, twin = REFUSALS[name]
    for _ in range(2):  # the refusal is the same on a repeat
        assert replay(cmd, bad, *flags) == (2, "",
                                            f"request error: {message}\n")
    assert replay(cmd, twin, *flags)[0] != 2


INT = st.integers(-3, 3)
VALUE = st.one_of(
    st.sampled_from(["t", "z", "lam"]),
    st.fixed_dictionaries({"symbol": st.sampled_from(["t", "w"])},
                          optional={"on_circle": st.booleans(),
                                    "power": INT}),
    st.fixed_dictionaries({"root_of_unity": st.tuples(INT, INT).map(list)}),
    st.fixed_dictionaries({"numeric": st.lists(
        st.sampled_from(["0", "1", "-1", "0.5", "0.6", "0.8", "nan", "inf"]),
        min_size=2, max_size=2)}))
# an entry or a value that breaks the request's shape
MALFORMED = st.one_of(INT.map(float), st.booleans(),
                      st.floats(allow_nan=False), st.just("x"))


@st.composite
def cli_requests(draw):
    """A request to a command that takes generators, well-formed or with
    one malformed entry, value or extra key."""
    cmd = draw(st.sampled_from(["ranks", "classify", "irreducible",
                                "isolator"]))
    rows = draw(st.one_of(
        st.lists(st.lists(INT, min_size=6, max_size=6), max_size=4),
        st.sampled_from([PAIR_11, FULL_GROUP]).map(
            lambda rows: [list(row) for row in rows])))
    payload = {"generators": rows}
    if cmd == "irreducible" or (cmd == "classify" and draw(st.booleans())):
        payload["values"] = [draw(VALUE) for _ in rows]
    fault = draw(st.sampled_from([None, None, "entry", "value", "key"]))
    if fault == "entry" and rows:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 5))] = draw(MALFORMED)
    elif fault == "value" and payload.get("values"):
        values = payload["values"]
        values[draw(st.integers(0, len(values) - 1))] = {
            "root_of_unity": [draw(MALFORMED), 3]}
    elif fault == "key":
        payload[draw(st.sampled_from(["extra", "values", "case"]))] = 1
    return cmd, payload


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(cli_requests())
def test_cli_fuzz_exits_cleanly_and_deterministically(request):
    cmd, payload = request
    first = replay(cmd, payload, "--json")
    assert first[0] in (0, 2, 3, 5), first
    assert replay(cmd, payload, "--json") == first


def test_exit_code_for_preconditions(tmp_path, capsys):
    # no central element at all: classification refuses the subgroup
    rc, _, err = run(tmp_path, capsys, "classify",
                     {"generators": [[1, 0, 0, 0, 0, 0]]})
    assert rc == 3
    assert "precondition failed" in err


def test_inconsistent_values_refused(tmp_path, capsys):
    rows = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1]]
    bad = {"generators": rows,
           "values": ["x", "y", {"root_of_unity": [1, 2]}, "lam"]}
    rc, _, err = run(tmp_path, capsys, "classify", bad)
    assert rc == 3
    assert "inconsistent values" in err
    # the commutator of the first two rows is the third, so its value
    # is forced to 1; with that the pair classifies normally
    good = {"generators": rows,
            "values": ["x", "y", {"root_of_unity": [0, 1]}, "lam"]}
    rc, out, _ = run(tmp_path, capsys, "classify", good, "--json")
    assert rc == 0
    res = json.loads(out)
    assert res["ranks"] == [2, 1]
    assert res["irreducible"] is True


def test_json_output_round_trips_and_is_deterministic(tmp_path, capsys):
    payload = {"generators": rows_for((1, 1), (2, 1, 2, 0, 0)),
               "values": ["t", "z", "lam"]}
    rc, out1, _ = run(tmp_path, capsys, "irreducible", payload, "--json")
    assert rc == 0
    res = json.loads(out1)
    assert json.dumps(res, sort_keys=True,
                      separators=(",", ":")) == out1.strip()
    rc, out2, _ = run(tmp_path, capsys, "irreducible", payload, "--json")
    assert out2 == out1


def test_isolator_command(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "isolator",
                     {"generators": [[2, 0, 0, 0, 0, 0],
                                     [0, 0, 0, 0, 0, 3]]},
                     "--json")
    assert rc == 0
    res = json.loads(out)
    assert res["is_isolated"] is False
    assert res["isolator"]["rank_signature"] == [1, 0, 1]


def test_isolator_refuses_past_the_cap(tmp_path, capsys):
    # the level-1 lattice has index 200,003 in its saturation; a verdict
    # drawn from H itself would wrongly call H isolated
    t0 = time.perf_counter()
    rc, out, err = run(tmp_path, capsys, "isolator",
                       {"generators": [[200003, 0, 0, 0, 0, 0],
                                       [0, 0, 1, 0, 0, 0],
                                       [0, 0, 0, 0, 0, 1]]})
    assert time.perf_counter() - t0 < 1
    assert (rc, out) == (5, "")
    assert err.startswith("capacity exceeded:")


def test_f_equivalents_command(tmp_path, capsys):
    payload = {"generators": rows_for((1, 1), (1, 0, 1, 0, 0)),
               "values": ["t", "z", "lam"]}
    rc, out, _ = run(tmp_path, capsys, "f-equivalents", payload, "--json")
    assert rc == 0
    res = json.loads(out)
    assert isinstance(res["companions"], list)


def test_verify_command_limited_sweep(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "verify", {"case": [1, 1]},
                     "--json", "--limit", "30")
    assert rc == 0
    res = json.loads(out)
    assert res["params_checked"] == 30
    assert res["discrepancies"] == []
