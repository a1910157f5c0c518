"""Parameter enumeration, refusals and moves of the case tables."""

import math
import time
from itertools import product

import pytest

from ut4class import cases
from ut4class.characters import ValueSymbol, symbol_value
from ut4class.subgroup import CapacityError


def _membership(ranks, box, tuples=None):
    """The tuples that pass a membership test, sorted; by default every
    tuple of the box's full product is tested."""
    if tuples is None:
        tuples = product(range(box[0], box[1] + 1),
                         repeat=len(cases.CASES[ranks]._fields))
    want = []
    for p in tuples:
        try:
            cases.subset_of(ranks, p)
        except cases.NoSubsetError:
            continue
        want.append(p)
    return sorted(want)


def _bounded_product(ranks, box):
    """The tuples of the box whose residue coordinates satisfy the bound
    |residue| < |modulus| that every subset condition imposes, in no
    particular order: a superset of the admissible tuples, small enough
    to test one by one where the full product is not."""
    case = cases.CASES[ranks]
    names = case._fields
    res = dict(case.residues)
    keys = [n for n in names if n not in res]
    rng = range(box[0], box[1] + 1)
    for kv in product(rng, repeat=len(keys)):
        val = dict(zip(keys, kv))
        ranges = [[x for x in rng if abs(x) < abs(val[res[n]])]
                  for n in res]
        for rv in product(*ranges):
            val.update(zip(res, rv))
            yield tuple(val[n] for n in names)


@pytest.mark.parametrize("ranks", [(2, 2), (3, 2)])
@pytest.mark.parametrize("box", [(-1, 1), (0, 2), (1, 2)])
def test_enumerate_params_matches_the_full_product(ranks, box):
    # the structured enumeration decides a block of residues by its first
    # tuple; a membership test of every tuple in the box must agree
    want = _membership(ranks, box)
    assert cases.enumerate_params(ranks, box) == want
    assert want


SMALL = [(1, 1), (2, 0), (2, 1), (1, 2)]


@pytest.mark.parametrize("ranks, half", [
    pytest.param(r, h, id=f"{r}-{h}")
    for r, h in [*product(cases.RANK_PAIRS, (1, 2)),
                 *product(SMALL, (3,))]])
def test_strided_tuples_match_the_sorted_box(ranks, half):
    # the full product of (2,2) and (3,2) at half-width 2 holds 9.8 and
    # 48.8 million tuples, so there only the residue-bounded product is
    # tested; the full product agrees with it at half-width 1 above
    box = (-half, half)
    full = _membership(ranks, box, None if ranks in SMALL or half == 1
                       else _bounded_product(ranks, box))
    space = cases.param_box(ranks, box)
    assert space.count == len(full)
    assert list(space) == full
    n = len(full)
    for limit in sorted({1, 7, 100, n - 1, n, n + 1} - {0}):
        assert space.strided(limit) == full[::max(n // limit, 1)][:limit]
    for limit in (1, 7, 100):
        assert cases.enumerate_params(ranks, box, limit) == full[:limit]


@pytest.mark.parametrize("ranks, half", [
    pytest.param(r, h, id=f"{r}-{h}")
    for r, h in [*product(cases.RANK_PAIRS, (2,)), *product(SMALL, (3,))]])
def test_blocks_hold_one_subset_label(ranks, half):
    # the subset filter of ParamBox.walk relies on it: a block's tuples
    # share the label of its first tuple, so a walk for one label visits
    # only that label's blocks and yields the full walk filtered by label
    space = cases.param_box(ranks, (-half, half))
    label_of = {}
    for low, high, _, label in space.blocks:
        for p in product(*(range(lo, hi + 1) for lo, hi in zip(low, high))):
            assert cases.subset_of(ranks, p) == label, p
            label_of[p] = label
    full = list(space)
    assert len(label_of) == len(full)
    for label in sorted(set(label_of.values())) + ["X"]:
        assert list(space.walk(label)) == [p for p in full
                                           if label_of[p] == label], label


def test_sweep_params_strides_only_below_the_count():
    space = cases.param_box((2, 1), (-2, 2))
    assert cases.sweep_params((2, 1), (-2, 2), 100) == (space.strided(100),
                                                         400)
    todo, total = cases.sweep_params((2, 1), (-2, 2), 400)
    assert (list(todo), total) == (list(space), 400)


@pytest.mark.parametrize("limit, checked", [(None, 2478336),
                                            (200001, 200001)])
def test_sweeps_past_the_cap_are_refused_at_once(limit, checked):
    # (2,2) at half-width 3 holds 2,478,336 tuples in 25,344 blocks
    t0 = time.perf_counter()
    with pytest.raises(CapacityError,
                       match=f"the sweep would check {checked} tuples"):
        cases.sweep_params((2, 2), (-3, 3), limit)
    assert time.perf_counter() - t0 < 5


def _scanned_orders(ranks, q, bound=2000):
    """The central orders by a scan of every nu up to the cap."""
    def order(x, m):
        return abs(m) // math.gcd(x, m)

    if ranks == (1, 2):
        cap = min(bound, abs(q.b1 * q.e1) * max(abs(q.a), 1)
                  * max(abs(q.f), 1))
        return [nu for nu in range(1, cap + 1) if abs(q.b1) == order(q.f, nu)
                and abs(q.e1) == order(q.a, nu)]
    cap = min(bound, abs(q.b2 * q.e2) * max(abs(q.a), 1) * max(abs(q.f), 1)
              * max(abs(q.f1), 1))
    return [nu for nu in range(1, cap + 1)
            if abs(q.b2) == math.lcm(order(q.f, nu), order(q.f1, nu))
            and abs(q.e2) == order(q.a, nu)]


@pytest.mark.parametrize("ranks", [(1, 2), (2, 2)])
def test_central_orders_match_the_linear_scan(ranks):
    # every box-3 tuple of (1,2), and one tuple per block of (2,2), whose
    # 2,478,336 tuples are too many: the orders read no residue coordinate
    box = cases.param_box(ranks, (-3, 3))
    tuples = (list(box) if ranks == (1, 2)
              else [b[0] for b in box.blocks])
    for p in tuples:
        point = cases.parse(ranks, p)
        assert list(point.central_orders()) == _scanned_orders(ranks, point), p


def _first(ranks):
    return cases.enumerate_params(ranks, (-1, 1), limit=1)[0]


REFUSALS = [
    *[pytest.param(lambda r=r: cases.subset_of(r, _first(r)[:-1]),
                   rf"rank pair \({r[0]}, {r[1]}\) takes "
                   rf"{len(cases.CASES[r]._fields)} parameters, got "
                   rf"{len(cases.CASES[r]._fields) - 1}$", id=f"length-{r}")
      for r in cases.RANK_PAIRS],
    pytest.param(lambda: cases.defining_generators((1, 1), (1, 0, 1, 0, 0, 0)),
                 r"rank pair \(1, 1\) takes 5 parameters, got 6$",
                 id="length-generators"),
    *[pytest.param(fn, r"unknown rank pair \(4, 4\)", id=f"unknown-{name}")
      for name, fn in (
          ("subset_of", lambda: cases.subset_of((4, 4), (1, 2, 3))),
          ("defining_generators",
           lambda: cases.defining_generators((4, 4), (1, 2, 3))),
          ("enumerate_params",
           lambda: cases.enumerate_params((4, 4), (-1, 1))),
          ("parse", lambda: cases.parse((4, 4), (1, 2, 3))))],
    pytest.param(lambda: cases.character_samples((1, 1), "S2",
                                                 (2, 1, 2, 1, 0)),
                 r"the tuple is in subset S1, not S2$", id="samples-subset"),
    *[pytest.param(lambda r=r: cases.parse(r, _first(r)).conjugation(1),
                   r"the tabulated residue-shifting move exists for rank "
                   r"pairs \(1,1\), \(2,0\) and \(2,1\) only$",
                   id=f"conjugation-{r}")
      for r in ((1, 2), (2, 2), (3, 2))],
    *[pytest.param(lambda r=r: cases.parse(r, _first(r)).central_orders(),
                   r"central orders are parameter-determined only for the "
                   r"two level-2-saturated cases$", id=f"central-{r}")
      for r in ((1, 1), (2, 0), (2, 1), (3, 2))],
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_case_table_refusals(call, message):
    # a ValueError (an unknown rank pair is no KeyError) with this message
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("a", [720720, 1000003])
def test_f_move_candidates_stop_at_the_cap(a):
    # root extraction on (a, 0, 1, 0) has one candidate order m per divisor
    # of a, with m roots each; only the first 64 candidates are built
    vals = {name: symbol_value(ValueSymbol(name))
            for name in ("t", "r", "z", "lambda")}
    t0 = time.perf_counter()
    got = cases.parse((2, 1), (a, 0, 1, 0)).f_moves(vals)
    assert time.perf_counter() - t0 < 1
    assert len(got) == 64
    orders = [p[2] for p, _, _ in got]
    assert orders == sorted(orders) and all(a % m == 0 for m in orders)
    assert got[0][0] == ((a // 2, 0, 2, 0) if a % 2 == 0 else (1, 0, a, 0))
