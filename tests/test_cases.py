"""Parameter enumeration, refusals and moves of the case tables."""

import time
from itertools import product

import pytest

from ut4class import cases
from ut4class.characters import ValueSymbol, symbol_value


@pytest.mark.parametrize("ranks", [(2, 2), (3, 2)])
@pytest.mark.parametrize("box", [(-1, 1), (0, 2), (1, 2)])
def test_enumerate_params_matches_the_full_product(ranks, box):
    # the structured enumeration decides a block of residues by its first
    # tuple; a membership test of every tuple in the box must agree
    want = []
    for p in product(range(box[0], box[1] + 1),
                     repeat=cases.PARAM_LENGTH[ranks]):
        try:
            cases.subset_of(ranks, p)
        except cases.NoSubsetError:
            continue
        want.append(p)
    assert cases.enumerate_params(ranks, box) == want
    assert want


def _first(ranks):
    return cases.enumerate_params(ranks, (-1, 1), limit=1)[0]


REFUSALS = [
    *[pytest.param(lambda r=r: cases.subset_of(r, _first(r)[:-1]),
                   rf"rank pair \({r[0]}, {r[1]}\) takes "
                   rf"{cases.PARAM_LENGTH[r]} parameters, got "
                   rf"{cases.PARAM_LENGTH[r] - 1}$", id=f"length-{r}")
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
          ("conjugation_move",
           lambda: cases.conjugation_move((4, 4), (1, 2, 3), 1)))],
    *[pytest.param(lambda r=r: cases.conjugation_move(r, _first(r), 1),
                   r"the tabulated residue-shifting move exists for rank "
                   r"pairs \(1,1\), \(2,0\) and \(2,1\) only$",
                   id=f"conjugation-{r}")
      for r in ((1, 2), (2, 2), (3, 2))],
    *[pytest.param(lambda r=r: cases.central_orders(
        r, cases.subset_of(r, _first(r)), _first(r)),
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
    got = cases.f_move_candidates((2, 1), "S2", (a, 0, 1, 0), vals)
    assert time.perf_counter() - t0 < 1
    assert len(got) == 64
    orders = [p[2] for p, _, _ in got]
    assert orders == sorted(orders) and all(a % m == 0 for m in orders)
    assert got[0][0] == ((a // 2, 0, 2, 0) if a % 2 == 0 else (1, 0, a, 0))
