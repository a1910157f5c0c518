"""Parameter enumeration of the case tables."""

from itertools import product

import pytest

from ut4class import cases


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
