"""Counting, walking and unranking the admissible parameter tuples of a box.

A rank pair's admissible tuples in a box of half-width 2 already number
127,264 for (3,2), and 144,937,184 at half-width 4, so a sweep or a
listing that stops early must not build them.  ``ParamBox`` keeps them
as a list of blocks, products of integer ranges, from which counts,
lexicographic walks and the tuples at given ranks follow.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, product as iproduct
from operator import itemgetter, mul

from .subgroup import ENUMERATION_CAP, CapacityError


class ParamBox:
    """The admissible tuples of a case (a rank pair's class in
    ``cases.CASES``) with every coordinate in [lo, hi], in lexicographic
    order, counted and walked without building them.

    The residue coordinates of a case (``RankCase.residues``) enter the
    subset conditions only through the bounds |residue| < |modulus|.  So
    the other coordinates, the key, fix a block: the product of the ranges
    [max(lo, 1 - |m|), min(hi, |m| - 1)] of the residues, m the value of
    each one's modulus, admissible as a whole or not at all and of one
    subset label, which its first tuple decides.  A case without residues
    has one tuple per block.
    The admissible tuples are the disjoint union of the blocks, so a count
    is a sum of products of range widths, and a walk descends one
    coordinate at a time through the blocks that hold the prefix so far.

    The keys tried are those whose moduli and ``RankCase.nonzero``
    coordinates are nonzero; a box with more than ENUMERATION_CAP of them
    is refused with CapacityError before any is tried.
    """

    def __init__(self, case, box: tuple[int, int]):
        lo, hi = int(box[0]), int(box[1])
        names = case._fields
        n = len(names)
        mod_of = {names.index(r): names.index(m) for r, m in case.residues}
        moduli = sorted(set(mod_of.values()))
        keys = [i for i in range(n) if i not in mod_of]
        # a modulus of 0 leaves its residues no value
        nonzero = [i in moduli or names[i] in case.nonzero for i in keys]
        width = max(hi - lo + 1, 0)
        if math.prod(width - (nz and lo <= 0 <= hi)
                     for nz in nonzero) > ENUMERATION_CAP:
            raise CapacityError(
                f"the parameter box spans more than {ENUMERATION_CAP} "
                "blocks of tuples")
        span = {m: (max(lo, 1 - abs(m)), min(hi, abs(m) - 1))
                for m in range(lo, hi + 1)}
        choices = [[x for x in range(lo, hi + 1) if (x or not nz) and (
                    i not in moduli or span[x][0] <= span[x][1])]
                   for i, nz in zip(keys, nonzero)]
        # a block's lows (highs) are read off its key followed by the low
        # (high) ends of its moduli's residue ranges
        at = {i: c for c, i in enumerate(keys)}
        at.update((i, len(keys) + moduli.index(m)) for i, m in mod_of.items())
        arrange = itemgetter(*(at[i] for i in range(n)))
        at_moduli = [at[m] for m in moduli]
        self.length = n
        # a block: its lows, its highs, tail[i], the number of its tuples
        # with the first i coordinates fixed, and its subset label
        self.blocks: list[tuple[tuple, tuple, tuple, str]] = []
        for key in iproduct(*choices):
            ends = [span[key[c]] for c in at_moduli]
            low = arrange(key + tuple(e[0] for e in ends))
            label = case._make(low).label
            if label is not None:
                high = arrange(key + tuple(e[1] for e in ends))
                widths = [h - l + 1 for l, h in zip(low, high)]
                tail = tuple(accumulate(reversed(widths), mul, initial=1))
                self.blocks.append((low, high, tail[::-1], label))
        self.count = sum(b[2][0] for b in self.blocks)

    def __iter__(self):
        return self.walk()

    def walk(self, label: str | None = None):
        """The tuples lazily in lexicographic order; with a label, only
        those of that subset, from its blocks alone."""
        blocks = self.blocks
        if label is not None:
            blocks = [b for b in blocks if b[3] == label]
        return self._descend(blocks, (), None)

    def strided(self, limit: int) -> list[tuple]:
        """The tuples of ranks 0, s, 2s, ... with s = count // limit, the
        first limit of them; every tuple when limit >= count."""
        step = max(self.count // limit, 1)
        ranks = list(range(0, min(self.count, step * limit), step))
        return list(self._descend(self.blocks, (), ranks)) if ranks else []

    @staticmethod
    def _split(blocks: list, i: int) -> list:
        """The values of coordinate i in increasing order, each with its
        number of tuples under the prefix so far and the blocks holding it."""
        groups: dict[int, list] = {}
        for b in blocks:
            for v in range(b[0][i], b[1][i] + 1):
                groups.setdefault(v, []).append(b)
        return [(v, sum(b[2][i + 1] for b in groups[v]), groups[v])
                for v in sorted(groups)]

    def _descend(self, blocks: list, prefix: tuple, ranks: list | None):
        """The tuples of the blocks that extend prefix, in lexicographic
        order; with ranks, increasing and counted from the first such
        tuple, only the tuples at those ranks."""
        i = len(prefix)
        if len(blocks) == 1:  # the blocks are disjoint, so one is left
            low, high, tail, _ = blocks[0]  # when prefix is a whole tuple
            if ranks is None:
                for rest in iproduct(*(range(low[j], high[j] + 1)
                                       for j in range(i, self.length))):
                    yield prefix + rest
                return
            for r in ranks:
                digits = []
                for j in range(i, self.length):
                    d, r = divmod(r, tail[j + 1])
                    digits.append(low[j] + d)
                yield prefix + tuple(digits)
            return
        start = 0
        for v, size, group in self._split(blocks, i):
            if ranks is None:
                yield from self._descend(group, prefix + (v,), None)
                continue
            j = bisect_left(ranks, start + size)
            if j:
                yield from self._descend(group, prefix + (v,),
                                         [r - start for r in ranks[:j]])
                ranks = ranks[j:]
                if not ranks:
                    return
            start += size
