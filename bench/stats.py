"""Arithmetic behind the benchmark's reported figures."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule: the
    smallest sample with at least q percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values) -> float:
    """The middle sample, or the mean of the two middle samples."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def rate(work: float, seconds: float) -> float:
    """Units of work per second of run time."""
    if seconds <= 0:
        raise ValueError("rate over a non-positive time")
    return work / seconds


def self_times(spans, n_layers: int) -> list[float]:
    """Self time per layer from (layer, parent, start, end) spans.

    A span's self time is its duration minus the durations of its direct
    children.  Spans nest strictly in one thread, so the children of a span
    cover disjoint parts of it.
    """
    out = [0.0] * n_layers
    layers = [s[0] for s in spans]
    for layer, parent, start, end in spans:
        dur = end - start
        out[layer] += dur
        if parent >= 0:
            out[layers[parent]] -= dur
    return out
