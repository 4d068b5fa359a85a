"""Percentiles that refuse to be reported without the samples behind them.

A percentile is only as good as the samples above it: with two samples
beyond the 99th percentile, "p99" is the second-slowest request.  The
rule here: a percentile needs at least :data:`MIN_BEYOND` samples beyond
it, and every reported percentile carries its sample count.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """Raised for a percentile with fewer than MIN_BEYOND samples beyond it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``samples``.

    Raises:
        TooFewSamples: when fewer than :data:`MIN_BEYOND` samples lie
            beyond the percentile's rank.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} is outside (0, 100)")
    count = len(samples)
    rank = max(1, math.ceil(q / 100.0 * count))
    beyond = count - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {count} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are required"
        )
    return sorted(samples)[rank - 1]

