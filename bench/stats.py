"""Percentiles over every sample of a window, the one robust estimator
(``steady_p99``), and the spread of repeated runs."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10
# ``steady_p99``: a window is cut into at most MAX_SLICES slices (1.25 s each
# at the benchmark's 25 s) of at least SLICE_SAMPLES samples.
SLICE_SAMPLES = 250
MAX_SLICES = 20


class TooFewSamples(ValueError):
    """Raised instead of printing a percentile the sample cannot support."""


def _nearest_rank(samples: Sequence[float], p: float) -> float:
    ordered = sorted(samples)
    return float(ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)])


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 < p < 100)."""
    count = len(samples)
    beyond = count * (1.0 - p / 100.0)
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{p:g} needs {MIN_TAIL_SAMPLES} samples beyond it, {count} samples give {beyond:.1f}"
        )
    return _nearest_rank(samples, p)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def slice_count(samples: int) -> int:
    """How many slices ``steady_p99`` cuts that many samples into."""
    return max(1, min(MAX_SLICES, samples // SLICE_SAMPLES))


def steady_p99(samples: Sequence[float]) -> float:
    """First quartile, over consecutive slices of ``samples``, of each slice's p99.

    ``samples`` are every latency of a live window in time order.  The p99
    over the whole window is the one timed metric this machine cannot hold
    still.  The host takes the CPU away, or slows it, in bursts of one to
    five seconds, several times a minute; each burst delays the requests
    then in flight, together 1-2 % of a window's samples, so the
    whole-window p99 reads the size and number of the bursts and differed
    by a quarter to a third between runs of the same code.  Such a burst
    only ever adds latency, so the tail of the program itself is what the
    calmest slices show: the reported value is the lower quartile of the
    per-slice p99s.  (Their median, over 4 slices of 6.25 s at the gateway,
    spread by 20 % and 39 % in the driver's two sets of runs; over 20 slices
    it still spread twice as far as the quartile.)  What that costs: a
    stall of the program moves this number only if it recurs in more than
    three quarters of the slices, i.e. with a period below about one slice
    length (1.25 s); a rarer one shows in throughput_ops and cpu_us_per_op,
    which are totals over the whole window, in the failed count once it
    exceeds the latency limit, and in the whole-window p99 that run.py
    prints beside this one.  A slice p99 alone is not a supported
    percentile (a slice may hold as few as 250 samples, 2.5 beyond its
    p99); the window as a whole must be, so fewer than 1000 samples are
    refused, and the quartile is over at least four slices.
    """
    percentile(samples, 99)  # refuses a window that cannot support a p99 at all
    slices = slice_count(len(samples))
    bounds = [len(samples) * i // slices for i in range(slices + 1)]
    tails = [_nearest_rank(samples[a:b], 99) for a, b in zip(bounds, bounds[1:])]
    return float(statistics.quantiles(tails, n=4)[0])


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
