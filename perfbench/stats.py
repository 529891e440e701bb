"""Order statistics the benchmark reports (stdlib only).

The tail rule: ``latency_tail_s`` is the highest order statistic that
still has at least ``TAIL_BEYOND`` samples above it, i.e. the
``(N - 10)``-th smallest of ``N`` samples.  Its percentile,
``100 * (N - 10) / N``, and ``N`` are reported beside it, so a run with
more samples reads a higher percentile instead of a noisier one.
"""

from __future__ import annotations

import statistics

#: Samples that must lie beyond the reported tail value.
TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """``(value, percentile, n)`` of the tail rule above.

    Raises ``ValueError`` when there are not more than ``beyond``
    samples: no sample then has enough samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(
            f"tail rule needs more than {beyond} samples, got {n}")
    rank = n - beyond                  # 1-based rank of the tail value
    return xs[rank - 1], 100.0 * rank / n, n


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (the steadiness
    measure applied to ten runs of one metric)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")
