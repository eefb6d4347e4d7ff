"""Order statistics and the two-sided comparison rule used by the benchmark.

Stdlib only, so the parent process of a run never imports the package under
test.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

# Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# Pairs of runs a gain needs.
MIN_PAIRS = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile: the smallest sample with pct% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """Highest tabulated percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond it), or None when even the
    median has fewer than ten samples above it.
    """
    for pct in TAIL_PERCENTILES:
        value = nearest_rank(values, pct)
        beyond = sum(1 for v in values if v > value)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, beyond
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def better(a: float, b: float, direction: str) -> bool:
    """True when b is strictly better than a."""
    return b < a if direction == "lower" else b > a


def worsening(base: float, new: float, direction: str) -> float:
    """How much worse new is than base, as a share of base (negative = better)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if direction == "lower" else -change


def compare_metric(
    parent: Sequence[float],
    change: Sequence[float],
    direction: str,
    bound: float,
) -> Dict[str, object]:
    """Judge one metric of one workload from paired runs.

    parent[i] and change[i] form the i-th pair.  A gain needs at least
    MIN_PAIRS pairs, the change winning at least 9/10 of all pairs (ties
    count for neither), and medians further apart than the parent's
    interquartile distance.  Otherwise the change must be no worse than the
    parent's median by more than `bound`; when the parent's own spread
    exceeds the bound the verdict is "unresolved", unless every change run
    beats every parent run.
    """
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if better(a, b, direction))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = median(change)
    iqr = p_q3 - p_q1
    worse = worsening(p_med, c_med, direction)
    spread = relative_spread(parent)
    if (
        len(pairs) >= MIN_PAIRS
        and wins * 10 >= 9 * len(pairs)
        and abs(c_med - p_med) > iqr
        and better(p_med, c_med, direction)
    ):
        verdict = "gain"
    elif all(better(a, b, direction) for a in parent for b in change):
        verdict = "no regression"
    elif spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "no regression"
    return {
        "verdict": verdict,
        "pairs": len(pairs),
        "wins": wins,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": iqr,
        "parent_spread": spread,
        "worse_by": worse,
        "bound": bound,
    }

