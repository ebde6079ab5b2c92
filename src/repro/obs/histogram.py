"""Fixed log-bucket histograms: distributions instead of averages.

The paper's whole argument is about *skew* — the imbalance λ is a
max/mean ratio, and a mean hides exactly the tail it measures.  The
recorder's counters and gauges have the same blind spot: a sweep that
reports only the mean per-cell wall time cannot show that one straggler
group took 40× the median.  :class:`Histogram` fixes that with a
fixed-base logarithmic bucketing:

* buckets are ``[BASE**k, BASE**(k+1))`` with ``BASE = 2**0.25``
  (~19% wide), so any percentile estimate is within one bucket width
  (<10% relative error) of the true value — good enough to tell p99
  from p50, which is the whole point;
* bucket boundaries are *fixed*, never data-dependent, so histograms
  recorded in different runs compare bucket by bucket;
* storage is a sparse ``{bucket_index: count}`` dict: observing a value
  is one ``math.log`` and one dict update, cheap enough for per-cell
  sweep timings.

Non-positive values land in a dedicated underflow bucket counted at the
tracked exact minimum.  Exact ``count``/``sum``/``min``/``max`` ride
along, so means stay exact and percentile estimates are clamped into
the true range.  Only the standard library is used.
"""

from __future__ import annotations

import math

__all__ = ["BASE", "Histogram", "bucket_index", "bucket_bounds"]

#: Geometric bucket growth factor; 2**0.25 keeps relative bucket width
#: under 20% across the whole range.
BASE = 2.0 ** 0.25

_LOG_BASE = math.log(BASE)

#: Sparse-dict key for the "value <= 0" underflow bucket.  Real bucket
#: indices for positive floats stay far above this.
_UNDERFLOW = -(2 ** 31)


def bucket_index(value: float) -> int:
    """The fixed bucket index holding ``value`` (underflow for <= 0)."""
    if value <= 0.0:
        return _UNDERFLOW
    return math.floor(math.log(value) / _LOG_BASE)


def bucket_bounds(index: int) -> tuple[float, float]:
    """The ``[lo, hi)`` value range of bucket ``index``."""
    if index == _UNDERFLOW:
        return (0.0, 0.0)
    return (BASE ** index, BASE ** (index + 1))


class Histogram:
    """A fixed-log-bucket histogram of one named metric."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    # -- recording ------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    # -- queries --------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (0-100); exact min/max clamp the
        estimate, so p0/p100 are exact and everything else is within one
        bucket width."""
        if self.count == 0:
            return 0.0
        if q <= 0:
            return self.min
        if q >= 100:
            return self.max
        target = q / 100.0 * self.count
        running = 0
        for idx in sorted(self.buckets):
            running += self.buckets[idx]
            if running >= target:
                if idx == _UNDERFLOW:
                    return max(self.min, 0.0) if self.min < 0 else self.min
                lo, hi = bucket_bounds(idx)
                mid = math.sqrt(lo * hi)  # geometric bucket midpoint
                return min(max(mid, self.min), self.max)
        return self.max

    def summary(self) -> dict:
        """The scalar digest rendered in tables and manifests."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe payload (bucket keys become strings) for manifests."""
        out = self.summary()
        out["buckets"] = {str(k): v for k, v in sorted(self.buckets.items())}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return "Histogram(empty)"
        return (
            f"Histogram(count={self.count}, mean={self.mean:.3g}, "
            f"p50={self.percentile(50):.3g}, p99={self.percentile(99):.3g})"
        )
