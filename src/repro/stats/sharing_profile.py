"""Invalidation-pattern analysis (Gupta & Weber, TC July 1992).

The paper's premise (Section 2.1) rests on Gupta & Weber's observation
that for migratory applications "more than 98% of the read-exclusive
requests resulted in single invalidations" — a write typically displaces
exactly one other copy, the previous owner's.

The directory records a histogram of invalidations-per-read-exclusive in
the machine counters (``inval_dist_0`` .. ``inval_dist_4``, the last
bucket holding 4-or-more).  This module interprets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.machine.result import RunResult

#: Highest exact bucket; the last bucket aggregates >= MAX_BUCKET.
MAX_BUCKET = 4


@dataclass
class InvalidationProfile:
    """Distribution of invalidations caused per read-exclusive request."""

    histogram: Dict[int, int]

    @property
    def total_requests(self) -> int:
        return sum(self.histogram.values())

    def fraction(self, count: int) -> float:
        total = self.total_requests
        if total == 0:
            return 0.0
        return self.histogram.get(count, 0) / total

    @property
    def single_invalidation_fraction(self) -> float:
        """Fraction of rx requests displacing exactly one copy — the
        signature of migratory sharing (paper: >98% for MP3D/Water)."""
        return self.fraction(1)

    @property
    def zero_invalidation_fraction(self) -> float:
        """First-touch / uncached writes."""
        return self.fraction(0)

    @property
    def multiple_invalidation_fraction(self) -> float:
        """Wide sharing at the write (2+ copies displaced)."""
        total = self.total_requests
        if total == 0:
            return 0.0
        return sum(
            count for invals, count in self.histogram.items() if invals >= 2
        ) / total

    @property
    def looks_migratory(self) -> bool:
        """Heuristic classification of the whole run's write traffic."""
        return self.single_invalidation_fraction > 0.5


def invalidation_profile(result: RunResult) -> InvalidationProfile:
    """Extract the histogram recorded by the directories during a run."""
    histogram = {}
    for bucket in range(MAX_BUCKET + 1):
        count = result.counter(f"inval_dist_{bucket}")
        if count:
            histogram[bucket] = count
    return InvalidationProfile(histogram=histogram)


def render_profile(workload: str, profile: InvalidationProfile) -> str:
    lines = [f"{workload}: {profile.total_requests} read-exclusive requests"]
    for bucket in sorted(profile.histogram):
        label = f"{bucket}+" if bucket == MAX_BUCKET else str(bucket)
        lines.append(
            f"  {label:>3} invalidations: {profile.fraction(bucket):>6.1%}"
            f"  ({profile.histogram[bucket]})"
        )
    lines.append(
        f"  single-invalidation fraction: "
        f"{profile.single_invalidation_fraction:.1%}"
    )
    return "\n".join(lines)
