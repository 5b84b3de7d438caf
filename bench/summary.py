"""Small statistics and digest helpers shared by the benchmark scripts."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    for p in TAIL_PERCENTILES:
        if round(count * (100.0 - p) / 100.0, 6) >= 10:
            return p
    return None


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the base is zero."""
    return numerator / denominator if denominator else 0.0


def digest(doc) -> str:
    """Short stable digest of a JSON-shaped value (a result fingerprint)."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def results_digest(cells: Dict[str, str], tags: Iterable[str]) -> str:
    """One digest over the given cells' digests, in tag order."""
    lines: List[str] = [f"{tag}={cells[tag]}" for tag in sorted(tags)]
    return digest(lines)
