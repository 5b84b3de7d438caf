"""Table 4 reproduction: impact of cache size (replacement misses).

The paper compares 64 Kbyte and 4 Kbyte caches: the replacement miss-rate
(MR) rises, and the write-penalty reduction (WPR) that AD achieves over
W-I shrinks — a replaced migratory block is refetched from home in two
hops instead of three, so there is less write penalty left to remove:

==========  =====  ========  =====  ====
            MP3D   Cholesky  Water  LU
64 KB MR    3%     3%        3%     3%
4 KB MR     7%     18%       9%     21%
64 KB WPR   86%    67%       94%    3.7%
4 KB WPR    67%    32%       85%    0.2%
==========  =====  ========  =====  ====

Our scaled-down workloads have smaller footprints than the SPLASH inputs,
so the cache sizes are scaled proportionally (the default rows use sizes
chosen so the big cache holds essentially everything and the small one
thrashes, preserving the paper's contrast).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.parallel import run_many
from repro.experiments.runner import ProtocolComparison, comparison_specs
from repro.machine.config import MachineConfig
from repro.workloads import PAPER_BENCHMARKS

PAPER_TABLE4 = {
    "mp3d": {"mr_large": 0.03, "mr_small": 0.07, "wpr_large": 0.86, "wpr_small": 0.67},
    "cholesky": {"mr_large": 0.03, "mr_small": 0.18, "wpr_large": 0.67, "wpr_small": 0.32},
    "water": {"mr_large": 0.03, "mr_small": 0.09, "wpr_large": 0.94, "wpr_small": 0.85},
    "lu": {"mr_large": 0.03, "mr_small": 0.21, "wpr_large": 0.037, "wpr_small": 0.002},
}

#: Cache sizes standing in for the paper's 64 KB / 4 KB pair.  The large
#: cache is the machine default (everything fits, like the paper's 64 KB);
#: the small cache is scaled below the paper's 4 KB in the same proportion
#: as our reduced working sets, so it thrashes comparably.
LARGE_CACHE = 64 * 1024
SMALL_CACHE = 1024


@dataclass
class Table4Row:
    workload: str
    large: ProtocolComparison
    small: ProtocolComparison

    @property
    def mr_large(self) -> float:
        return self.large.replacement_miss_rate("wi")

    @property
    def mr_small(self) -> float:
        return self.small.replacement_miss_rate("wi")

    @property
    def wpr_large(self) -> float:
        return self.large.write_penalty_reduction

    @property
    def wpr_small(self) -> float:
        return self.small.write_penalty_reduction

    @property
    def paper(self) -> Dict[str, float]:
        return PAPER_TABLE4[self.workload]


def run_table4(
    preset: str = "default",
    config: Optional[MachineConfig] = None,
    large_cache: int = LARGE_CACHE,
    small_cache: int = SMALL_CACHE,
    check_coherence: bool = True,
    workers: int = 1,
    store=None,
) -> List[Table4Row]:
    base = config or MachineConfig.dash_default()
    specs = []
    for name in PAPER_BENCHMARKS:
        for cache_size in (large_cache, small_cache):
            specs.extend(
                comparison_specs(
                    name,
                    preset=preset,
                    config=base.with_(cache_size=cache_size),
                    check_coherence=check_coherence,
                )
            )
    outcomes = run_many(specs, workers=workers, store=store)
    rows = []
    for index, name in enumerate(PAPER_BENCHMARKS):
        at = 4 * index  # 2 cache sizes x 2 protocols per workload
        large = ProtocolComparison(
            workload=name, wi=outcomes[at].unwrap(), ad=outcomes[at + 1].unwrap()
        )
        small = ProtocolComparison(
            workload=name, wi=outcomes[at + 2].unwrap(), ad=outcomes[at + 3].unwrap()
        )
        rows.append(Table4Row(workload=name, large=large, small=small))
    return rows


def _paper_pair(paper: Dict[str, float], metric: str) -> str:
    """The paper's large/small values as it quotes them (3.7%, not 4%)."""
    return "/".join(
        f"{paper[f'{metric}_{size}'] * 100:g}%" for size in ("large", "small")
    )


def render_table4(rows: List[Table4Row]) -> str:
    lines = [
        "Table 4: write-penalty reduction (WPR) and replacement miss-rates (MR)",
        f"{'app':<10}{'MR large':>9}{'MR small':>9}"
        f"{'WPR large':>11}{'WPR small':>11}   "
        f"{'paper MR (large/small)':<25}paper WPR (large/small)",
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<10}{row.mr_large:>9.1%}{row.mr_small:>9.1%}"
            f"{row.wpr_large:>11.1%}{row.wpr_small:>11.1%}"
            f"   {_paper_pair(row.paper, 'mr'):<25}"
            f"{_paper_pair(row.paper, 'wpr')}"
        )
    return "\n".join(lines)
