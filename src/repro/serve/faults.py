"""Fault injection for the serve daemon itself.

``repro.faults`` chaos-tests the *protocol*; :class:`ServeFaultPlan`
chaos-tests the *service* the same way — seeded, deterministic, and
byte-identical when off.  The server consults the plan at one point:
just after dispatching a cell's first attempt, it may kill one live pool
process (SIGKILL), exercising the shared
:class:`~repro.experiments.parallel.CellPool`'s lost-worker path: pool
discard and rebuild, then requeue.

Each draw comes from a dedicated :class:`random.Random` stream keyed by
the seed and the cell key, so a given plan perturbs exactly the same
cells on every run, and ``max_kills`` is a hard budget, so a chaos run
always terminates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class ServeFaultPlan:
    """Seeded service-level fault schedule (all off by default)."""

    seed: int = 0
    #: Probability a cell's *first* attempt gets its worker killed.
    kill_fraction: float = 0.0
    max_kills: int = 2
    #: Seconds between dispatching the doomed attempt and the kill.
    kill_delay: float = 0.02

    kills: int = field(default=0, init=False)

    def should_kill(self, key: str, attempt: int) -> bool:
        """Whether to kill the worker running ``key``'s attempt.

        Only first attempts are targeted, so a retried cell can always
        finish — the plan tests recovery, not permanent denial.
        """
        if attempt != 1 or self.kills >= self.max_kills:
            return False
        if random.Random(f"{self.seed}:kill:{key}").random() >= self.kill_fraction:
            return False
        self.kills += 1
        return True

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "kill_fraction": self.kill_fraction,
            "max_kills": self.max_kills,
            "kill_delay": self.kill_delay,
            "kills": self.kills,
        }
