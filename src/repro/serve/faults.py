"""Fault injection for the serve daemon itself.

``repro.faults`` chaos-tests the *protocol*; :class:`ServeFaultPlan`
chaos-tests the *service* the same way — seeded, deterministic, and
byte-identical when off.  The server consults the plan at two points:

* **Worker kills** — just after dispatching a cell's first attempt, kill
  one live pool process (SIGKILL), exercising the shared
  :class:`~repro.experiments.parallel.CellPool`'s lost-worker path:
  pool discard and rebuild, then requeue.
* **Dropped stream frames** — abort a ``/jobs/<id>/stream`` connection
  mid-frame, exercising client-side NDJSON resumption via ``?after=``.

All draws come from dedicated :class:`random.Random` streams keyed by
``(seed, kind, coordinates)``, so a given plan perturbs exactly the same
cells/frames on every run, and each knob has a hard budget (``max_*``)
so a chaos run always terminates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Set, Tuple


@dataclass
class ServeFaultPlan:
    """Seeded service-level fault schedule (all off by default)."""

    seed: int = 0
    #: Probability a cell's *first* attempt gets its worker killed.
    kill_fraction: float = 0.0
    max_kills: int = 2
    #: Seconds between dispatching the doomed attempt and the kill.
    kill_delay: float = 0.02
    #: Probability a stream frame's connection is dropped before the write.
    drop_frame_fraction: float = 0.0
    max_drops: int = 4

    kills: int = field(default=0, init=False)
    drops: int = field(default=0, init=False)
    _dropped: Set[Tuple[str, int]] = field(default_factory=set, init=False)

    def _draw(self, kind: str, *coords: Any) -> random.Random:
        return random.Random(":".join(str(part) for part in (self.seed, kind) + coords))

    def should_kill(self, key: str, attempt: int) -> bool:
        """Whether to kill the worker running ``key``'s attempt.

        Only first attempts are targeted, so a retried cell can always
        finish — the plan tests recovery, not permanent denial.
        """
        if attempt != 1 or self.kills >= self.max_kills:
            return False
        if self._draw("kill", key).random() >= self.kill_fraction:
            return False
        self.kills += 1
        return True

    def should_drop_frame(self, job_id: str, seq: int) -> bool:
        """Whether to abort the stream before sending this frame.

        Each (job, seq) pair drops at most once, so a resuming client
        always makes progress past the faulted frame.
        """
        if self.drops >= self.max_drops or (job_id, seq) in self._dropped:
            return False
        if self._draw("drop", job_id, seq).random() >= self.drop_frame_fraction:
            return False
        self._dropped.add((job_id, seq))
        self.drops += 1
        return True

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "kill_fraction": self.kill_fraction,
            "max_kills": self.max_kills,
            "kill_delay": self.kill_delay,
            "drop_frame_fraction": self.drop_frame_fraction,
            "max_drops": self.max_drops,
            "kills": self.kills,
            "drops": self.drops,
        }
