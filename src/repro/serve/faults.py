"""Fault injection for the serve daemon itself.

``repro.faults`` chaos-tests the *protocol*; :class:`ServeFaultPlan`
chaos-tests the *service* — deterministic, and byte-identical when off.
The server consults the plan at one point: just after dispatching a
cell's first attempt, it kills the worker running it (SIGKILL)
:data:`KILL_DELAY` seconds later, if the attempt is still running,
exercising the shared
:class:`~repro.experiments.parallel.CellPool`'s lost-worker path: the
dead worker is reaped and replaced, and its cell requeued.

The plan kills the first ``max_kills`` first attempts it sees and no
more, so a chaos run always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

#: Seconds between dispatching the doomed attempt and the kill.
KILL_DELAY = 0.02


@dataclass
class ServeFaultPlan:
    """Service-level fault schedule: up to ``max_kills`` worker kills."""

    max_kills: int = 2

    kills: int = field(default=0, init=False)

    def should_kill(self, attempt: int) -> bool:
        """Whether to kill the worker running a cell's ``attempt``.

        Only first attempts are targeted, so a retried cell can always
        finish — the plan tests recovery, not permanent denial.
        """
        if attempt != 1 or self.kills >= self.max_kills:
            return False
        self.kills += 1
        return True

    def to_json(self) -> Dict[str, Any]:
        return {"max_kills": self.max_kills, "kills": self.kills}
