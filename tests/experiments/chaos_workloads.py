"""Misbehaving workloads for resilience tests, registered on import.

Each factory goes into ``repro.workloads.WORKLOADS`` under a ``test-``
name.  Every ``run_many`` call forks its own workers, so a sweep started
after this import finds them.  The misbehavior is driven by filesystem
markers (shared between parent and workers), keeping every workload
deterministic:

* ``test-crash-once``   — ``os._exit(1)`` the first time its marker is
  absent, then behaves as tiny MigratoryCounters.
* ``test-crash-always`` — ``os._exit(1)`` every time.
* ``test-hang``         — sleeps ``seconds`` before building the
  workload (simulates a wedged simulation).
* ``test-interrupt-once`` — the first time its marker is absent, sends
  SIGINT to the sweep that forked its worker and sleeps (Ctrl-C
  mid-sweep), then behaves normally.
"""

import os
import signal
import time
from pathlib import Path

from repro.workloads import WORKLOADS
from repro.workloads.synthetic import MigratoryCounters


def _normal(num_processors, seed, kwargs):
    kwargs.pop("marker", None)
    kwargs.pop("seconds", None)
    kwargs.setdefault("iterations", 4)
    return MigratoryCounters(num_processors, seed=seed, **kwargs)


def _crash_once(num_processors, *, marker, seed=42, **kwargs):
    path = Path(marker)
    if not path.exists():
        path.write_text("crashed")
        os._exit(1)
    return _normal(num_processors, seed, kwargs)


def _crash_always(num_processors, *, seed=42, **kwargs):
    os._exit(1)


def _hang(num_processors, *, seconds=30.0, seed=42, **kwargs):
    time.sleep(seconds)
    return _normal(num_processors, seed, kwargs)


def _interrupt_once(num_processors, *, marker, seed=42, **kwargs):
    path = Path(marker)
    if not path.exists():
        path.write_text("interrupted")
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(30.0)  # the interrupted sweep kills this worker
    return _normal(num_processors, seed, kwargs)


WORKLOADS.setdefault("test-crash-once", _crash_once)
WORKLOADS.setdefault("test-crash-always", _crash_always)
WORKLOADS.setdefault("test-hang", _hang)
WORKLOADS.setdefault("test-interrupt-once", _interrupt_once)
