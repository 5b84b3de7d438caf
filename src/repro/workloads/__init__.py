"""Workloads: the paper's four benchmarks (synthetic models) and
micro sharing patterns.

``WORKLOADS`` maps benchmark names to factories; ``make_workload`` builds
one with a named parameter preset (:data:`PRESET_NAMES`).  The package
imports no workload module up front: each class, and
:mod:`repro.workloads.base`, loads on first access or on the first
``make_workload`` that needs it, so the CLI's argparse choices and the
serve daemon cost only the tables below.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable, Dict

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.base import Workload

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Workload", "fresh_programs"),
    ".cholesky": ("Cholesky",),
    ".lu": ("LU",),
    ".mp3d": ("MP3D",),
    ".synthetic": (
        "MigratoryCounters", "ProducerConsumer", "ReadOnlySharing",
        "UnsynchronizedMix",
    ),
    ".water": ("Water",),
})
__all__ = sorted(__all__ + [
    "PAPER_BENCHMARKS", "PRESETS", "PRESET_NAMES", "WORKLOADS",
    "check_preset", "make_workload",
])

_package = sys.modules[__name__]


def _on_use(class_name: str) -> Callable[..., Workload]:
    """A factory that imports the workload class on its first call."""

    def build(num_processors: int, **params) -> Workload:
        return getattr(_package, class_name)(num_processors, **params)

    return build


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "mp3d": _on_use("MP3D"),
    "cholesky": _on_use("Cholesky"),
    "water": _on_use("Water"),
    "lu": _on_use("LU"),
    "migratory-counters": _on_use("MigratoryCounters"),
    "producer-consumer": _on_use("ProducerConsumer"),
    "read-only": _on_use("ReadOnlySharing"),
    "random-mix": _on_use("UnsynchronizedMix"),
}

#: The preset names every workload accepts, smallest first.  A workload
#: without a :data:`PRESETS` table runs its class defaults under each.
PRESET_NAMES = ("tiny", "default", "paper")

#: Benchmark-scale parameter presets.  "default" is sized so a full
#: 16-node simulation takes seconds in pure Python; "paper" approaches
#: the paper's input sizes (minutes per run).
PRESETS: Dict[str, Dict[str, Dict[str, int]]] = {
    "mp3d": {
        "tiny": {"particles": 128, "steps": 3, "cells": 32},
        "default": {"particles": 512, "steps": 5, "cells": 64},
        "paper": {"particles": 10_000, "steps": 10, "cells": 1024},
    },
    "cholesky": {
        "tiny": {"supernodes": 24, "max_lines": 4},
        "default": {"supernodes": 48, "max_lines": 6},
        "paper": {"supernodes": 420, "max_lines": 12},
    },
    "water": {
        "tiny": {"molecules": 16, "steps": 2},
        "default": {"molecules": 32, "steps": 3},
        "paper": {"molecules": 288, "steps": 4},
    },
    "lu": {
        "tiny": {"columns": 16, "lines_per_column": 2},
        "default": {"columns": 32, "lines_per_column": 4},
        "paper": {"columns": 200, "lines_per_column": 13},
    },
}

PAPER_BENCHMARKS = ("mp3d", "cholesky", "water", "lu")


def check_preset(preset: str) -> None:
    """Raise ``ValueError`` unless ``preset`` is one of :data:`PRESET_NAMES`.

    A misspelled preset would otherwise run the class defaults, and a
    result store would cache them under the misspelling.
    """
    if preset not in PRESET_NAMES:
        raise ValueError(
            f"unknown preset {preset!r}; choose from " + ", ".join(PRESET_NAMES)
        )


def make_workload(
    name: str, num_processors: int, preset: str = "default", **overrides
) -> Workload:
    """Build a workload by name with a named parameter preset."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
    check_preset(preset)
    params = dict(PRESETS.get(name, {}).get(preset, {}))
    params.update(overrides)
    return factory(num_processors, **params)
