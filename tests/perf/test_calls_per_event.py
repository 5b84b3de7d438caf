"""Interpreter calls per simulated event, bounded per protocol.

The simulator's speed is mostly the number of Python calls it makes per
event, and unlike a timing that count does not depend on the host: a
profiled run of the same cell gives the same count on every rerun, and
it moves by less than 0.3% between Python 3.9 and 3.13.  Each bound is
1% above the count measured when it was set (tiny MP3D, checking off;
the largest of Python 3.9.18, 3.11.7, 3.12.1 and 3.13.0):

    ========  ===============  =====
    protocol  calls per event  bound
    ========  ===============  =====
    AD        13.70            13.84
    W-I       13.38            13.52
    Dragon    12.10            12.23
    ========  ===============  =====

A change that adds calls per event raises the bound in its own diff, as
``tests/test_settable_values.py`` does for knobs, so the cost shows in
review.  To re-measure, run from the repo root:

    PYTHONPATH=src python - <<'EOF'
    from tests.perf.test_calls_per_event import calls_per_event
    for name in ("AD", "W-I", "Dragon"):
        print(name, round(calls_per_event(name), 4))
    EOF
"""

import cProfile
import pstats

import pytest

from repro.experiments.runner import run_workload
from repro.protocols import policy_for

BOUNDS = {"AD": 13.84, "W-I": 13.52, "Dragon": 12.23}


def calls_per_event(protocol: str) -> float:
    """Profiled calls per event of tiny MP3D under ``protocol``."""
    policy = policy_for(protocol)
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_workload("mp3d", policy, preset="tiny", check_coherence=False)
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls / result.events_processed


@pytest.mark.parametrize("protocol", sorted(BOUNDS))
def test_calls_per_event_within_bound(protocol):
    assert calls_per_event(protocol) <= BOUNDS[protocol]
