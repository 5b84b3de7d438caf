"""Golden-run determinism: results must be bit-identical across versions.

``golden_tiny.json`` records every deterministic observable (execution
time, event count, traffic, all protocol counters, per-kind message
counts) of tiny runs: MP3D and Cholesky under the full protocol family,
and Water and LU under W-I and AD, so that the tiny Figure-5 sweep (the
four paper benchmarks under W-I and AD) is pinned whole.  The MP3D and
Cholesky W-I and AD entries were captured before the event-core
overhaul and have survived it and the protocol-framework refactor
unchanged; the MESI/Dragon/Hybrid entries pin the new protocols from
their first release.  Any optimization of the simulator's hot paths —
queue layout, message pooling, counter storage — must reproduce these
numbers exactly; a mismatch means simulated *behaviour* changed, not
just speed.  ``report_default.txt`` (``test_report_golden.py``) pins
the default-preset numbers the same way.

Refreshing the goldens is a deliberate act (a protocol or timing-model
change): regenerate an entry from the repo root with

    PYTHONPATH=src python - <<'EOF'
    import json
    from tests.perf.test_golden_determinism import observe
    print(json.dumps(observe("water/AD"), indent=2, sort_keys=True))
    EOF

and explain the delta in the commit message.
"""

import json
from pathlib import Path

import pytest

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, execute_spec

GOLDEN_PATH = Path(__file__).parent / "golden_tiny.json"

POLICIES = {
    "W-I": ProtocolPolicy.write_invalidate(),
    "AD": ProtocolPolicy.adaptive_default(),
    "MESI": ProtocolPolicy.mesi(),
    "Dragon": ProtocolPolicy.dragon(),
    "Hybrid": ProtocolPolicy.hybrid(),
}


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def observe(label):
    """Every golden observable of the tiny run ``<workload>/<policy>``."""
    workload, policy_name = label.split("/")
    spec = RunSpec.make(
        workload, POLICIES[policy_name], preset="tiny", check_coherence=True
    )
    result = execute_spec(spec).unwrap()
    return {
        "execution_time": result.execution_time,
        "events_processed": result.events_processed,
        "network_bits": result.network_bits,
        "network_messages": result.network_messages,
        "counters": result.counters.as_dict(),
        "count_by_kind": result.count_by_kind,
    }


@pytest.mark.parametrize("label", sorted(_golden()))
def test_golden_run_matches(label):
    want = _golden()[label]
    got = observe(label)
    for key, expected in want.items():
        assert got[key] == expected, (
            f"{label}: {key} diverged from golden "
            f"(simulated behaviour changed, not just speed)"
        )


@pytest.mark.parametrize("policy_name", ["W-I", "AD", "MESI", "Dragon", "Hybrid"])
def test_new_protocols_deterministic_across_processes(policy_name):
    """A fresh interpreter reproduces the mp3d golden byte-for-byte.

    The golden file pins this process's results; running the same spec
    in a subprocess proves nothing about the numbers depends on
    accumulated interpreter state (hash seeds, import order, pools).
    """
    import os
    import subprocess
    import sys

    label = f"mp3d/{policy_name}"
    want = _golden()[label]
    script = (
        "import json\n"
        "from repro.protocols import policy_for\n"
        "from repro.experiments.parallel import RunSpec, execute_spec\n"
        f"spec = RunSpec.make('mp3d', policy_for({policy_name!r}),"
        " preset='tiny', check_coherence=True)\n"
        "result = execute_spec(spec).unwrap()\n"
        "print(json.dumps({\n"
        "    'execution_time': result.execution_time,\n"
        "    'events_processed': result.events_processed,\n"
        "    'network_bits': result.network_bits,\n"
        "    'network_messages': result.network_messages,\n"
        "    'counters': result.counters.as_dict(),\n"
        "    'count_by_kind': result.count_by_kind,\n"
        "}))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(proc.stdout) == want
