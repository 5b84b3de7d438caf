"""Chaos sweep smoke tests (the CLI's ``chaos`` subcommand backend)."""

import json

from repro.core.policy import ProtocolPolicy
from repro.experiments.chaos import run_chaos


def test_chaos_grid_survives_and_reports():
    report = run_chaos(
        ["migratory-counters"], (0.0, 0.5), preset="tiny", seed=3, workers=1,
        policies=(
            ProtocolPolicy("W-I"), ProtocolPolicy("AD"),
        ),
    )
    assert report.all_ok
    assert len(report.cells) == 4  # 1 workload x 2 policies x 2 intensities

    perturbed = report.cell("migratory-counters", "AD", 0.5)
    assert perturbed.ok
    assert perturbed.fault_delays > 0
    assert perturbed.latency_ratio is not None
    baseline = report.cell("migratory-counters", "AD", 0.0)
    assert baseline.fault_delays == 0

    text = report.render()
    assert "survival matrix" in text
    assert "all cells survived" in text

    doc = json.loads(json.dumps(report.to_json(), sort_keys=True))
    assert doc["all_ok"] is True
    assert len(doc["cells"]) == 4
    assert {c["policy"] for c in doc["cells"]} == {"W-I", "AD"}


def test_chaos_defaults_to_full_protocol_family():
    """The survival matrix covers workloads x all five protocols x
    intensities, and every cell must finish with the checker clean."""
    report = run_chaos(
        ["migratory-counters"], (0.0, 0.5), preset="tiny", seed=3, workers=2
    )
    assert report.all_ok
    assert report.policies == ["W-I", "AD", "MESI", "Dragon", "Hybrid"]
    assert len(report.cells) == 10  # 1 workload x 5 policies x 2 intensities
    # Update protocols really ran under faults: their perturbed cells
    # report fault activity like everyone else's.
    for policy in ("Dragon", "Hybrid"):
        cell = report.cell("migratory-counters", policy, 0.5)
        assert cell.ok
        assert cell.fault_delays > 0
    text = report.render()
    for policy in report.policies:
        assert policy in text
    doc = report.to_json()
    assert doc["policies"] == report.policies


def test_chaos_cli_smoke(capsys):
    from repro.cli import main

    code = main(
        ["chaos", "migratory-counters", "--intensities", "0,0.5",
         "--preset", "tiny", "--json", "--protocols", "W-I,Dragon",
         "--workers", "2"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_ok"] is True
    assert doc["intensities"] == [0.0, 0.5]
    assert doc["policies"] == ["W-I", "Dragon"]
