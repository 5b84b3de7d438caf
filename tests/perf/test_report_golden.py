r"""The paper's numbers, checked: the default-preset report is a golden.

``report_default.txt`` is the stdout of ``repro-sim report --preset
default --no-cache``: Table 1, Figure 5, Table 3, Figure 6, Table 4,
Section 5.4, the ablation and Section 5.2, with the paper's value
printed beside each measured one.  The simulator is deterministic, so
the report is regenerated here and must match byte for byte; any change
to simulated results shows up as a diff to this file or to
``golden_tiny.json``.  EXPERIMENTS.md quotes the report in fenced
``report`` blocks, and each block must appear in the golden line for
line, so the document cannot drift from the code.

The shape checks below read the report's own rows back from its result
store, without simulating again.  They pin the paper's claims (who
wins, orderings, rough factors), so a refreshed golden that breaks one
of them fails here.

Refreshing the golden is a deliberate act (a protocol or timing-model
change).  From the repo root:

    PYTHONPATH=src python -m repro.cli report --preset default \
        --no-cache > tests/perf/report_default.txt

then copy the changed lines into the EXPERIMENTS.md blocks that quote
them, and explain the delta in the commit message.
"""

import re
from pathlib import Path

import pytest

from repro.experiments import (
    run_figure5,
    run_figure6,
    run_nomig_necessity,
    run_rxq_heuristic_ablation,
    run_section54,
    run_table3,
    run_table4,
)
from repro.experiments.figure6 import cell
from repro.experiments.store import ResultStore
from repro.stats.report import full_report
from repro.stats.sharing_profile import invalidation_profile

GOLDEN = Path(__file__).parent / "report_default.txt"
EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
SECTION_SEPARATOR = "\n\n" + "=" * 72 + "\n\n"


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ResultStore(tmp_path_factory.mktemp("report-store"))


@pytest.fixture(scope="module")
def report(store):
    """The default-preset report, as ``repro-sim report`` computes it."""
    return full_report(
        preset="default", check_coherence=True, workers=2, store=store
    )


@pytest.fixture(scope="module")
def cached(report, store):
    """Run an experiment on the report's cells: store hits, no simulation."""

    def run(experiment, **kwargs):
        misses = store.stats.misses
        rows = experiment(check_coherence=True, store=store, **kwargs)
        assert store.stats.misses == misses, (
            f"{experiment.__name__} needed a cell the report did not run"
        )
        return rows

    return run


def test_report_matches_golden(report):
    # The CLI prints the report followed by one newline.
    assert report + "\n" == GOLDEN.read_text()


def _quoted_blocks():
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    return [
        block.splitlines()
        for block in re.findall(r"^```report\n(.*?)^```$", text, re.M | re.S)
    ]


def test_experiments_md_quotes_the_golden_verbatim():
    golden = GOLDEN.read_text()
    lines = golden.splitlines()
    blocks = _quoted_blocks()
    for block in blocks:
        assert any(
            lines[start:start + len(block)] == block
            for start in range(len(lines) - len(block) + 1)
        ), "EXPERIMENTS.md quotes lines the report does not print:\n" + (
            "\n".join(block)
        )
    # Every section of the report is quoted, so none can drift unseen.
    quoted = {line for block in blocks for line in block}
    for section in golden.rstrip("\n").split(SECTION_SEPARATOR):
        assert section.splitlines()[0] in quoted, section


def test_figure5_relative_performance(cached):
    by_name = {row.workload: row for row in cached(run_figure5, preset="default")}
    assert by_name["mp3d"].etr > 1.3
    assert by_name["cholesky"].etr > 1.1
    assert by_name["water"].etr > 1.0
    assert 0.93 <= by_name["lu"].etr <= 1.07
    # The paper's winner ordering holds: MP3D > Cholesky > Water > LU.
    assert (
        by_name["mp3d"].etr
        > by_name["cholesky"].etr
        > by_name["water"].etr
        > by_name["lu"].etr - 0.02
    )
    # The improvement comes out of write stall (sequential consistency).
    for name in ("mp3d", "cholesky", "water"):
        row = by_name[name]
        wi_ws = row.comparison.wi.aggregate_breakdown.write_stall
        ad_ws = row.comparison.ad.aggregate_breakdown.write_stall
        assert ad_ws < 0.5 * wi_ws, name


def test_gupta_weber_invalidation_patterns(cached):
    """Section 2.1's premise, on the Figure 5 W-I runs: for MP3D and
    Water "more than 98% of the read-exclusive requests resulted in
    single invalidations"; LU's writes are first touches."""
    profiles = {
        row.workload: invalidation_profile(row.comparison.wi)
        for row in cached(run_figure5, preset="default")
    }
    assert profiles["mp3d"].single_invalidation_fraction > 0.85
    assert profiles["water"].single_invalidation_fraction > 0.90
    assert profiles["cholesky"].single_invalidation_fraction > 0.60
    assert profiles["lu"].zero_invalidation_fraction > 0.9
    # Nobody is dominated by wide (2+) invalidations.
    for name, profile in profiles.items():
        assert profile.multiple_invalidation_fraction < 0.25, name


def test_table3_reductions(cached):
    red = {row.workload: row for row in cached(run_table3, preset="default")}
    # The paper's ordering of read-exclusive reductions.
    assert (
        red["water"].rx_reduction
        > red["mp3d"].rx_reduction
        > red["cholesky"].rx_reduction
        > red["lu"].rx_reduction
    )
    assert red["water"].rx_reduction > 0.9
    assert red["mp3d"].rx_reduction > 0.7
    assert red["cholesky"].rx_reduction > 0.5
    assert red["lu"].rx_reduction < 0.15
    # Traffic: >20% for migratory apps (paper: 32/22/31), ~0 for LU.
    for name in ("mp3d", "cholesky", "water"):
        assert red[name].traffic_reduction > 0.2, name
    assert abs(red["lu"].traffic_reduction) < 0.05


def test_figure6_consistency_models(cached):
    cells = cached(run_figure6, preset="default")

    def norm(variant, policy):
        return cell(cells, variant, policy).normalized_time

    # WO hides write latency entirely for both protocols.
    for variant in ("WO Cont.", "WO No Cont."):
        for policy in ("W-I", "AD"):
            breakdown = cell(cells, variant, policy).result.aggregate_breakdown
            assert breakdown.write_stall == 0, (variant, policy)
    # AD gains under contended WO; the gap (nearly) closes without
    # contention (paper: 16% -> ~0%).
    gain_cont = 1 - norm("WO Cont.", "AD") / norm("WO Cont.", "W-I")
    gain_nocont = 1 - norm("WO No Cont.", "AD") / norm("WO No Cont.", "W-I")
    assert gain_cont > 0.05
    assert gain_nocont < 0.05
    assert gain_cont > gain_nocont
    # AD under SC is competitive with W-I under WO (paper: even better).
    assert norm("SC", "AD") <= norm("WO Cont.", "W-I") * 1.10


def test_table4_cache_size(cached):
    rows = cached(run_table4, preset="default")
    by_name = {row.workload: row for row in rows}
    # Small caches raise the replacement miss rate.
    for row in rows:
        assert row.mr_small >= row.mr_large, row.workload
    assert by_name["mp3d"].mr_small > 0.05
    assert by_name["lu"].mr_small > 0.05
    # WPR: high for migratory apps, smaller at the small cache where the
    # footprint thrashes (the paper's MP3D trend), near zero for LU.
    assert by_name["mp3d"].wpr_large > 0.5
    assert by_name["water"].wpr_large > 0.5
    assert by_name["cholesky"].wpr_large > 0.4
    assert by_name["mp3d"].wpr_small < by_name["mp3d"].wpr_large
    assert by_name["lu"].wpr_large < 0.2
    assert by_name["lu"].wpr_small < 0.2


def test_section54_stability(cached):
    rows = cached(run_section54, preset="default")
    for row in rows:
        # Stability: reverts are a small fraction of migratory reads.
        assert row.nomig_fraction < 0.10, row.workload
    # Water's sharing is the most stable, as in the paper.
    fractions = {row.workload: row.nomig_fraction for row in rows}
    assert fractions["water"] <= fractions["mp3d"]


def test_section54_nomig_necessity(cached):
    # "Impacted significantly": read-only data ping-pongs forever.
    assert cached(run_nomig_necessity).slowdown > 1.0


def test_rxq_heuristic_ablation(cached):
    rows = cached(run_rxq_heuristic_ablation, preset="default")
    # "Did not provide consistent performance improvements": the
    # heuristic never helps by more than a few percent on any app.
    assert all(row.time_ratio > 0.95 for row in rows)
