"""Experiment-harness tests: each table/figure reproducer at tiny scale.

Shape assertions mirror DESIGN.md Section 5: who wins, rough factors and
orderings — not absolute cycle counts.
"""

import pytest

from repro.core.policy import ProtocolPolicy
from repro.experiments import (
    PAPER_TABLE1,
    compare_protocols,
    measure_table1,
    render_figure5,
    render_figure6,
    render_section54,
    render_table1,
    render_table3,
    render_table4,
    run_bandwidth_sweep,
    run_figure5,
    run_figure6,
    run_nomig_necessity,
    run_rxq_heuristic_ablation,
    run_section54,
    run_table3,
    run_table4,
    run_workload,
)
from repro.experiments.figure6 import cell
from repro.machine.config import MachineConfig


@pytest.fixture(scope="module")
def table1_rows():
    return measure_table1()


def test_table1_hit_is_one_pclock(table1_rows):
    assert table1_rows["hit"].measured == 1


def test_table1_all_rows_within_tolerance(table1_rows):
    for name, row in table1_rows.items():
        assert abs(row.relative_error) <= 0.15, (name, row.measured, row.paper)


def test_table1_orderings(table1_rows):
    m = {name: row.measured for name, row in table1_rows.items()}
    assert m["hit"] < m["local_fill"] < m["remote_fill_2hop"] < m["remote_fill_3hop"]
    assert m["rx_2hop"] < m["rx_3hop"]


def test_table1_render(table1_rows):
    text = render_table1(table1_rows)
    assert "local_fill" in text and "paper" in text


@pytest.fixture(scope="module")
def figure5_rows():
    return run_figure5(preset="tiny")


def test_figure5_ad_wins_on_migratory_apps(figure5_rows):
    by_name = {row.workload: row for row in figure5_rows}
    assert by_name["mp3d"].etr > 1.2
    assert by_name["cholesky"].etr > 1.1
    assert by_name["water"].etr > 1.0
    assert 0.93 <= by_name["lu"].etr <= 1.07  # no adverse impact


def test_figure5_write_stall_reduced(figure5_rows):
    for row in figure5_rows:
        if row.workload == "lu":
            continue
        wi = row.comparison.wi.aggregate_breakdown.write_stall
        ad = row.comparison.ad.aggregate_breakdown.write_stall
        assert ad < wi, row.workload


def test_figure5_render(figure5_rows):
    text = render_figure5(figure5_rows)
    assert "mp3d" in text and "ETR" in text


@pytest.fixture(scope="module")
def table3_rows():
    return run_table3(preset="tiny")


def test_table3_rx_reduction_ordering(table3_rows):
    red = {row.workload: row.rx_reduction for row in table3_rows}
    # Paper ordering: Water > MP3D > Cholesky >> LU.
    assert red["water"] > red["mp3d"] > red["cholesky"] > red["lu"]
    assert red["water"] > 0.85
    assert red["mp3d"] > 0.5
    assert red["lu"] < 0.15


def test_table3_traffic_reduction(table3_rows):
    red = {row.workload: row.traffic_reduction for row in table3_rows}
    assert red["mp3d"] > 0.2
    assert red["water"] > 0.2
    assert red["cholesky"] > 0.15
    assert abs(red["lu"]) < 0.05


def test_table3_render(table3_rows):
    assert "traffic" in render_table3(table3_rows)


@pytest.fixture(scope="module")
def figure6_cells():
    return run_figure6(preset="tiny")


def test_figure6_wo_hides_write_stall(figure6_cells):
    for variant in ("WO Cont.", "WO No Cont."):
        for policy in ("W-I", "AD"):
            c = cell(figure6_cells, variant, policy)
            breakdown = c.result.aggregate_breakdown
            assert breakdown.write_stall == 0, (variant, policy)


def test_figure6_ad_gains_more_with_contention(figure6_cells):
    def gain(variant):
        wi = cell(figure6_cells, variant, "W-I").normalized_time
        ad = cell(figure6_cells, variant, "AD").normalized_time
        return 1 - ad / wi

    assert gain("SC") > gain("WO Cont.") >= gain("WO No Cont.") - 0.02


def test_figure6_no_contention_closes_gap(figure6_cells):
    wi = cell(figure6_cells, "WO No Cont.", "W-I").normalized_time
    ad = cell(figure6_cells, "WO No Cont.", "AD").normalized_time
    assert 1 - ad / wi < 0.06  # "nearly identical" (paper)


def test_figure6_render(figure6_cells):
    assert "WO Cont." in render_figure6(figure6_cells)


@pytest.fixture(scope="module")
def table4_rows():
    return run_table4(preset="tiny", large_cache=64 * 1024, small_cache=512)


def test_table4_small_cache_raises_miss_rate(table4_rows):
    for row in table4_rows:
        assert row.mr_small >= row.mr_large, row.workload


def test_table4_wpr_high_for_migratory_apps(table4_rows):
    by_name = {row.workload: row for row in table4_rows}
    assert by_name["mp3d"].wpr_large > 0.5
    assert by_name["water"].wpr_large > 0.5
    assert by_name["lu"].wpr_large < 0.2


def test_table4_render(table4_rows):
    assert "WPR" in render_table4(table4_rows)


def test_section54_stability_and_render():
    rows = run_section54(preset="tiny")
    for row in rows:
        # Migratory sharing is stable: reverts are a small fraction.
        assert row.nomig_fraction < 0.2, row.workload
    assert "NoMig" in render_section54(rows)


def test_nomig_necessity_demonstration():
    necessity = run_nomig_necessity(read_rounds=20)
    # The paper: disabling the revert "impacted significantly".
    assert necessity.slowdown > 1.0  # more than 2x total time
    assert necessity.without_nomig.counter("migratory_reads") > (
        necessity.with_nomig.counter("migratory_reads") * 5
    )


def test_rxq_heuristic_no_consistent_improvement():
    rows = run_rxq_heuristic_ablation(preset="tiny")
    # The heuristic must never be a large win (paper dropped it).
    assert all(row.time_ratio > 0.9 for row in rows)


def test_bandwidth_sweep_default_preset():
    """Section 6: AD's traffic reduction matters more on narrow links."""
    points = run_bandwidth_sweep(
        workload="mp3d", link_widths=(4, 8, 16, 32), check_coherence=False,
        workers=2,
    )
    # AD's advantage is at least as large on the narrowest links as on
    # the widest (traffic reduction matters more when bandwidth is scarce).
    assert points[0].etr >= points[-1].etr - 0.02
    assert all(point.etr > 1.2 for point in points)


def test_associativity_reduces_conflict_misses():
    misses = {}
    for assoc in (1, 2, 4):
        config = MachineConfig.dash_default(cache_size=1024, associativity=assoc)
        result = run_workload(
            "mp3d", ProtocolPolicy.write_invalidate(), preset="tiny",
            config=config, check_coherence=False,
        )
        misses[assoc] = result.counter("replacement_misses")
    # Higher associativity never increases conflict misses on this
    # workload (same capacity).
    assert misses[2] <= misses[1]
    assert misses[4] <= misses[2]


def test_compare_protocols_metrics_consistent():
    comparison = compare_protocols("migratory-counters", iterations=10)
    assert comparison.rx_reduction > 0.3
    assert comparison.traffic_reduction > 0.2
    assert comparison.execution_time_ratio >= 1.0
    assert 0 <= comparison.replacement_miss_rate("wi") <= 1
