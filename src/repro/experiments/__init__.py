"""Per-table/figure experiment reproducers (see DESIGN.md Section 2)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".ablations": ("run_bandwidth_sweep", "run_rxq_heuristic_ablation"),
    ".chaos": ("ChaosCell", "ChaosReport", "run_chaos"),
    ".figure5": ("PAPER_ETR", "Figure5Row", "render_figure5", "run_figure5"),
    ".figure6": ("Figure6Cell", "cell", "render_figure6", "run_figure6"),
    ".parallel": (
        "RunError", "RunOutcome", "RunSpec", "default_workers", "run_many",
        "run_pairs",
    ),
    ".prefetch": (
        "PrefetchComparison", "render_prefetch", "run_prefetch_comparison",
    ),
    ".runner": (
        "ProtocolComparison", "compare_many", "compare_protocols",
        "run_workload",
    ),
    ".scaling": ("ScalingPoint", "render_scaling", "run_scaling"),
    ".section54": ("render_section54", "run_nomig_necessity", "run_section54"),
    ".table1": ("PAPER_TABLE1", "measure_table1", "render_table1"),
    ".table3": ("PAPER_TABLE3", "render_table3", "run_table3"),
    ".table4": ("PAPER_TABLE4", "render_table4", "run_table4"),
})
