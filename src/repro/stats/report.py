"""Plain-text reporting helpers.

Small, dependency-free renderers used by the CLI: aligned tables,
percentage bars, and a full "reproduce everything" report that strings
together every experiment module.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows as an aligned monospace table."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


def percentage_bar(fraction: float, width: int = 40, fill: str = "#") -> str:
    """An ASCII bar for a 0..1 fraction (clipped)."""
    clipped = max(0.0, min(1.0, fraction))
    filled = round(clipped * width)
    return fill * filled + "." * (width - filled)


def stacked_bar(parts: dict, width: int = 40) -> str:
    """Stacked execution-time bar: busy/sync/read/write as b/s/r/w runs.

    ``parts`` maps component name to its fraction of the *W-I baseline*
    (so an AD bar shorter than ``width`` chars shows the saved time).
    """
    symbols = {"busy": "b", "sync": "s", "read": "r", "write": "w"}
    bar = ""
    for name in ("busy", "sync", "read", "write"):
        bar += symbols[name] * round(parts.get(name, 0.0) * width)
    return bar


def full_report(
    preset: str = "default", check_coherence: bool = False, workers: int = 1,
    store=None,
) -> str:
    """Run every experiment and render the complete paper-vs-measured report.

    This is what ``repro-sim report`` prints; at the default preset it is
    the committed golden ``tests/perf/report_default.txt``, which
    EXPERIMENTS.md quotes.  ``workers=N`` fans each experiment's
    independent runs over N processes.  Several sections share cells, so
    every cell goes through a result store: ``store=`` (also serving
    cells computed by earlier runs), else a throwaway one, so that each
    distinct cell is simulated once.
    """
    if store is None:
        from tempfile import TemporaryDirectory

        from repro.experiments.store import ResultStore

        with TemporaryDirectory(prefix="repro-report-") as root:
            return full_report(preset, check_coherence, workers,
                               ResultStore(root))
    from repro.analysis import (
        ad_episode_cost,
        migratory_traffic_reduction,
        wi_episode_cost,
    )
    from repro.experiments import (
        measure_table1,
        render_figure5,
        render_figure6,
        render_section54,
        render_table1,
        render_table3,
        render_table4,
        run_figure5,
        run_figure6,
        run_nomig_necessity,
        run_rxq_heuristic_ablation,
        run_section54,
        run_table3,
        run_table4,
    )
    from repro.experiments.ablations import render_rxq_heuristic

    kwargs = dict(
        preset=preset, check_coherence=check_coherence, workers=workers,
        store=store,
    )
    sections = []
    sections.append(render_table1(measure_table1()))
    sections.append(render_figure5(run_figure5(**kwargs)))
    sections.append(render_table3(run_table3(**kwargs)))
    sections.append(render_figure6(run_figure6(**kwargs)))
    sections.append(render_table4(run_table4(**kwargs)))
    sections.append(render_section54(run_section54(**kwargs)))
    necessity = run_nomig_necessity(
        check_coherence=check_coherence, workers=workers, store=store
    )
    sections.append(
        "NoMig necessity (read-only sharing pattern): disabling the revert "
        f"slows execution by {necessity.slowdown:.0%}"
    )
    sections.append(render_rxq_heuristic(run_rxq_heuristic_ablation(**kwargs)))
    wi, ad = wi_episode_cost(), ad_episode_cost()
    sections.append(
        "Section 5.2 message arithmetic: W-I episode "
        f"{wi.total_bits} bits vs AD {ad.total_bits} bits "
        f"({migratory_traffic_reduction():.0%} reduction; paper: 704 vs 328, 53%)"
    )
    return ("\n\n" + "=" * 72 + "\n\n").join(sections)
