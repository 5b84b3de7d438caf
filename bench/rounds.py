"""One benchmark round: its cells run, checked and timed.

``mode: sim`` runs each cell with ``run_workload`` and stores it, then
fetches the stored cells back in repeated passes (the warm path a rerun
of ``repro-sim run`` takes).  ``mode: sweep`` runs the cells with
``run_many`` into the store (cold), then repeats ``run_many`` over the
same specs (warm, all hits).  :func:`traced_round` reruns a round under
the layer wrappers, whose fingerprints must agree with the plain round.
"""

from __future__ import annotations

import json
import time
from statistics import median
from typing import Any, Dict, List

from repro.experiments.parallel import RunOutcome, RunSpec, result_fingerprint, run_many
from repro.experiments.runner import run_workload
from repro.experiments.store import ResultStore
from repro.machine.config import MachineConfig
from repro.obs import metrics as obs_metrics
from repro.obs import validate_trace_events
from repro.protocols import policy_for

from layers import Recorder, chrome_trace, layer_metrics
from summary import digest


def spec_of(cell: Dict[str, Any]) -> RunSpec:
    return RunSpec.make(
        cell["workload"], policy_for(cell["protocol"]), preset=cell["preset"],
        check_coherence=False, seed=cell["seed"], tag=cell["tag"],
        **cell["overrides"],
    )


def simulate(spec: RunSpec, **options):
    return run_workload(
        spec.workload, spec.policy, preset=spec.preset,
        check_coherence=spec.check_coherence, seed=spec.seed,
        **options, **spec.override_kwargs(),
    )


def obs_overheads(spec: RunSpec) -> Dict[str, float]:
    """Wall-time ratios of the span tracer and the metrics sampler on one cell."""
    walls = []
    for options in ({}, {"trace": True},
                    {"config": MachineConfig.dash_default(metrics_interval=1000)}):
        begin = time.perf_counter()
        simulate(spec, **options)
        walls.append(time.perf_counter() - begin)
    return {
        "span_tracer_overhead_ratio": walls[1] / walls[0],
        "sampler_overhead_ratio": walls[2] / walls[0],
    }


class Round:
    """One round's cells, run and checked; fills the report fields."""

    def __init__(self, job: Dict[str, Any], store: ResultStore) -> None:
        self.job = job
        self.store = store
        self.specs = [spec_of(cell) for cell in job["cells"]]
        self.cells: Dict[str, str] = {}
        self.failed: List[str] = []
        self.events = 0
        self.cell_walls: List[float] = []
        self.counters: Dict[str, int] = {}
        self.by_kind: Dict[str, int] = {}
        self.network = [0, 0]
        #: Wall seconds of the cold job and of each warm job.
        self.cold_jobs: List[float] = []
        self.warm_jobs: List[float] = []
        self.warm_cells = 0
        self.sweep: Dict[str, Any] = {}
        #: Called after each serially simulated cell (the traced round
        #: stops recording spans there).
        self.after_cell = lambda: None

    def _record(self, spec: RunSpec, result, wall: float) -> None:
        self.cells[spec.tag] = digest(result_fingerprint(result))
        self.events += result.events_processed
        self.cell_walls.append(wall)
        for name, value in result.counters.as_dict().items():
            self.counters[name] = self.counters.get(name, 0) + value
        for kind, count in result.count_by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + count
        self.network[0] += result.network_messages
        self.network[1] += result.network_bits

    def _check_warm(self, outcomes) -> None:
        for outcome in outcomes:
            self.warm_cells += 1
            if (outcome is None or not outcome.ok or not outcome.cached
                    or digest(result_fingerprint(outcome.result))
                    != self.cells.get(outcome.spec.tag)):
                self.failed.append(f"{outcome.spec.tag if outcome else '?'} (warm)")

    def run(self) -> None:
        if self.job["mode"] == "sim":
            self._run_sim()
        else:
            self._run_sweep()

    def _run_sim(self) -> None:
        begin = time.perf_counter()
        for spec in self.specs:
            start = time.perf_counter()
            try:
                result = simulate(spec)
            except Exception as exc:  # noqa: BLE001 - a failed cell is reported
                self.failed.append(f"{spec.tag}: {type(exc).__name__}: {exc}")
                continue
            wall = time.perf_counter() - start
            self.after_cell()
            self._record(spec, result, wall)
            self.store.put(RunOutcome(spec=spec, result=result, wall_time=wall))
        self.cold_jobs.append(time.perf_counter() - begin)
        self._warm(lambda: [self.store.fetch(spec) for spec in self.specs])

    def _run_sweep(self) -> None:
        workers = self.job["workers"]
        begin = time.perf_counter()
        outcomes = run_many(self.specs, workers=workers, store=self.store)
        sweep_wall = time.perf_counter() - begin
        self.cold_jobs.append(sweep_wall)
        for outcome in outcomes:
            if outcome.ok:
                self._record(outcome.spec, outcome.result, outcome.wall_time)
            else:
                self.failed.append(f"{outcome.spec.tag}: {outcome.error}")
        self.sweep = {
            "parallel_cell_s": self.cell_walls,
            "parallel_idle_s_per_cell":
                (sweep_wall * workers - sum(self.cell_walls)) / len(self.specs),
            "parallel_failed_cells": sum(1 for o in outcomes if not o.ok),
        }
        self._warm(lambda: run_many(self.specs, workers=workers, store=self.store))

    def cross_check(self) -> None:
        """Pooled results must agree with a serial run of one cell."""
        spec = self.specs[self.job["cross_check"] % len(self.specs)]
        if self.cells.get(spec.tag) != digest(result_fingerprint(simulate(spec))):
            self.failed.append(f"{spec.tag} (serial != pooled)")

    def _warm(self, fetch_all) -> None:
        """Run ``warm_passes`` warm jobs."""
        for _ in range(self.job["warm_passes"]):
            begin = time.perf_counter()
            outcomes = fetch_all()
            self.warm_jobs.append(time.perf_counter() - begin)
            self._check_warm(outcomes)


def traced_round(job: Dict[str, Any], plain: Round) -> Dict[str, Any]:
    """Rerun the round under the layer wrappers; return per-layer metrics."""
    overheads = obs_overheads(plain.specs[0])
    recorder = Recorder()
    traced = Round(job, ResultStore(job["store"] + "-traced"))
    spans = recorder.spans = []

    def stop_spans() -> None:
        # Spans cover the first simulated cell; later cells count only.
        recorder.spans = None

    traced.after_cell = stop_spans
    with recorder:
        traced.run()
    recorder.spans = None
    if traced.cells != plain.cells:
        plain.failed.append("traced fingerprints differ from the plain round")
    document = chrome_trace(spans)
    document["otherData"] = {"count_by_kind": traced.by_kind,
                             "layers": recorder.snapshot()}
    validate_trace_events(document)
    with open(job["trace_out"], "w") as handle:
        json.dump(document, handle)
    facts: Dict[str, Any] = {
        "counters": traced.counters,
        "events": traced.events,
        "network_messages": traced.network[0],
        "network_bits": traced.network[1],
        # A sweep's plain cold job also pays the pool start-up, so compare
        # its warm jobs, where the wrapped store calls happen.
        "wrapper_overhead_ratio": (
            sum(traced.cold_jobs) / sum(plain.cold_jobs)
            if job["mode"] == "sim"
            else median(traced.warm_jobs) / median(plain.warm_jobs)
        ),
        **overheads,
    }
    if job["mode"] == "sim":
        facts["cell_wall_s"] = sum(traced.cell_walls)
    else:
        facts.update(traced.sweep)
        retries = obs_metrics.REGISTRY.get("repro_runmany_retries_total")
        facts["parallel_retried_cells"] = int(retries.value) if retries else 0
    return layer_metrics(recorder.snapshot(), facts)
