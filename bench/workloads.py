"""The five benchmark workloads: their cells and how a run drives them.

A *cell* is one simulation: (workload, protocol, preset, overrides, seed).
Cell seeds are ``seed + round`` (``seed + job`` on sweep-serve), so every
cold cell is really cold.  A *job* is one request a user makes and waits
for: a round's cells run back to back (simulation workloads), one
``run_many`` call (sweep-local) or one 2-cell ``POST /jobs``
(sweep-serve).  Cold jobs simulate; warm jobs are served from a
``ResultStore``.

Every count here is fixed: how many rounds, warm passes, jobs and
restarts a run makes never depends on how fast the code under test is,
so two commits are always measured on the same cells.

Simulation workloads and sweep-local run each round in a fresh child
process (``child.py``); sweep-serve drives a ``repro-sim serve`` daemon
from this process with one closed-loop client.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from summary import percentile, ratio

HERE = Path(__file__).resolve().parent
APPS = ("mp3d", "cholesky", "water", "lu")
#: sweep-serve rotates over three apps whose job latencies do not overlap,
#: and submits cold jobs in groups of three, so the median job is always
#: a water job rather than the edge between two apps.
SERVE_APPS = ("cholesky", "water", "mp3d")
PROTOCOLS = ("W-I", "AD", "MESI", "Dragon", "Hybrid")
SCATTER = {"num_blocks": 16384, "ops": 1500, "write_fraction": 0.3}
SCATTER_SMOKE = {"num_blocks": 2048, "ops": 200, "write_fraction": 0.3}
#: Pool width: at most two worker processes, never more than the host has.
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: Set-up-only child launches per run of a child-process workload, spread
#: over its rounds, so the set-up median rests on more than the rounds.
SETUP_PROBES = 12
#: Warm jobs after each round's cold job.
WARM_PASSES = {"sim": 150, "sweep": 60}
#: sweep-serve daemon restarts on the warm store after the cold phase.
RESTARTS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    #: "sim" (serial cells in a child), "sweep" (run_many in a child) or
    #: "serve" (daemon + client).
    kind: str
    #: (app, protocol) pairs of one round (sweep-serve: one job's protocols).
    pairs: Tuple[Tuple[str, str], ...]
    preset: str
    #: Rounds (cold jobs on sweep-serve) in a run of BENCHMARK.json's
    #: ``run_seconds``, sized to about that long on a 2-CPU host.  The
    #: committed reference covers exactly these.
    rounds: int
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def count(self, scale: float) -> int:
        """Rounds in a run ``scale`` times as long as ``run_seconds``.

        ``scale`` 0 gives the shortest run: one round, or one job per app.
        """
        if self.kind == "serve":  # whole groups of one job per app
            group = len(SERVE_APPS)
            return group * max(1, round(self.rounds * scale / group))
        return max(1, round(self.rounds * scale))


def _pairs(apps, protocols) -> Tuple[Tuple[str, str], ...]:
    return tuple((app, protocol) for app in apps for protocol in protocols)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("figure5-migratory", "sim",
                 _pairs(("mp3d", "water", "cholesky"), ("W-I", "AD")), "default", 4),
        Workload("update-fanout", "sim",
                 _pairs(("mp3d", "water"), ("Dragon", "Hybrid")), "default", 2),
        Workload("scatter-capacity", "sim",
                 _pairs(("random-mix",), ("W-I", "AD", "MESI")), "default", 3,
                 tuple(sorted(SCATTER.items()))),
        Workload("sweep-local", "sweep", _pairs(APPS, PROTOCOLS), "tiny", 6),
        Workload("sweep-serve", "serve", _pairs(SERVE_APPS, ("W-I", "AD")), "tiny", 54),
    )
}


def _cell(tag: str, app: str, protocol: str, preset: str,
          overrides: Dict[str, Any], seed: int) -> Dict[str, Any]:
    return {"tag": tag, "workload": app, "protocol": protocol,
            "preset": preset, "overrides": overrides, "seed": seed}


def round_cells(workload: Workload, index: int, seed: int,
                smoke: bool = False) -> List[Dict[str, Any]]:
    """The cells of round ``index`` (sweep-serve: of job ``index``)."""
    preset = "tiny" if smoke else workload.preset
    overrides = dict(workload.overrides)
    if smoke and overrides:
        overrides = dict(SCATTER_SMOKE)
    pairs = workload.pairs
    if workload.kind == "serve":
        apps = ("cholesky",) if smoke else SERVE_APPS
        app = apps[index % len(apps)]
        pairs = tuple(p for p in pairs if p[0] == app)
        prefix = f"j{index}"
    else:
        if smoke and workload.kind == "sweep":
            pairs = tuple(p for p in pairs if p[0] == "cholesky")
        prefix = f"r{index}"
    return [
        _cell(f"{prefix}/{app}/{protocol}", app, protocol, preset,
              overrides, seed + index)
        for app, protocol in pairs
    ]


def load_reference(name: str) -> Dict[str, Any]:
    path = HERE / "reference" / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


class Observations:
    """What a run observed, accumulated across rounds or daemon launches."""

    def __init__(self) -> None:
        #: Spawn-to-ready times and cold and warm job latencies, in seconds.
        self.setups: List[float] = []
        self.cold_jobs: List[float] = []
        self.warm_jobs: List[float] = []
        #: Σ events and Σ cell wall time over the cold cells.
        self.events = 0
        self.cell_s = 0.0
        self.rss_mb: List[float] = []
        self.cells: Dict[str, str] = {}
        self.cold_cells = 0
        self.warm_cells = 0
        self.failed: List[str] = []
        self.layers: Dict[str, Any] = {}

    def absorb(self, report: Dict[str, Any]) -> None:
        """Add one child's round report."""
        self.cold_jobs.extend(report["cold_jobs"])
        self.warm_jobs.extend(report["warm_jobs"])
        self.events += report["events"]
        self.cell_s += report["cell_s"]
        self.rss_mb.append(report["rss_mb"])
        self.cells.update(report["cells"])
        self.cold_cells += report["cold_cells"]
        self.warm_cells += report["warm_cells"]
        self.failed.extend(report["failed"])
        if report["layers"]:
            self.layers = report["layers"]


# ---------------------------------------------------------------------------
# Child processes (simulation workloads and sweep-local)


def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def run_child(job: Dict[str, Any], src: Path, workdir: Path,
              obs: Observations) -> Dict[str, Any]:
    """Run one round in a fresh child; records its set-up, returns its report."""
    errors = workdir / "child.stderr"
    proc = None
    with open(errors, "w") as stderr:
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
                env=child_env(src), text=True,
            )
            proc.stdin.write(json.dumps(job))
            proc.stdin.close()
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            report = proc.stdout.read()
            proc.wait(timeout=170)
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(
            f"bench child failed (exit {proc.returncode}): "
            f"{errors.read_text()[-2000:]}"
        )
    obs.setups.append(setup)
    lines = report.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}  # a set-up-only child reports nothing


def run_in_children(workload: Workload, seed: int, rounds: int, trace: bool,
                    smoke: bool, src: Path, workdir: Path) -> Observations:
    """``rounds`` rounds of a simulation or sweep-local workload, one child each.

    Set-up-only children run before each round, so the set-up samples are
    spread over the run like the rounds.
    """
    obs = Observations()
    probes = 0 if trace or smoke else -(-SETUP_PROBES // rounds)
    for index in range(rounds):
        for _ in range(probes):
            run_child({"mode": "setup", "store": str(workdir / "probe")},
                      src, workdir, obs)
        store = workdir / f"store-{index}"
        job = {
            "mode": workload.kind,
            "cells": round_cells(workload, index, seed, smoke),
            "store": str(store), "workers": WORKERS,
            "warm_passes": 5 if smoke else WARM_PASSES[workload.kind],
            "trace": trace, "trace_out": str(workdir / "spans.json"),
            "cross_check": index,
        }
        obs.absorb(run_child(job, src, workdir, obs))
        shutil.rmtree(store, ignore_errors=True)
        shutil.rmtree(str(store) + "-traced", ignore_errors=True)
    return obs


# ---------------------------------------------------------------------------
# sweep-serve: a repro-sim serve daemon and one closed-loop client


class Daemon:
    """One ``repro-sim serve`` process on an ephemeral port."""

    def __init__(self, src: Path, store: Path, workdir: Path) -> None:
        self.log = workdir / "serve.out"
        spawned = time.perf_counter()
        with open(self.log, "w") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--workers", str(WORKERS),
                 "--cache-dir", str(store)],
                stdout=out, stderr=subprocess.STDOUT, env=child_env(src),
                start_new_session=True,
            )
        try:
            self.url = self._await_url()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - spawned

    def _await_url(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(r"http://[\d.]+:\d+", self.log.read_text())
            if match:
                return match.group(0)
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"serve daemon did not start: {self.log.read_text()[-2000:]}")

    def _await_health(self) -> None:
        import urllib.request

        deadline = time.monotonic() + 30
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5) as reply:
                    if reply.status == 200:
                        return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """The daemon process's peak resident set (VmHWM), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status")
        if status.exists():
            match = re.search(r"VmHWM:\s+(\d+) kB", status.read_text())
            if match:
                return int(match.group(1)) / 1024
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def stop(self) -> None:
        """SIGINT the daemon (it kills its workers), then SIGKILL its group."""
        try:
            os.killpg(self.proc.pid, signal.SIGINT)
            self.proc.wait(timeout=15)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def run_serve(workload: Workload, seed: int, rounds: int, trace: bool,
              smoke: bool, src: Path, workdir: Path) -> Observations:
    """``rounds`` cold jobs on an empty store, then resubmissions after restarts.

    The served cells of each app's first job are then rerun serially in a
    child (traced when ``trace``): served and serial results must agree.
    """
    from repro.experiments.parallel import result_fingerprint
    from repro.experiments.store import result_from_json
    from repro.obs.metrics import parse_exposition
    from repro.serve.client import ServeClient
    from rounds import spec_of
    from summary import digest

    store = workdir / "serve-store"
    obs = Observations()
    submit_s: List[float] = []
    status_s: List[float] = []
    scraped = {"sum": 0.0, "count": 0.0, "hits": 0, "lookups": 0, "requeues": 0}
    jobs = [round_cells(workload, index, seed, smoke) for index in range(rounds)]

    def submit(client: ServeClient, cells: List[Dict[str, Any]], is_cold: bool) -> None:
        begin = time.perf_counter()
        status = client.submit_specs([spec_of(cell) for cell in cells])
        submit_s.append(time.perf_counter() - begin)
        while not status["complete"]:
            time.sleep(0.005)
            polled = time.perf_counter()
            status = client.job(status["job"])
            status_s.append(time.perf_counter() - polled)
        entries = [client.result(cell["key"]) for cell in status["cells"]]
        (obs.cold_jobs if is_cold else obs.warm_jobs).append(time.perf_counter() - begin)
        if is_cold:
            obs.events += sum(e["result"]["events_processed"] for e in entries)
            obs.cell_s += sum(e["wall_time_s"] for e in entries)
        for cell, state, entry in zip(cells, status["cells"], entries):
            fingerprint = result_fingerprint(result_from_json(entry["result"]))
            served = digest(fingerprint)
            if state["status"] not in ("done", "cached") or fingerprint != entry["fingerprint"]:
                obs.failed.append(f"{cell['tag']} ({state['status']})")
            if is_cold:
                obs.cold_cells += 1
                obs.cells[cell["tag"]] = served
            else:
                obs.warm_cells += 1
                if obs.cells.get(cell["tag"]) != served:
                    obs.failed.append(f"{cell['tag']} (warm)")

    def session(is_cold: bool) -> None:
        """Launch the daemon, submit every job once, scrape it and stop it."""
        daemon = Daemon(src, store, workdir)
        obs.setups.append(daemon.setup_s)
        client = ServeClient(daemon.url)
        try:
            for cells in jobs:
                submit(client, cells, is_cold)
            family = parse_exposition(client.metrics()).get("repro_http_request_seconds")
            for name, _labels, value in (family.samples if family else ()):
                if name.endswith("_sum"):
                    scraped["sum"] += value
                elif name.endswith("_count"):
                    scraped["count"] += value
            cache = client.stats()
            scraped["hits"] += cache["cache"]["hits"]
            scraped["lookups"] += cache["cache"]["hits"] + cache["cache"]["misses"]
            scraped["requeues"] += cache["scheduler"]["requeues"]
            obs.rss_mb.append(daemon.peak_rss_mb())
        finally:
            daemon.stop()

    session(is_cold=True)
    for _ in range(1 if smoke or trace else RESTARTS):
        session(is_cold=False)
    shutil.rmtree(store, ignore_errors=True)

    twins = [cell for cells in jobs[:len(SERVE_APPS)] for cell in cells]
    job = {"mode": "sim", "cells": twins, "store": str(workdir / "twin-store"),
           "workers": 1, "warm_passes": 1, "trace": trace,
           "trace_out": str(workdir / "spans.json"), "cross_check": 0}
    serial = run_child(job, src, workdir, Observations())
    shutil.rmtree(job["store"], ignore_errors=True)
    shutil.rmtree(job["store"] + "-traced", ignore_errors=True)
    obs.failed.extend(serial["failed"])
    for tag, value in serial["cells"].items():
        if obs.cells.get(tag) != value:
            obs.failed.append(f"{tag} (serial != served)")
    obs.layers = serial["layers"]
    if trace:
        obs.layers.update({
            "serve.submit_s_p50": percentile(submit_s, 50),
            "serve.status_s_p50": percentile(status_s, 50) if status_s else 0.0,
            "serve.polls_per_job": len(status_s) / len(submit_s),
            "serve.server_s_per_request": ratio(scraped["sum"], scraped["count"]),
            "serve.store_hit_ratio": ratio(scraped["hits"], scraped["lookups"]),
            "serve.requeues": scraped["requeues"],
        })
    return obs
