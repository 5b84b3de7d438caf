"""The experiment service: ``repro-sim serve``.

A small job-queue daemon, one ``selectors`` loop on one thread, in front
of the content-addressed :class:`~repro.experiments.store.ResultStore`:
clients POST batches of sweep cells over HTTP, identical cells are
deduplicated across concurrent clients, warm cells answer straight from
the store, cold cells are scheduled onto the process pool ``run_many``
uses (:class:`~repro.experiments.parallel.CellPool`), and clients poll
``GET /jobs/<id>`` for progress.  Results persist in the store for every
later sweep.  ``/stats`` and ``/metrics`` render one set of counts, kept
by the daemon, its pool, its store and its fault plan.

The service is fault-tolerant with the same failure model as
``run_many``: a crashed or stuck worker is detected and replaced, and
its cell is requeued with bounded attempts and deterministic backoff; clients retry every request with backoff.  A
:class:`~repro.serve.faults.ServeFaultPlan` (a budget of worker kills)
makes the recovery path chaos-testable.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".client": ("ServeClient", "ServeError", "ServeUnavailable"),
    ".faults": ("ServeFaultPlan",),
    ".server": ("ExperimentServer",),
})
