"""Content-addressed experiment result store.

Every sweep cell — one :class:`~repro.experiments.parallel.RunSpec` —
is keyed by the SHA-256 of a canonical JSON document covering everything
that determines its result:

* the *effective* machine config (the spec's policy / consistency /
  check_coherence folded into ``spec.config`` exactly as
  ``run_workload`` does, so ``config=None`` and an explicit
  ``MachineConfig.dash_default()`` key identically);
* the workload name, preset, seed, and canonicalized overrides
  (``RunSpec.make`` already freezes dicts with sorted keys, so
  insertion order never perturbs the key);
* the code version (see :func:`code_version`): results are invalidated
  wholesale whenever the simulator's source changes, because a cache
  that survives a protocol edit would serve results the current code
  cannot reproduce.

On-disk layout (one directory, safe to delete at any time)::

    <root>/
      objects/<key[:2]>/<key>.json   one entry per cell (atomic writes)

Each entry stores the rebuilt-result payload *and* its
``result_fingerprint`` (every deterministic observable of the run).
:meth:`ResultStore.fetch` rebuilds the result and recomputes the
fingerprint before serving; any mismatch (truncated file, hand-edited
counter, bit rot) counts as corruption, evicts the entry, and falls back
to recomputation.  A cache hit is therefore
byte-identical to a fresh simulation or it is not a hit.

:class:`CacheStats` is the store's only tally: ``repro-sim cache stats``
prints it, and the serve daemon that owns the store renders it both in
``/stats`` and as the ``repro_store_*`` families of ``/metrics``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.consistency.models import ConsistencyModel, model_by_name
from repro.core.policy import ProtocolPolicy
from repro.protocols import policy_for
from repro.experiments.parallel import (
    RunOutcome,
    RunSpec,
    result_fingerprint,
    thaw_value,
)
from repro.machine.config import MachineConfig
from repro.machine.result import RunResult
from repro.stats.breakdown import StallBreakdown
from repro.stats.counters import Counters

STORE_SCHEMA = "repro-store/1"

#: Environment override for the cache root used by the CLI / serve
#: defaults (explicit ``--cache-dir`` still wins).
CACHE_DIR_ENV = "REPRO_SIM_CACHE"

#: Environment override for :func:`code_version` (CI can pin it to the
#: commit SHA; tests use it to simulate a code change).
CODE_VERSION_ENV = "REPRO_CODE_VERSION"

_source_digest: Optional[str] = None


def code_version() -> str:
    """An identifier that changes whenever the simulator's code does.

    ``REPRO_CODE_VERSION`` wins when set (CI pins the commit SHA there);
    otherwise the digest of every ``.py`` file in the installed ``repro``
    package, computed once per process.  Cached results are keyed by this
    value, so a source edit invalidates the whole store rather than
    serving results the current code cannot reproduce.
    """
    override = os.environ.get(CODE_VERSION_ENV)
    if override:
        return override
    global _source_digest
    if _source_digest is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _source_digest = "src-" + digest.hexdigest()[:20]
    return _source_digest


# ---------------------------------------------------------------------------
# Spec / result (de)serialization


def spec_to_json(spec: RunSpec) -> Dict[str, Any]:
    """Wire form of a spec (what ``repro-sim serve`` submissions carry)."""
    return {
        "workload": spec.workload,
        "policy": {
            "adaptive": spec.policy.adaptive,
            "rxq_reverts_to_ordinary": spec.policy.rxq_reverts_to_ordinary,
            "nomig_enabled": spec.policy.nomig_enabled,
            "protocol": spec.policy.protocol,
            "update_threshold": spec.policy.update_threshold,
        },
        "preset": spec.preset,
        "consistency": {
            "name": spec.consistency.name,
            "write_blocks": spec.consistency.write_blocks,
            "fence_at_acquire": spec.consistency.fence_at_acquire,
            "fence_at_release": spec.consistency.fence_at_release,
        },
        "config": spec.config.to_json() if spec.config is not None else None,
        "check_coherence": spec.check_coherence,
        "seed": spec.seed,
        "overrides": {key: thaw_value(value) for key, value in spec.overrides},
        "tag": spec.tag,
    }


def spec_from_json(doc: Dict[str, Any]) -> RunSpec:
    """Rebuild a spec from :func:`spec_to_json` output.

    Accepts two client-friendly shorthands alongside the full wire form:
    ``"policy": "AD"`` (any registered protocol name or alias — "W-I",
    "AD", "mesi", "dragon", "hybrid", ...) and ``"consistency": "SC"``
    (any registered model name).  Legacy policy objects without the
    ``protocol``/``update_threshold`` fields deserialize to the matching
    W-I/AD policy via the dataclass defaults.
    """
    policy = doc.get("policy") or {}
    if isinstance(policy, str):
        policy = asdict(policy_for(policy))
    consistency = doc.get("consistency", "SC")
    if isinstance(consistency, str):
        model = model_by_name(consistency)
    else:
        model = ConsistencyModel(**consistency)
    config = doc.get("config")
    overrides = doc.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise ValueError(f"spec overrides must be an object, got {overrides!r}")
    return RunSpec.make(
        doc["workload"],
        ProtocolPolicy(**policy),
        preset=doc.get("preset", "default"),
        consistency=model,
        config=MachineConfig.from_json(config) if config is not None else None,
        check_coherence=doc.get("check_coherence", True),
        seed=doc.get("seed", 42),
        tag=doc.get("tag", ""),
        **overrides,
    )


def result_to_json(result: RunResult) -> Dict[str, Any]:
    """JSON payload from which :func:`result_from_json` rebuilds a result."""
    return {
        "execution_time": result.execution_time,
        "breakdowns": [
            [b.busy, b.sync_stall, b.read_stall, b.write_stall]
            for b in result.breakdowns
        ],
        "counters": result.counters.as_dict(),
        "network_bits": result.network_bits,
        "network_messages": result.network_messages,
        "bits_by_kind": result.bits_by_kind,
        "count_by_kind": result.count_by_kind,
        "events_processed": result.events_processed,
        "policy_name": result.policy_name,
        "consistency_name": result.consistency_name,
        "latency": result.latency,
    }


def result_from_json(doc: Dict[str, Any]) -> RunResult:
    counters = Counters()
    for name, value in doc["counters"].items():
        counters.inc(name, value)
    return RunResult(
        execution_time=doc["execution_time"],
        breakdowns=[
            StallBreakdown(
                busy=row[0], sync_stall=row[1], read_stall=row[2], write_stall=row[3]
            )
            for row in doc["breakdowns"]
        ],
        counters=counters,
        network_bits=doc["network_bits"],
        network_messages=doc["network_messages"],
        bits_by_kind=dict(doc["bits_by_kind"]),
        count_by_kind=dict(doc["count_by_kind"]),
        events_processed=doc["events_processed"],
        policy_name=doc["policy_name"],
        consistency_name=doc["consistency_name"],
        latency=doc.get("latency"),
    )


# ---------------------------------------------------------------------------
# Cache keys


def effective_config(spec: RunSpec) -> MachineConfig:
    """The machine config a run of ``spec`` actually simulates.

    Mirrors ``run_workload``: the spec's policy / consistency /
    check_coherence are folded into its base config (or the DASH
    default), so two specs that build the same machine key identically
    however they spelled it.
    """
    base = spec.config or MachineConfig.dash_default()
    return base.with_(
        policy=spec.policy,
        consistency=spec.consistency,
        check_coherence=spec.check_coherence,
    )


def cell_identity(spec: RunSpec) -> Dict[str, Any]:
    """Everything that determines a cell's result, as canonical JSON."""
    return {
        "schema": STORE_SCHEMA,
        "code": code_version(),
        "workload": spec.workload,
        "preset": spec.preset,
        "seed": spec.seed,
        "overrides": {key: thaw_value(value) for key, value in spec.overrides},
        "config": effective_config(spec).to_json(),
    }


def spec_key(spec: RunSpec) -> str:
    """The content address of one cell (hex SHA-256)."""
    canonical = json.dumps(
        cell_identity(spec), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The store


@dataclass
class CacheStats:
    """Hit/miss accounting for one store instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    stored_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "stored_bytes": self.stored_bytes,
            "hit_rate": round(self.hit_rate, 4),
        }


def default_cache_dir() -> Path:
    """The CLI's cache root: ``$REPRO_SIM_CACHE`` or ``.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or ".repro-cache")


class ResultStore:
    """A persistent content-addressed store of run results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.stats = CacheStats()

    # -- paths ---------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    # -- lookups -------------------------------------------------------

    def fetch(self, spec: RunSpec) -> Optional[RunOutcome]:
        """The cached outcome for ``spec``, fingerprint-verified, or None.

        A readable entry whose rebuilt result does not reproduce its
        stored fingerprint is corrupt: it is evicted (so the cell is
        recomputed and re-stored) and the lookup counts as a miss.
        """
        key = spec_key(spec)
        path = self.entry_path(key)
        if path.exists():
            entry = self._load_entry(path)
            verified = False
            if entry is not None:
                try:
                    result = result_from_json(entry["result"])
                    verified = result_fingerprint(result) == entry["fingerprint"]
                except Exception:
                    verified = False
            if verified:
                self.stats.hits += 1
                try:
                    # Recency bump: prune() evicts least-recently-fetched
                    # entries first, so a served hit refreshes its mtime.
                    os.utime(path)
                except OSError:  # pragma: no cover - read-only store
                    pass
                return RunOutcome(
                    spec=spec,
                    result=result,
                    wall_time=entry.get("wall_time_s", 0.0),
                    cached=True,
                )
            self.stats.corrupt += 1
            path.unlink(missing_ok=True)
        self.stats.misses += 1
        return None

    def put(self, outcome: RunOutcome) -> Optional[str]:
        """Store a successful outcome; returns its key (None if failed)."""
        if not outcome.ok or outcome.result is None:
            return None
        key = spec_key(outcome.spec)
        entry = {
            "schema": STORE_SCHEMA,
            "key": key,
            "cell": cell_identity(outcome.spec),
            "spec": spec_to_json(outcome.spec),
            "wall_time_s": outcome.wall_time,
            "fingerprint": result_fingerprint(outcome.result),
            "result": result_to_json(outcome.result),
        }
        path = self.entry_path(key)
        payload = (json.dumps(entry, sort_keys=True, indent=1) + "\n").encode()
        self._atomic_write(path, payload)
        self.stats.stores += 1
        self.stats.stored_bytes += len(payload)
        return key

    def load_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The raw stored entry for a key (serve's /results endpoint)."""
        return self._load_entry(self.entry_path(key))

    def _load_entry(self, path: Path) -> Optional[Dict[str, Any]]:
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != STORE_SCHEMA
            or "result" not in entry
            or "fingerprint" not in entry
        ):
            return None
        return entry

    # -- maintenance ---------------------------------------------------

    def keys(self) -> Iterator[str]:
        if not self.objects.is_dir():
            return
        for path in sorted(self.objects.glob("*/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def size_bytes(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(
            p.stat().st_size for p in self.root.rglob("*") if p.is_file()
        )

    def clear(self) -> int:
        """Delete every entry; returns the entry count."""
        count = len(self)
        import shutil

        if self.objects.is_dir():
            shutil.rmtree(self.objects)
        return count

    def prune(self, max_bytes: int) -> Dict[str, Any]:
        """Size-bounded LRU eviction: shrink the store to ``max_bytes``.

        Entries are ranked by their entry file's mtime — refreshed on
        every verified fetch — so the least-recently-*fetched* cells go
        first.  Returns a JSON-ready report for ``repro-sim cache prune``.
        """
        entries = []
        for key in self.keys():
            path = self.entry_path(key)
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, key, path, stat.st_size))
        entries.sort(key=lambda item: (item[0], item[1]))
        total = sum(size for _, _, _, size in entries)
        evicted_keys: List[str] = []
        for _, key, path, size in entries:
            if total <= max_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size
            evicted_keys.append(key)
            self.stats.evictions += 1
            self.stats.evicted_bytes += size
        return {
            "max_bytes": max_bytes,
            "evicted": len(evicted_keys),
            "evicted_keys": evicted_keys,
            "remaining_entries": len(self),
            "remaining_bytes": total,
        }

    def summary(self) -> Dict[str, Any]:
        """One JSON document for ``repro-sim cache stats`` and CI artifacts."""
        doc = self.stats.to_json()
        doc.update(
            {
                "cache_dir": str(self.root),
                "entries": len(self),
                "size_bytes": self.size_bytes(),
                "code_version": code_version(),
            }
        )
        return doc

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
