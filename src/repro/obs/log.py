"""Structured JSON logging with correlation ids.

One event per line::

    {"ts": 1754660000.123, "level": "info", "component": "serve",
     "event": "cell_done", "cid": "c-1f3a9b2c", "cell": "ab12...", ...}

* Disabled by default; enable with ``REPRO_LOG=1`` (stderr), ``stderr``, or
  a file path to append to.  :func:`configure` does the same in-process.
* A correlation id (``cid``) is carried in a :class:`contextvars.ContextVar`
  so one id minted per job/sweep threads client -> server -> worker: the
  client stamps it on ``POST /jobs``, the server stores it per job/cell and
  runs workers under it, so a failed cell can be grepped end-to-end.
* When disabled, :func:`log_event` is a single boolean check — no dict, no
  JSON, no I/O.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import sys
import threading
import time
from typing import IO, Iterator, Optional

__all__ = [
    "LOG_ENV",
    "configure",
    "configure_from_env",
    "log_enabled",
    "log_event",
    "new_correlation_id",
    "correlation_id",
    "set_correlation_id",
    "correlation_scope",
]

LOG_ENV = "REPRO_LOG"

_enabled = False
_stream: Optional[IO[str]] = None
_stream_lock = threading.Lock()

_correlation: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_correlation_id", default=""
)


def configure(
    enabled: bool = True,
    stream: Optional[IO[str]] = None,
    path: Optional[str] = None,
) -> None:
    """Turn structured logging on/off and pick the sink.

    ``path`` wins over ``stream``; with neither, events go to stderr.
    """
    global _enabled, _stream
    if path:
        stream = open(path, "a", encoding="utf-8")
    _stream = stream
    _enabled = bool(enabled)


def configure_from_env(env: Optional[str] = None) -> bool:
    """Apply ``REPRO_LOG`` (unset/empty -> off; 1/stderr -> stderr; else path)."""
    value = os.environ.get(LOG_ENV, "") if env is None else env
    value = value.strip()
    if not value or value.lower() in ("0", "off", "false", "no"):
        configure(enabled=False, stream=None)
        return False
    if value in ("1", "-", "stderr") or value.lower() == "true":
        configure(enabled=True, stream=None)
    else:
        configure(enabled=True, path=value)
    return True


def log_enabled() -> bool:
    return _enabled


def new_correlation_id(prefix: str = "c") -> str:
    """Mint a short random correlation id, e.g. ``c-9f2b41d07a3e``."""
    return "%s-%s" % (prefix, os.urandom(6).hex())


def correlation_id() -> str:
    """The correlation id bound to the current context ("" if none)."""
    return _correlation.get()


def set_correlation_id(cid: str) -> "contextvars.Token[str]":
    return _correlation.set(cid or "")


@contextlib.contextmanager
def correlation_scope(cid: str) -> Iterator[str]:
    """Bind ``cid`` for the duration of the ``with`` block."""
    token = _correlation.set(cid or "")
    try:
        yield cid
    finally:
        _correlation.reset(token)


def log_event(component: str, event: str, level: str = "info", **fields: object) -> None:
    """Emit one structured event line; no-op unless logging is enabled."""
    if not _enabled:
        return
    doc = {
        "ts": round(time.time(), 6),
        "level": level,
        "component": component,
        "event": event,
    }
    cid = _correlation.get()
    if cid:
        doc["cid"] = cid
    for key, value in fields.items():
        if value is not None:
            doc[key] = value
    line = json.dumps(doc, sort_keys=True, default=str)
    stream = _stream or sys.stderr
    with _stream_lock:
        try:
            stream.write(line + "\n")
            stream.flush()
        except Exception:
            pass  # logging must never take the caller down


# Pick up REPRO_LOG at import so spawned workers inherit the sink.
configure_from_env()
