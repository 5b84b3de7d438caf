"""Runtime coherence invariant checking.

Blocks carry integer *versions* instead of data: every completed write
increments the block's version.  A correct coherence protocol guarantees:

* **No lost updates** — a write always builds on the globally latest
  version (ownership serializes writers).
* **Per-processor monotonicity** — a processor never observes a block's
  version go backwards (coherence + our SC/WO implementations).
* **Single writer** — at most one cache holds a block writable
  (Dirty/Migrating) at any instant.

The checker is cheap (a few dict operations per access) and enabled by
default; benchmark runs may disable it.  A disabled checker keeps no
table: it checks nothing and versions each write as one past the
version its writer holds.  With checks on, every write is asserted to
build on the latest version, so in any run that passes with checks on
the two hand out the same versions, and every result is the same.
"""

from __future__ import annotations

from typing import Dict, Tuple


class CoherenceViolation(AssertionError):
    """A protocol invariant was violated during simulation."""


class CoherenceChecker:
    """Global oracle for version-based coherence checking."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Latest committed version per block (empty when disabled).
        self.latest: Dict[int, int] = {}
        #: Last version observed per (node, block).
        self._seen: Dict[Tuple[int, int], int] = {}
        #: Which node currently holds the block writable (single-writer).
        self._writer: Dict[int, int] = {}
        self.reads_checked = 0
        self.writes_checked = 0

    def reset(self, *, state: bool = False) -> None:
        """Restart measurement (StatsMark / back-to-back runs).

        The default clears only the access *counters*, so steady-state
        statistics count post-warmup accesses without inheriting the
        warmup tallies; version and single-writer state stay warm because
        cache lines keep their versions across the mark.

        ``state=True`` additionally forgets all version/writer state —
        only valid when every cache was flushed too (a genuinely fresh
        System), otherwise the next access would look like a violation.
        """
        self.reads_checked = 0
        self.writes_checked = 0
        if state:
            self.latest.clear()
            self._seen.clear()
            self._writer.clear()

    # ------------------------------------------------------------------
    # Processor-side hooks
    # ------------------------------------------------------------------
    def on_read(self, node: int, block: int, version: int) -> None:
        if not self.enabled:
            return
        self.reads_checked += 1
        key = (node, block)
        prev = self._seen.get(key, -1)
        if version < prev:
            raise CoherenceViolation(
                f"node {node} saw block {block} go backwards: "
                f"version {version} after {prev}"
            )
        latest = self.latest.get(block, 0)
        if version > latest:
            raise CoherenceViolation(
                f"node {node} read version {version} of block {block}, "
                f"but only {latest} writes have committed"
            )
        self._seen[key] = version

    def on_write(self, node: int, block: int, old_version: int) -> int:
        """Commit a write; returns the new version for the line."""
        if not self.enabled:
            # Still hand out versions so the protocol machinery works.
            return old_version + 1
        self.writes_checked += 1
        latest = self.latest.get(block, 0)
        if old_version != latest:
            raise CoherenceViolation(
                f"lost update on block {block}: node {node} wrote on top of "
                f"version {old_version} but latest is {latest}"
            )
        new = latest + 1
        self.latest[block] = new
        self._seen[(node, block)] = new
        return new

    # ------------------------------------------------------------------
    # Single-writer tracking
    # ------------------------------------------------------------------
    def acquire_writable(self, node: int, block: int) -> None:
        if not self.enabled:
            return
        holder = self._writer.get(block)
        if holder is not None and holder != node:
            raise CoherenceViolation(
                f"block {block}: node {node} became writable while "
                f"node {holder} still is"
            )
        self._writer[block] = node

    def release_writable(self, node: int, block: int) -> None:
        if not self.enabled:
            return
        holder = self._writer.get(block)
        if holder is not None and holder != node:
            raise CoherenceViolation(
                f"block {block}: node {node} released writability held "
                f"by node {holder}"
            )
        self._writer.pop(block, None)

    def snapshot(self, block: int) -> tuple:
        """The oracle's state for ``block``: latest version, writable
        holder, and each node's last observed version."""
        seen = tuple(sorted(
            (node, version) for (node, b), version in self._seen.items()
            if b == block
        ))
        return self.latest.get(block, 0), self._writer.get(block), seen

    def restore(self, block: int, state: tuple) -> None:
        """Put ``block``'s oracle state back as :meth:`snapshot` returned it."""
        self.latest[block], writer, seen = state
        self._writer.pop(block, None)
        if writer is not None:
            self._writer[block] = writer
        for key in [key for key in self._seen if key[1] == block]:
            del self._seen[key]
        self._seen.update(((node, block), version) for node, version in seen)
