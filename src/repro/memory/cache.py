"""Processor cache array: tags, states, and line data versions.

The default machine (paper Section 4.2) has a 64 Kbyte, direct-mapped,
copy-back cache with 16-byte lines per node.  The array is purely a tag/
state store; all coherence *behaviour* lives in the cache controller
(:mod:`repro.coherence.cache_ctrl`).  Associativity > 1 is supported as an
extension (LRU replacement) but the paper's experiments use 1.

Instead of carrying real data, every line carries a ``version`` integer:
writes bump a per-block version and correctness checks assert that
versions are never lost or reordered (see DESIGN.md Section 5).

Storage layout
--------------

The array is struct-of-arrays: five dense columns (``tags``/``states``/
``versions``/``locked``/``lru``) indexed by frame number
``set_index * associativity + way``, using :mod:`array`/``bytearray``
buffers rather than one Python object per line.  The hot path (controller
lookups, victim selection, installs) works on frame indices and integer
state codes directly; :class:`CacheLine` is a thin *view* over one frame
— stable per frame, attribute reads/writes pass through to the columns —
kept for cold paths (snoopy protocols, introspection, diagnostics, tests).

State codes order matters: ``DIRTY``/``MIGRATING`` are the two highest
codes, so "writable" is the single comparison ``code >= STATE_D``, and
``INVALID`` is 0 so "valid" is truthiness.
"""

from __future__ import annotations

import enum
from array import array
from typing import Iterator, List, Optional, Tuple

#: Integer state codes stored in the ``states`` column.
STATE_I = 0
STATE_S = 1
STATE_D = 2
STATE_M = 3


class CacheState(enum.Enum):
    """Local cache line states.

    ``INVALID``, ``SHARED`` and ``DIRTY`` are the DASH states; ``MIGRATING``
    is the single extra state the adaptive protocol adds (Section 3.4 of the
    paper): the line was received with ownership because the block is
    migratory, but the local processor has not written it yet.

    Each member carries its integer ``code`` (the value stored in the
    struct-of-arrays ``states`` column); ``STATES_BY_CODE`` maps back.
    """

    INVALID = "I"
    SHARED = "S"
    DIRTY = "D"
    MIGRATING = "M"


CacheState.INVALID.code = STATE_I
CacheState.SHARED.code = STATE_S
CacheState.DIRTY.code = STATE_D
CacheState.MIGRATING.code = STATE_M

#: Enum members indexed by state code.
STATES_BY_CODE = (
    CacheState.INVALID,
    CacheState.SHARED,
    CacheState.DIRTY,
    CacheState.MIGRATING,
)

#: States that permit a local write with no global action.
WRITABLE_STATES = (CacheState.DIRTY, CacheState.MIGRATING)
#: States that permit a local read hit.
READABLE_STATES = (CacheState.SHARED, CacheState.DIRTY, CacheState.MIGRATING)


class CacheLine:
    """A view over one cache frame.

    Reads and writes pass straight through to the owning
    :class:`CacheArray`'s columns, so a view is always current and two
    views of the same frame are the same object (``CacheArray`` caches
    one per frame).  Views exist for cold paths; the controller hot path
    uses frame indices on the array itself.
    """

    __slots__ = ("_cache", "_index")

    def __init__(self, cache: "CacheArray", index: int) -> None:
        self._cache = cache
        self._index = index

    @property
    def index(self) -> int:
        """Frame number of this view (set_index * associativity + way)."""
        return self._index

    @property
    def tag(self) -> Optional[int]:
        tag = self._cache.tags[self._index]
        return None if tag < 0 else tag

    @tag.setter
    def tag(self, value: Optional[int]) -> None:
        self._cache.tags[self._index] = -1 if value is None else value

    @property
    def state(self) -> CacheState:
        return STATES_BY_CODE[self._cache.states[self._index]]

    @state.setter
    def state(self, value: CacheState) -> None:
        self._cache.states[self._index] = value.code

    @property
    def version(self) -> int:
        return self._cache.versions[self._index]

    @version.setter
    def version(self, value: int) -> None:
        self._cache.versions[self._index] = value

    @property
    def replace_locked(self) -> bool:
        return bool(self._cache.locked[self._index])

    @replace_locked.setter
    def replace_locked(self, value: bool) -> None:
        self._cache.locked[self._index] = 1 if value else 0

    @property
    def last_used(self) -> int:
        return self._cache.lru[self._index]

    @last_used.setter
    def last_used(self, value: int) -> None:
        self._cache.lru[self._index] = value

    @property
    def valid(self) -> bool:
        return self._cache.states[self._index] != STATE_I

    def invalidate(self) -> None:
        cache = self._cache
        index = self._index
        cache.states[index] = STATE_I
        cache.tags[index] = -1
        cache.versions[index] = 0
        cache.locked[index] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheLine(tag={self.tag}, state={self.state}, "
            f"version={self.version}, replace_locked={self.replace_locked})"
        )


class CacheGeometryError(ValueError):
    """Raised for inconsistent cache geometry parameters."""


class CacheArray:
    """A set-associative (default direct-mapped) tag/state array.

    Column conventions (all indexed by frame number):

    * ``tags`` — ``array('q')``, block tag or -1 when the frame is invalid;
    * ``states`` — ``bytearray`` of ``STATE_*`` codes (0 = invalid);
    * ``versions`` — ``array('q')`` data version for coherence checking;
    * ``locked`` — ``bytearray``, 1 while replacement is locked (MIack);
    * ``lru`` — ``array('q')`` recency tick for victim selection.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 16,
        associativity: int = 1,
    ) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise CacheGeometryError("cache parameters must be positive")
        if size_bytes % (line_bytes * associativity) != 0:
            raise CacheGeometryError(
                f"size {size_bytes} not divisible by line*assoc "
                f"({line_bytes}*{associativity})"
            )
        num_lines = size_bytes // line_bytes
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = num_lines // associativity
        if self.num_sets & (self.num_sets - 1):
            raise CacheGeometryError(f"number of sets must be a power of two, got {self.num_sets}")
        if line_bytes & (line_bytes - 1):
            raise CacheGeometryError(f"line size must be a power of two, got {line_bytes}")
        self.num_frames = num_lines
        # Dense columns (C buffers, bulk-allocated: far cheaper than one
        # CacheLine object per frame, and index arithmetic on lookup).
        self.tags = array("q", [-1]) * num_lines
        self.states = bytearray(num_lines)
        self.versions = array("q", [0]) * num_lines
        self.locked = bytearray(num_lines)
        self.lru = array("q", [0]) * num_lines
        # One stable view per frame, materialized on demand.
        self._views: List[Optional[CacheLine]] = [None] * num_lines
        self._tick = 0

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        """Block address (line-aligned) for a byte address."""
        return addr // self.line_bytes

    def set_index(self, block: int) -> int:
        return block % self.num_sets

    def tag_of(self, block: int) -> int:
        return block // self.num_sets

    def block_from(self, tag: int, set_index: int) -> int:
        """Inverse of (tag_of, set_index)."""
        return tag * self.num_sets + set_index

    # ------------------------------------------------------------------
    # Index-based hot-path API
    # ------------------------------------------------------------------
    def view(self, index: int) -> CacheLine:
        """The stable view object for frame ``index``."""
        line = self._views[index]
        if line is None:
            self._views[index] = line = CacheLine(self, index)
        return line

    def drop_views(self) -> None:
        """Forget the materialized views (each points back at this array)."""
        self._views = [None] * self.num_frames

    def find(self, block: int) -> int:
        """Frame index of the valid line holding ``block``, or -1."""
        num_sets = self.num_sets
        assoc = self.associativity
        tag = block // num_sets
        if assoc == 1:
            index = block % num_sets
            if self.tags[index] == tag and self.states[index]:
                return index
            return -1
        base = (block % num_sets) * assoc
        tags = self.tags
        states = self.states
        for index in range(base, base + assoc):
            if tags[index] == tag and states[index]:
                return index
        return -1

    def touch_index(self, index: int) -> None:
        """Update LRU recency for frame ``index``."""
        self._tick += 1
        self.lru[index] = self._tick

    def victim_index(self, block: int) -> int:
        """Frame index ``block`` would occupy (invalid-first, then LRU).

        Frames that are locked are skipped unless every frame in the set
        is locked, in which case the LRU locked frame is returned and the
        caller must wait for the lock to clear (MIack arrival).
        """
        assoc = self.associativity
        base = (block % self.num_sets) * assoc
        states = self.states
        if assoc == 1:
            return base
        locked = self.locked
        lru = self.lru
        best = -1
        best_lru = 0
        best_any = -1
        best_any_lru = 0
        for index in range(base, base + assoc):
            if not states[index]:
                return index
            used = lru[index]
            if best_any < 0 or used < best_any_lru:
                best_any = index
                best_any_lru = used
            if not locked[index] and (best < 0 or used < best_lru):
                best = index
                best_lru = used
        return best if best >= 0 else best_any

    def install_index(self, block: int, state_code: int, version: int) -> int:
        """Place ``block`` into its frame; caller must have evicted the victim."""
        index = self.victim_index(block)
        if self.states[index]:
            raise CacheGeometryError(
                f"install over live line for block {block}: victim not evicted"
            )
        self.tags[index] = block // self.num_sets
        self.states[index] = state_code
        self.versions[index] = version
        self.locked[index] = 0
        self._tick += 1
        self.lru[index] = self._tick
        return index

    # ------------------------------------------------------------------
    # View-based API (snoopy protocols, tests, cold paths)
    # ------------------------------------------------------------------
    def lookup(self, block: int) -> Optional[CacheLine]:
        """Return the valid line holding ``block``, or None."""
        index = self.find(block)
        return None if index < 0 else self.view(index)

    def touch(self, line: CacheLine) -> None:
        """Update LRU recency for ``line``."""
        self.touch_index(line._index)

    def victim_for(self, block: int) -> CacheLine:
        """View-returning wrapper around :meth:`victim_index`."""
        return self.view(self.victim_index(block))

    def install(self, block: int, state: CacheState, version: int) -> CacheLine:
        """Place ``block`` into its frame; caller must have evicted the victim."""
        return self.view(self.install_index(block, state.code, version))

    # ------------------------------------------------------------------
    # Introspection (tests, invariant checks)
    # ------------------------------------------------------------------
    def valid_blocks(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield (block, line) for every valid line."""
        assoc = self.associativity
        states = self.states
        tags = self.tags
        for index in range(self.num_frames):
            if states[index]:
                set_index = index // assoc
                yield self.block_from(tags[index], set_index), self.view(index)

    def count_valid(self) -> int:
        return sum(1 for code in self.states if code)
