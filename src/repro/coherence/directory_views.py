"""Cold-path views of a :class:`~repro.coherence.directory.DirectoryController`.

The controller keeps its rows as struct-of-arrays columns, addressed by
page (see its "Storage layout").  Tests, diagnostics and the model
checker read them through the views here, which the controller imports
on first use, so a simulation that never asks for a view never loads
this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Deque, Iterator, Optional, Tuple

from repro.coherence.directory import _UNTOUCHED
from repro.coherence.messages import CoherenceMessage
from repro.coherence.states import DIR_STATES_BY_CODE, DirState

if TYPE_CHECKING:
    from repro.coherence.directory import DirectoryController


def view(directory: DirectoryController, row: int) -> DirectoryEntry:
    """The one stable view of ``row``, made on first use."""
    entry = directory._row_views.get(row)
    if entry is None:
        directory._row_views[row] = entry = DirectoryEntry(directory, row)
    return entry


class DirectoryEntry:
    """A view over one directory row.

    Reads and writes pass through to the owning controller's columns, so
    a view is always current; one stable view exists per row.  Views are
    for cold paths (tests, dumps) — the protocol handlers use row indices
    directly.
    """

    __slots__ = ("_dir", "_row")

    def __init__(self, directory: DirectoryController, row: int) -> None:
        self._dir = directory
        self._row = row

    @property
    def state(self) -> DirState:
        return DIR_STATES_BY_CODE[self._dir._states[self._row]]

    @state.setter
    def state(self, value: DirState) -> None:
        self._dir._states[self._row] = value.code

    @property
    def sharers(self) -> AbstractSet[int]:
        return self._dir._sharers[self._row]

    @sharers.setter
    def sharers(self, value: AbstractSet[int]) -> None:
        self._dir._sharers[self._row] = value

    @property
    def owner(self) -> Optional[int]:
        owner = self._dir._owners[self._row]
        return None if owner < 0 else owner

    @owner.setter
    def owner(self, value: Optional[int]) -> None:
        self._dir._owners[self._row] = -1 if value is None else value

    @property
    def last_writer(self) -> Optional[int]:
        """The paper's LW pointer, or None when its valid bit is reset."""
        lw = self._dir._lw[self._row]
        return None if lw < 0 else lw

    @property
    def version(self) -> int:
        return self._dir._versions[self._row]

    @version.setter
    def version(self, value: int) -> None:
        self._dir._versions[self._row] = value

    @property
    def upd_count(self) -> int:
        return self._dir._upd_count[self._row]

    @upd_count.setter
    def upd_count(self, value: int) -> None:
        self._dir._upd_count[self._row] = value

    @property
    def busy(self) -> bool:
        return bool(self._dir._busy[self._row])

    @busy.setter
    def busy(self, value: bool) -> None:
        self._dir._busy[self._row] = 1 if value else 0

    @property
    def awaiting_wb(self) -> bool:
        return bool(self._dir._awaiting[self._row])

    @awaiting_wb.setter
    def awaiting_wb(self, value: bool) -> None:
        self._dir._awaiting[self._row] = 1 if value else 0

    @property
    def inflight(self) -> Optional[Tuple[CoherenceMessage, bool]]:
        return self._dir._inflight[self._row]

    @inflight.setter
    def inflight(self, value: Optional[Tuple[CoherenceMessage, bool]]) -> None:
        self._dir._inflight[self._row] = value

    @property
    def pending(self) -> Deque[CoherenceMessage]:
        return self._dir._pending_of(self._row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirectoryEntry(state={self.state}, sharers={sorted(self.sharers)}, "
            f"owner={self.owner}, busy={self.busy})"
        )


class _EntriesView:
    """Read-only dict-like view of a controller's touched blocks.

    Supports the mapping surface external consumers use (``[block]``,
    ``.get``, ``in``, ``len``, iteration, ``.keys/.values/.items``).  A
    block whose row no request has touched is absent, although its page
    has a row for it.  Iteration goes in block order.
    """

    __slots__ = ("_dir",)

    def __init__(self, directory: DirectoryController) -> None:
        self._dir = directory

    def row_of(self, block: int) -> Optional[int]:
        """``block``'s row index, or None if no request has touched it."""
        directory = self._dir
        lines = directory._lines_per_page
        base = directory._bases.get(block // lines)
        if base is None or directory._states[base + block % lines] == _UNTOUCHED:
            return None
        return base + block % lines

    def __getitem__(self, block: int) -> DirectoryEntry:
        row = self.row_of(block)
        if row is None:
            raise KeyError(block)
        return view(self._dir, row)

    def get(self, block: int, default=None):
        row = self.row_of(block)
        return default if row is None else view(self._dir, row)

    def __contains__(self, block: int) -> bool:
        return self.row_of(block) is not None

    def __len__(self) -> int:
        return self._dir._touched

    def __iter__(self) -> Iterator[int]:
        return (block for block, _row in self.rows())

    def keys(self) -> Iterator[int]:
        return iter(self)

    def values(self) -> Iterator[DirectoryEntry]:
        return (view(self._dir, row) for _block, row in self.rows())

    def items(self) -> Iterator[Tuple[int, DirectoryEntry]]:
        return ((block, view(self._dir, row)) for block, row in self.rows())

    def rows(self) -> Iterator[Tuple[int, int]]:
        """(block, row) of every touched row, in block order."""
        directory = self._dir
        lines = directory._lines_per_page
        states = directory._states
        for page, base in sorted(directory._bases.items()):
            for offset in range(lines):
                if states[base + offset] != _UNTOUCHED:
                    yield page * lines + offset, base + offset
