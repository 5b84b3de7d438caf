"""The protocol a machine runs, by name.

The paper evaluates one base protocol (DASH write-invalidate, ``W-I``)
and one extension (the adaptive migratory protocol, ``AD``), plus two
ablations of AD:

* ``AD-RXQ`` — the dashed-arrow heuristic of Figure 4: revert a
  migratory block to Dirty-Remote when home receives a read-exclusive
  request for it (Section 3.4; the authors found it did not help
  consistently);
* ``AD-NONOMIG`` — AD without the NoMig revert (Section 5.4; the authors
  found this hurts significantly, demonstrating the mechanism is needed).

Beyond the paper's protocols the family has three more members:

* ``MESI`` — W-I plus a clean-exclusive (E) state: sole-reader fills
  are granted exclusively and promote to Modified silently;
* ``Dragon`` — write-update: writes to shared lines commit at home and
  update the sharers in place instead of invalidating them;
* ``Hybrid`` — competitive update/invalidate: update like Dragon until
  ``update_threshold`` consecutive updates go unconsumed (no intervening
  consumer read reached home), then fall back to invalidation for that
  line; a consumer read resets the count.

Each name selects one behavior class of :mod:`repro.protocols`;
:func:`policy_for` resolves a name here, so code that only names
protocols (the CLI, the result store, the serve daemon) never loads
those classes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Every protocol name, in sweep order.  A policy's name is one of these.
PROTOCOL_NAMES = ("W-I", "AD", "AD-RXQ", "AD-NONOMIG", "MESI", "Dragon", "Hybrid")

#: Default unconsumed-update budget for the competitive hybrid.
DEFAULT_UPDATE_THRESHOLD = 8


@dataclass(frozen=True)
class ProtocolPolicy:
    """The coherence protocol a machine runs."""

    #: One of :data:`PROTOCOL_NAMES`.
    name: str = "W-I"
    #: Hybrid only: per-line unconsumed updates tolerated at the directory
    #: before the line falls back to invalidation.
    update_threshold: int = DEFAULT_UPDATE_THRESHOLD

    def __post_init__(self) -> None:
        if self.name not in PROTOCOL_NAMES:
            raise ValueError(
                f"unknown protocol {self.name!r}; choose from "
                + ", ".join(PROTOCOL_NAMES)
            )
        if not isinstance(self.update_threshold, int):
            raise ValueError(f"update_threshold {self.update_threshold!r} is no int")
        # Another protocol would ignore the budget but be cached under a
        # key of its own.
        if self.name != "Hybrid" and self.update_threshold != DEFAULT_UPDATE_THRESHOLD:
            raise ValueError(f"protocol {self.name} takes no update_threshold")


#: Upper-cased spelling -> protocol name.
_BY_UPPER = {name.upper(): name for name in PROTOCOL_NAMES}


def policy_for(name: str) -> ProtocolPolicy:
    """The default policy of a protocol name, spelled in any letter case."""
    try:
        return ProtocolPolicy(_BY_UPPER[name.upper()])
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; choose from " + ", ".join(PROTOCOL_NAMES)
        ) from None
