"""Protocol policy knobs.

The paper evaluates one base protocol (DASH write-invalidate, "W-I") and
one extension (the adaptive migratory protocol, "AD"), plus two ablations:

* the dashed-arrow heuristic of Figure 4 — revert a migratory block to
  Dirty-Remote when home receives a read-exclusive request for it
  (Section 3.4; the authors found it did not help consistently);
* disabling the NoMig revert (Section 5.4; the authors found this hurts
  significantly, demonstrating the mechanism is needed).

Beyond the paper's pair, the policy selects one of the registered
protocols in :mod:`repro.protocols` via the ``protocol`` field:

* ``"wi"`` / ``"ad"`` — the paper's two protocols (also selected
  implicitly by ``adaptive`` when ``protocol`` is empty, which is the
  legacy serialized form);
* ``"mesi"`` — W-I plus a clean-exclusive (E) state: sole-reader fills
  are granted exclusively and promote to Modified silently;
* ``"dragon"`` — write-update: writes to shared lines commit at home and
  update the sharers in place instead of invalidating them;
* ``"hybrid"`` — competitive update/invalidate: update like Dragon until
  ``update_threshold`` consecutive updates go unconsumed (no intervening
  consumer read reached home), then fall back to invalidation for that
  line; a consumer read resets the count.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default unconsumed-update budget for the competitive hybrid.
DEFAULT_UPDATE_THRESHOLD = 8


@dataclass(frozen=True)
class ProtocolPolicy:
    """Configuration of the coherence protocol variant."""

    #: Enable migratory detection and optimization (False = plain DASH W-I).
    adaptive: bool = False
    #: Figure 4 dashed arrows: an Rxq for a migratory block demotes it to
    #: Dirty-Remote instead of keeping it migratory.
    rxq_reverts_to_ordinary: bool = False
    #: Section 3.4 / 5.4: allow the Migrating-state owner to refuse a
    #: migratory read and revert the block to ordinary (read-only sharing
    #: detection).  Disabling this is an ablation only.
    nomig_enabled: bool = True
    #: Registered protocol name ("" = legacy form: "wi" or "ad" chosen by
    #: ``adaptive``).  See :mod:`repro.protocols`.
    protocol: str = ""
    #: Hybrid only: per-line unconsumed updates tolerated at the directory
    #: before the line falls back to invalidation.
    update_threshold: int = DEFAULT_UPDATE_THRESHOLD

    def __post_init__(self) -> None:
        # The migratory knobs belong to W-I/AD; MESI, Dragon and Hybrid
        # would run them but be named (and cached) as the plain protocol.
        if self.protocol in ("mesi", "dragon", "hybrid") and (
            self.adaptive or self.rxq_reverts_to_ordinary or not self.nomig_enabled
        ):
            raise ValueError(
                f"protocol {self.protocol!r} takes no adaptive, "
                "rxq_reverts_to_ordinary or nomig_enabled setting"
            )

    @staticmethod
    def write_invalidate() -> "ProtocolPolicy":
        """The paper's baseline ("W-I")."""
        return ProtocolPolicy(adaptive=False)

    @staticmethod
    def adaptive_default() -> "ProtocolPolicy":
        """The paper's proposal with default policies ("AD")."""
        return ProtocolPolicy(adaptive=True)

    @staticmethod
    def mesi() -> "ProtocolPolicy":
        """MESI-style clean-exclusive state over the W-I base."""
        return ProtocolPolicy(protocol="mesi")

    @staticmethod
    def dragon() -> "ProtocolPolicy":
        """Dragon-style write-update (home-committed writes)."""
        return ProtocolPolicy(protocol="dragon")

    @staticmethod
    def hybrid(
        update_threshold: int = DEFAULT_UPDATE_THRESHOLD,
    ) -> "ProtocolPolicy":
        """Competitive update/invalidate hybrid."""
        return ProtocolPolicy(protocol="hybrid", update_threshold=update_threshold)

    @property
    def kind(self) -> str:
        """Resolved registry name ("wi", "ad", "mesi", "dragon", "hybrid")."""
        if self.protocol:
            return self.protocol
        return "ad" if self.adaptive else "wi"

    @property
    def name(self) -> str:
        kind = self.kind
        if kind == "mesi":
            return "MESI"
        if kind == "dragon":
            return "Dragon"
        if kind == "hybrid":
            return "Hybrid"
        if not self.adaptive:
            return "W-I"
        suffix = ""
        if self.rxq_reverts_to_ordinary:
            suffix += "+rxq-revert"
        if not self.nomig_enabled:
            suffix += "-nomig"
        return "AD" + suffix
