"""Analytical models accompanying the simulator."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".message_cost": (
        "AD_EPISODE", "WI_EPISODE", "EpisodeCost", "ad_episode_cost",
        "breakdown_table", "episode_cost", "migratory_traffic_reduction",
        "wi_episode_cost",
    ),
})
