"""Chaos campaign engine: fault timelines, nemesis, and timeline telemetry.

Measures HAT availability *over time* — through partitions, flapping links,
crash/recover cycles, rolling restarts, and degraded-latency epochs — rather
than as a single aggregate number (paper Sections 2.1 and 6.3).
"""

from repro.chaos.campaign import CampaignPhase, canonical_partition_campaign
from repro.chaos.nemesis import Nemesis
from repro.chaos.telemetry import TimelineTelemetry

__all__ = [
    "CampaignPhase",
    "Nemesis",
    "TimelineTelemetry",
    "canonical_partition_campaign",
]
