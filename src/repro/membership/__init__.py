"""Elastic membership: consistent-hash placement and live join/leave.

The static deployments of the paper's evaluation never change shape; this
package adds the dimension the availability argument ultimately lives on —
clusters that grow and shrink *while serving*:

* :mod:`repro.membership.ring` — a consistent-hash ring with virtual
  nodes, exposing the same ``owner_for`` surface as the static modulo
  partitioner so clients, anti-entropy, and the config route unchanged;
* :mod:`repro.membership.coordinator` — a membership coordinator that
  runs join/leave changes on the simulation clock, streams owed
  version history to joining servers over handoff RPCs (a joiner serves
  reads only after catch-up), drains leaving servers before departure,
  and flips the cluster epoch (clearing the one placement memo)
  atomically per event.

``repro.cluster.config`` imports the ring, so this ``__init__`` must stay
import-light: the coordinator is imported lazily by its users (the
testbed, the nemesis) rather than re-exported here.
"""

from repro.membership.ring import VIRTUAL_NODES, ConsistentHashRing

__all__ = ["ConsistentHashRing", "VIRTUAL_NODES"]
