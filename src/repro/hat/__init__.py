"""Highly Available Transactions: the paper's core contribution.

This package implements the proof-of-concept HAT algorithms of Section 5 and
Appendix B as a **layered guarantee stack**: a shared replica-access core
plus composable per-guarantee layers, assembled by name through a protocol
registry.  That mirrors the paper's composability result — Read Committed,
Monotonic Atomic View, cut isolation, and the four session guarantees stack
freely, and causal consistency + MAV is the strongest combination achievable
with sticky availability (Figure 2, Section 5.3).

* :mod:`repro.hat.transaction` — operations, transactions, results.
* :mod:`repro.hat.server` — the server-side handlers for every protocol
  (eventual/RC writes, the MAV pending/good/notify machinery, master
  replication, the 2PL lock service, and quorum reads/writes).
* :mod:`repro.hat.clients` — the replica-access core
  (:class:`~repro.hat.clients.base.LayeredClient`, the one HAT client class)
  and the bespoke non-HAT baselines;
  :func:`~repro.hat.clients.build_client` assembles what the registry's rows
  say a spec is made of.
* :mod:`repro.hat.layers` — the guarantee layers: write buffering (RC),
  atomic visibility (MAV), cut isolation, and the four session guarantees
  (MR/MW/WFR/RYW) with their shared session cache and dependency forwarding.
* :mod:`repro.hat.protocols` — the registry: one table in which a guarantee
  is one row (its tokens, Table 3 codes, titles and implementing class).
  Parsing specs such as ``"rc"``, ``"mav+wfr+mr"``, or ``"causal"`` (all four
  session guarantees, sticky), canonical names, each stack's availability
  class (the Figure 2 combination rule) and the first-class ``causal`` and
  ``mav+causal`` protocols are all read off it.
* :mod:`repro.hat.testbed` — builds a full simulated deployment (topology,
  network, clusters, servers, anti-entropy, clients) from a scenario;
  ``make_client`` accepts any registry spec.
"""

from repro.hat.transaction import Operation, Transaction, TransactionResult
from repro.hat.protocols import (
    ALL_PROTOCOLS,
    COMPOSITE_PROTOCOLS,
    HAT_PROTOCOLS,
    NON_HAT_PROTOCOLS,
    Protocol,
    ProtocolSpec,
    parse_spec,
    protocol_info,
)
from repro.hat.testbed import Scenario, Testbed, build_testbed

__all__ = [
    "Operation",
    "Transaction",
    "TransactionResult",
    "Protocol",
    "ProtocolSpec",
    "parse_spec",
    "protocol_info",
    "ALL_PROTOCOLS",
    "COMPOSITE_PROTOCOLS",
    "HAT_PROTOCOLS",
    "NON_HAT_PROTOCOLS",
    "Scenario",
    "Testbed",
    "build_testbed",
]
