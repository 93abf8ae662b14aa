"""Client-side node: a network endpoint plus transaction timestamps.

Every protocol client in :mod:`repro.hat.clients` owns a :class:`ClientNode`,
which registers the client on the network (so replies can be delivered) and
assigns unique transaction timestamps.  Clients route by reading a key's
record off ``ClusterConfig.placements`` themselves.
"""

from __future__ import annotations

import itertools

from repro.cluster.config import ClusterConfig
from repro.errors import ReproError
from repro.net.network import Network
from repro.sim import Environment
from repro.storage.records import Timestamp

#: Process-wide counter so every client gets a unique id even across
#: independently constructed testbeds in one Python process.
_CLIENT_IDS = itertools.count(1)


class ClientNode:
    """Network identity and timestamp assignment."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        config: ClusterConfig,
        name: str,
        home_cluster: str,
    ):
        if home_cluster not in config.cluster_names:
            raise ReproError(f"unknown home cluster {home_cluster!r}")
        self.env = env
        self.network = network
        self.config = config
        self.name = name
        self.home_cluster = home_cluster
        self.client_id = next(_CLIENT_IDS)
        #: Lamport counter; ``ProtocolClient._observe`` advances it past
        #: every sequence a read returns (the receive rule).
        self._next_sequence = 1
        network.register(name, self._on_message)

    def _on_message(self, message) -> None:
        # Clients only receive RPC replies, which the network resolves
        # directly against the pending-RPC table; any other message is noise.
        return None

    # -- timestamps ------------------------------------------------------------
    def next_timestamp(self) -> Timestamp:
        """A unique transaction timestamp (client id + sequence number)."""
        sequence = self._next_sequence
        self._next_sequence += 1
        return Timestamp(sequence, self.client_id)

    def commit_timestamp(self) -> Timestamp:
        """A timestamp whose sequence tracks the current simulated time.

        The coordinated (non-HAT) protocols need installed version orders
        that follow their serialization order — the order in which locks or
        masters processed the writes — rather than each client's private
        counter.  Deriving the sequence from the simulated clock (microsecond
        granularity) achieves that: any two conflicting transactions are
        separated by lock-hold or master-processing intervals far longer than
        one microsecond, and the client id breaks residual ties.
        """
        return Timestamp(sequence=int(self.env._now * 1000.0), client_id=self.client_id)
