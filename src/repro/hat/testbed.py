"""Testbed assembly: build a full simulated HAT deployment from a scenario.

A :class:`Scenario` describes the deployment the way Section 6.3 does: which
datacenters (regions) host a cluster, how many servers per cluster, which
protocol the clients speak and how many clients per cluster.
:func:`build_testbed` wires together the simulation environment,
topology, latency model, network, cluster configuration, servers,
anti-entropy services, and a client factory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.client import ClientNode
from repro.cluster.config import ClusterConfig, build_cluster_config
from repro.cluster.node import ServiceCostModel
from repro.errors import ReproError
from repro.hat.clients import ProtocolClient, build_client
from repro.hat.server import HATServer
from repro.membership.coordinator import MembershipCoordinator
from repro.net.latency import EC2LatencyModel, FixedLatencyModel, LatencyModel
from repro.net.network import Network
from repro.net.partitions import PartitionManager
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import FaultLedger, Tracer
from repro.replication.antientropy import AntiEntropyClock, AntiEntropyConfig
from repro.sim import Environment, RandomStreams
from repro.sim.events import collect_promoted

#: The five lowest-communication-cost regions the paper uses for Figure 3C.
FIVE_REGION_DEPLOYMENT = ["VA", "CA", "OR", "IR", "SI"]


@dataclass
class Scenario:
    """A deployment + workload-shape description."""

    regions: List[str] = field(default_factory=lambda: ["VA"])
    clusters_per_region: int = 1
    servers_per_cluster: int = 5
    seed: int = 0
    #: Anti-entropy settings (interval, per-round cap, capacity coupling,
    #: send costs, batch sizes).  Elastic scenarios cap
    #: ``max_versions_per_round`` so handoff/heal catch-up bursts do not
    #: saturate replicas; the overload experiments couple catch-up to
    #: service capacity.
    anti_entropy: AntiEntropyConfig = field(default_factory=AntiEntropyConfig)
    #: Server-side admission control: each server's bound on queued
    #: foreground requests, shed adaptive-LIFO (see
    #: :mod:`repro.overload.admission`).  ``None`` keeps the historical
    #: unbounded FIFO.
    max_queue_depth: Optional[int] = None
    #: Versions retained per key on every server (None = unbounded).  The
    #: default bounds replica memory in long chaos runs — servers used to
    #: keep every version forever — while staying deep enough that
    #: timestamp-bounded reads (cut isolation, MAV required bounds) always
    #: find what they need at benchmark write rates.
    keep_versions: Optional[int] = 64
    service_cost: ServiceCostModel = field(default_factory=ServiceCostModel)
    #: Use a constant-latency network instead of the EC2 model (unit tests).
    fixed_latency_ms: Optional[float] = None
    #: ``"modulo"`` keeps the paper's static hash placement (byte-identical
    #: to every pre-elasticity figure); ``"ring"`` switches clusters to the
    #: consistent-hash ring, which elastic membership requires.
    placement: str = "modulo"
    #: Attach a :class:`repro.obs.trace.Tracer` to the deployment: every
    #: transaction, RPC, server dispatch, anti-entropy push, and lock grant
    #: records a causally linked span.  Off by default — a disabled run
    #: executes the exact same event sequence as before tracing existed.
    tracing: bool = False
    #: Attach a :class:`repro.obs.metrics.MetricsRegistry` to the deployment:
    #: queue sheds, breaker/budget transitions, anti-entropy backlog, lock
    #: waits, handoff progress, and the t-visibility/k-staleness recency
    #: probes all record into one registry.  Off by default with the same
    #: zero-overhead contract as tracing.
    metrics: bool = False
    #: Histogram window width for the metrics registry (sim-clock ms).
    metrics_window_ms: float = 500.0

    def cluster_regions(self) -> List[str]:
        """One entry per cluster (regions repeated ``clusters_per_region`` times)."""
        return [region for region in self.regions
                for _ in range(self.clusters_per_region)]


class Testbed:
    """A running simulated deployment."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, scenario: Scenario, env: Environment, topology: Topology,
                 network: Network, config: ClusterConfig,
                 streams: RandomStreams, faults: FaultLedger):
        self.scenario = scenario
        self.env = env
        self.topology = topology
        self.network = network
        self.config = config
        #: The active servers, filled by :meth:`_build_server`.
        self.servers: Dict[str, HATServer] = {}
        self.streams = streams
        #: The one anti-entropy timer every server's service ticks on.
        self.ae_clock = AntiEntropyClock(env)
        #: The one fault-window ledger: the nemesis and the membership
        #: coordinator feed it, the tracer and the metrics registry read it.
        self.faults = faults
        #: The deployment's tracer (None unless ``Scenario.tracing``).
        self.tracer = network.tracer
        #: The deployment's metrics registry (None unless ``Scenario.metrics``).
        self.metrics = network.metrics
        self.clients: List[ProtocolClient] = []
        #: Servers decommissioned by the membership coordinator, kept for
        #: post-run inspection (they are unregistered and never serve again).
        self.retired: Dict[str, HATServer] = {}
        self.membership = MembershipCoordinator(self)

    # -- client construction -----------------------------------------------------------
    def make_client(self, protocol: str, home_cluster: Optional[str] = None,
                    recorder: Optional[object] = None, sticky: bool = True,
                    **client_kwargs) -> ProtocolClient:
        """Create a client for a protocol spec, homed in ``home_cluster``.

        ``protocol`` is any spec the registry accepts — a plain base such as
        ``"mav"`` or a guarantee stack such as ``"causal"`` or
        ``"mav+wfr+mr"`` (see :func:`repro.hat.protocols.parse_spec`);
        the spec is the only way to stack session guarantees or cut
        isolation (``"read-committed+ci+causal"``).  ``sticky=False``
        builds the stack in demonstration mode: session layers record
        guarantee violations instead of repairing them.
        """
        if home_cluster is None:
            home_cluster = self.config.cluster_names[0]
        name = f"client-{len(self.clients)}-{home_cluster}"
        region = self.config.cluster(home_cluster).region
        zone = self.topology.site(self.config.cluster(home_cluster).servers[0]).zone
        self.topology.add_site(name, region=region, zone=zone)
        node = ClientNode(self.env, self.network, self.config, name, home_cluster)
        client = build_client(
            protocol, node, recorder=recorder, sticky=sticky, **client_kwargs,
        )
        self.clients.append(client)
        return client

    # -- elastic membership ------------------------------------------------------------
    def add_server(self, cluster_name: str, server_name: Optional[str] = None) -> HATServer:
        """Build and register a new server for ``cluster_name``.

        The server is placed in the cluster's zone, registered on the
        network, and returned *without* being added to the cluster config —
        clients route to it only once the membership coordinator flips the
        epoch (after handoff catch-up).  Its anti-entropy service is not
        started either; the coordinator starts it at the flip.
        """
        cluster = self.config.cluster(cluster_name)
        if server_name is None:
            index = len(cluster.servers)
            while (f"{cluster_name}-s{index}" in self.servers
                   or f"{cluster_name}-s{index}" in self.retired):
                index += 1
            server_name = f"{cluster_name}-s{index}"
        if server_name in self.servers or server_name in self.retired:
            raise ReproError(f"server name {server_name!r} already in use")
        zone = self.topology.site(cluster.servers[0]).zone
        self.topology.add_site(server_name, region=cluster.region, zone=zone)
        return self._build_server(server_name)

    def _build_server(self, server_name: str) -> HATServer:
        """The one place a server is built from the scenario."""
        scenario = self.scenario
        server = self.servers[server_name] = HATServer(
            self.env, self.network, server_name, self.config,
            cost_model=scenario.service_cost,
            anti_entropy=scenario.anti_entropy,
            keep_versions=scenario.keep_versions,
            max_queue_depth=scenario.max_queue_depth,
            ae_clock=self.ae_clock,
        )
        return server

    def retire_server(self, server_name: str) -> None:
        """Move a decommissioned server out of the active server map."""
        server = self.servers.pop(server_name, None)
        if server is not None:
            self.retired[server_name] = server

    # -- failure injection -------------------------------------------------------------
    def partition_regions(self, groups: List[List[str]]) -> None:
        """Partition the network so only regions in the same group communicate.

        Uses a classifier so that clients created after the partition starts
        are still placed on the correct side of the split.
        """
        label_of_region = {}
        for index, group in enumerate(groups):
            for region in group:
                label_of_region[region] = f"group-{index}"

        def classify(site_name: str):
            site = self.topology.sites.get(site_name)
            if site is None:
                return None
            return label_of_region.get(site.region)

        self.network.partitions.partition_by(classify)

    # -- convenience ---------------------------------------------------------------------
    def run(self, duration_ms: float) -> float:
        """Advance the simulation by ``duration_ms``."""
        return self.env.run(until=self.env.now + duration_ms)

    def server_list(self) -> List[HATServer]:
        return list(self.servers.values())

    def max_rtt_ms(self) -> float:
        """The worst mean round-trip time between any two servers.

        Benchmark grace periods scale with this so that in-flight
        transactions in high-latency geo deployments (Table 1c tops out at
        362.8 ms Sao Paulo - Singapore) are not silently truncated.
        """
        servers = self.config.all_servers
        worst = 0.0
        for a, b in itertools.combinations(servers, 2):
            worst = max(worst, self.network.latency.mean_rtt(a, b))
        return worst


def build_testbed(scenario: Scenario) -> Testbed:
    """Construct every component of a simulated deployment."""
    collect_promoted()  # frees the testbeds earlier paused runs dropped
    env = Environment()
    streams = RandomStreams(scenario.seed)
    topology = Topology()

    cluster_regions = scenario.cluster_regions()
    config = build_cluster_config(cluster_regions, scenario.servers_per_cluster,
                                  placement=scenario.placement)

    # Register every server site: each cluster lives in one availability zone
    # of its region; distinct clusters in the same region use distinct zones.
    zone_counters: Dict[str, int] = {}
    for cluster in config.clusters:
        zone_index = zone_counters.get(cluster.region, 0)
        zone_counters[cluster.region] = zone_index + 1
        zone = f"{cluster.region}-{chr(ord('a') + zone_index)}"
        for server_name in cluster.servers:
            topology.add_site(server_name, region=cluster.region, zone=zone)

    if scenario.fixed_latency_ms is not None:
        latency: LatencyModel = FixedLatencyModel(scenario.fixed_latency_ms)
    else:
        latency = EC2LatencyModel(topology)
    network = Network(env, topology, latency, streams=streams,
                      partitions=PartitionManager())
    faults = FaultLedger()
    if scenario.tracing:
        # Installed before any server is built: ServerNode only allocates
        # its per-message queue-depth ledger when the network carries a
        # tracer at construction time.
        network.tracer = Tracer(faults)
    if scenario.metrics:
        # Installed before any server is built for the same reason as the
        # tracer: instrumentation sites snapshot ``network.metrics`` at
        # construction time where doing so avoids a per-message lookup.
        network.metrics = MetricsRegistry(window_ms=scenario.metrics_window_ms,
                                          faults=faults)

    testbed = Testbed(scenario, env, topology, network, config, streams,
                      faults)
    for server_name in config.all_servers:
        testbed._build_server(server_name).anti_entropy.start()
    return testbed
