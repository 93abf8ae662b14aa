"""Deterministic cost pins: simulator work per committed transaction.

Events and messages per committed transaction depend only on the seed, never
on the machine, so they can be asserted in tier-1 (the ROADMAP's house rule:
every perf change lands a deterministic pin here).  MAV is
held to the budget its stabilisation needs — each write pushed once per
remote replica by its origin, the acks owed to a pushed-to server riding that
push and one acknowledgement message per other destination server per
anti-entropy tick, promotion inside the handler that saw the last ack — so a
change that sends acks from the write's handler again, or pushes a received
write on, fails here, not only in the benchmark.  ``eventual`` is pinned exactly
(nothing MAV-related may move the base path), and so is what an answered RPC
costs the timeout sweeper: nothing.  ``causal`` is pinned to the same numbers: on a
healthy network a sticky session forwards nothing, so the session stack adds
client-side bookkeeping but not one event or message — and, routing never
moving, that bookkeeping examines no remembered key at all.  Anti-entropy
through a partition examines each stranded version once when it is marked and
once when the heal re-queues it, never once per round in between — and a
stack that never marks a version (``master``) pays nothing for it at all.
Observability is pinned the same way: what a tracing + metrics run records
per committed transaction, on the event sequence of the unobserved run.
The host-side cost of that event sequence is held by a ceiling on the Python
frames entered under ``src/repro`` per committed transaction.  An observed
open-loop run through a partition is pinned too: its counts and exposition,
its frames, one classifier judgement per site pair per split, and recency
counters that are their histograms' counts.
"""

import os
import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.bench.runner import RunConfig, run_workload
from repro.chaos import Nemesis, canonical_partition_campaign
from repro.hat.testbed import FIVE_REGION_DEPLOYMENT, Scenario, build_testbed
from repro.hat.transaction import TransactionResult
from repro.loadgen import OpenLoopConfig, PoissonArrivals, run_open_loop
from repro.overload.retry import RetryPolicy
from repro.sim.events import PENDING
from repro.workloads.distributions import UniformKeys
from repro.workloads.ycsb import YCSBConfig


_REPRO_SOURCE = os.sep + os.path.join("src", "repro") + os.sep


def _frames_by_function(run):
    """``run()``'s result and a ``Counter`` of the frames it entered under
    ``src/repro``, by qualified name (for short runs: keying every frame
    costs the long pinned runs 10-20 % more than :func:`_frames_entered`)."""
    frames = Counter()

    def count(frame, event, arg):
        if event == "call" and _REPRO_SOURCE in frame.f_code.co_filename:
            frames[frame.f_code.co_qualname] += 1

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, frames


def _frames_entered(run):
    """``run()``'s result and the Python frames entered under ``src/repro``
    while it ran (function calls and generator resumptions, as
    ``sys.setprofile`` sees them)."""
    frames = [0]

    def count(frame, event, arg):
        if event == "call" and _REPRO_SOURCE in frame.f_code.co_filename:
            frames[0] += 1

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, frames[0]


@pytest.fixture(scope="module")
def costs():
    """Per protocol on a one-simulated-second default YCSB run over VA+OR,
    two servers each: ``cost`` = (events, messages, mav.notify messages,
    committed), ``puts`` = write RPCs sent, the sessions' forwarding
    diagnostics (``probes``, ``forwards``) summed over the clients, and
    ``frames`` entered during the run (:func:`_frames_entered`)."""
    measured = {}
    for protocol in ("eventual", "mav", "causal"):
        scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=0)
        testbed = build_testbed(scenario)
        stats, frames = _frames_entered(lambda: run_workload(
            RunConfig(protocol=protocol, scenario=scenario,
                      duration_ms=1000.0, warmup_ms=0.0, seed=0),
            testbed=testbed))
        notifies = sum(s.mav.stats.notifies_sent for s in testbed.server_list())
        # The counter means mav.notify messages handed to the network.
        assert notifies == testbed.network.stats.per_kind.get("mav.notify", 0)
        sessions = [client.session for client in testbed.clients
                    if client.session is not None]
        measured[protocol] = SimpleNamespace(
            cost=(testbed.env.events_executed, testbed.network.stats.sent,
                  notifies, stats.committed),
            puts=testbed.network.stats.per_kind.get("ru.put", 0),
            probes=sum(s.forward_probes for s in sessions),
            forwards=sum(s.forwards_issued for s in sessions),
            frames=frames)
    return measured


def test_mav_stays_inside_its_event_and_notify_budget(costs):
    """21.43 events, 16.90 messages and 0.61 ack batches per committed
    transaction: four servers, three ack destinations each, one of them (the
    same-slot peer) pushed to, a hundred ticks.  23.42 events while each
    transaction was a process of its own (a start event, and one to resume
    its driver); 24.56 / 17.36 / 1.02 while every ack travelled in a
    ``mav.notify`` and a server pushed a write it had received on to every
    peer, the sender included; 37.83 events when a round trip cost four
    kernel events; 59.94 / 28.42 / 12.06 when every write handler sent its
    own batches."""
    events, messages, notifies, committed = costs["mav"].cost
    assert committed > 500
    assert events / committed <= 21.5
    assert messages / committed <= 16.95
    assert notifies / committed <= 0.65


def test_mav_still_costs_more_than_eventual(costs):
    """The second write and the acks are real work: cheaper than eventual
    would mean stabilisation was skipped, not batched."""
    mav_events, _, mav_notifies, mav_committed = costs["mav"].cost
    events, _, _, committed = costs["eventual"].cost
    assert mav_notifies > 0
    assert mav_events / mav_committed > events / committed


@pytest.fixture(scope="module")
def observed():
    """The ``eventual`` run again with tracing and metrics on."""
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=0,
                        tracing=True, metrics=True)
    testbed = build_testbed(scenario)
    stats = run_workload(
        RunConfig(protocol="eventual", scenario=scenario, duration_ms=1000.0,
                  warmup_ms=0.0, seed=0), testbed=testbed)
    series = testbed.metrics.timeseries(quantiles=())["series"]
    return SimpleNamespace(testbed=testbed, committed=stats.committed,
                           spans=len(testbed.tracer.spans), series=series)


def test_the_exact_counts_match_the_cost_pin(costs, observed, assert_pin):
    """One ``cost-per-txn`` record: (events, messages, mav.notify messages,
    committed) of the ``eventual`` and ``causal`` runs, the write RPCs of
    each, and what the observed run records: 9.7 spans and 25.5 histogram
    observations per committed transaction (a traced RPC round trip is one
    span, its server side attributes on it; 17.7 spans when each served
    request had a ``server`` span too), in four per-server series of each
    of three kinds plus the two recency series, three 500 ms windows each
    (preload included)."""
    windows = [entry["windows"] for entry in observed.series]
    assert_pin("cost-per-txn", {
        "cost": {p: list(costs[p].cost) for p in ("eventual", "causal")},
        "puts": {p: costs[p].puts for p in ("eventual", "causal")},
        "observed": {
            "spans": observed.spans,
            "observations": sum(w["count"] for ws in windows for w in ws),
            "series": len(windows),
            "windows": sum(len(ws) for ws in windows)},
    })


def test_an_answered_rpc_buys_no_timeout_sweep(costs):
    """The pinned run again with a 100 ms RPC deadline, so it outlives its
    timeout ten times over: the sweeper wakes once per deadline of an RPC
    still outstanding (11 times here), not once per RPC ever issued (8 665
    extra events when answered entries held the front of the wheel)."""
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=0)
    testbed = build_testbed(scenario)
    stats = run_workload(
        RunConfig(protocol="eventual", scenario=scenario, duration_ms=1000.0,
                  warmup_ms=0.0, seed=0,
                  retry=RetryPolicy(rpc_timeout_ms=100.0)), testbed=testbed)
    events, messages, _, committed = costs["eventual"].cost
    assert (testbed.network.stats.sent, stats.committed) == (messages, committed)
    assert testbed.network.stats.rpc_timeouts == 0
    assert events <= testbed.env.events_executed <= events + 20


def test_causal_on_a_healthy_network_costs_what_eventual_costs(costs):
    """Same transactions, same replicas, nothing forwarded: every write RPC
    is one of the workload's own writes."""
    assert costs["causal"].cost == costs["eventual"].cost
    assert costs["causal"].forwards == 0
    assert costs["causal"].puts == costs["eventual"].puts


def test_causal_forwarding_examines_a_bounded_number_of_keys(costs):
    """Routing never moves in this run, so no remembered key is ever owed
    and forwarding examines none (7.9 a transaction while a key became owed
    on every read and write; a re-introduced scan of session memory would
    examine hundreds by the end of this run)."""
    assert costs["causal"].probes == 0


def test_the_per_operation_path_stays_one_frame_per_stage(costs):
    """Host-side cost of the pinned event sequence.  Before each stage of
    send → dispatch → reply → resume became one frame and the driver stopped
    calling hooks no layer overrides, this run entered 590.5 frames per
    committed ``eventual`` transaction (eight operations) and 808.7 per
    ``causal`` one; 327.0 and 341.1 while a placement miss asked each
    cluster's partitioner for an owner; 304.0 and 318.1 while each
    transaction was a process of its own; 288.0 and 302.1 while every
    install entered the ``Version.metadata_bytes`` property (8.1 a
    transaction) and each write's put handler ``_stamp_commit`` and
    ``_install`` (4.05 each) to tell a recency probe that was off; 271.8
    and 285.9 while a request-path stage entered more than one frame.  It
    enters 203.6 and 217.7 (CPython 3.11) now that each runs in the frame
    that owns it, 68.2 fewer: the server's worker sweep inline in
    ``_on_message`` (-8.5), the reply sent by ``_serve`` through ``send``
    (``Network.reply``, -8.0), ``get_latest`` reading the store itself
    (``VersionedStore.latest``, ``_read_cost``, ``initial_version``, -11.8),
    the issue's hop count off the server map (``cluster_of_server``, -8.0)
    and its future built without ``__init__`` (-8.0), the Lamport rule
    inside ``_observe`` (``witness_timestamp``, -4.0), the key drawn and
    formatted in one frame (``KeyChooser.key`` and the draw
    became ``UniformKeys.key``, -8.0; ``randrange`` and ``_randbelow`` in
    ``random`` are gone too) and the workload's operations built as tuples
    (``Operation.read`` / ``.write`` -8.0, ``_next_value`` -4.05).
    Earlier, when a transaction began to run on its driver's process,
    7.0 frames went with its own process (``execute``, its ``Process`` and
    ``Future`` constructors, ``schedule_now`` to start it, ``succeed`` and
    the two ``_resume`` calls that started it and resumed the driver) and
    16.0 with the per-operation ``_layered_read`` / ``_direct_write``
    generators, folded into ``LayeredClient._run``; ``client_loop`` sits in
    each of the eight round trips' resume chain (+7.0).  Since then 199.6
    and 213.7: the stale-timestamp check is inline in ``_txn_timestamp``
    (``ClientNode.timestamp_is_stale``, -3.1) and ``transact`` reads the
    clock as ``env._now`` (the ``Environment.now`` property, -1.0).  Ceilings, not
    pins: CPython 3.12 inlines comprehensions, which only lowers the count.
    A pass-through hop put back on the path costs 8 frames a transaction, a
    hook loop over inherited no-ops 16 a read, a validating frame per built
    operation 8 — each fails here."""
    committed = costs["eventual"].cost[3]
    assert costs["causal"].cost[3] == committed
    assert costs["eventual"].frames / committed <= 200.0
    assert costs["causal"].frames / committed <= 214.0
    # The session stack costs client-side bookkeeping only: 14.1 frames a
    # transaction on top of ``eventual`` for the same messages — holder
    # notes 8.0, the one read floor 3.9, ``begin`` 1.0 (it returns before
    # scanning the plan: routing has not moved, nothing is owed) and
    # ``finalize`` 1.0.  Owing a key on every read and write cost 33.3:
    # owed-index adds 8.0, forwarding's per-key probe 8.2 (``_pick_replica``,
    # ``holders_of``), the plan scan 1.0 and ``_forward`` 2.0 on top.  Four
    # session layer classes cost 58.1: four frames a read where there is
    # one, and a write scan per forwarding row.
    surcharge = costs["causal"].frames - costs["eventual"].frames
    assert surcharge / committed <= 21.0


def test_a_served_read_enters_one_frame_per_stage():
    """One ``eventual`` read against an idle server, stage by stage: the key
    draw, the sticky replica, the issue (no ``cluster_of_server`` for the
    remote-hop count, no ``Future.__init__``), the request's delivery, the
    dispatch (no ``_free_workers`` sweep), the handler and its store read
    (no ``VersionedStore.latest``, ``_read_cost`` or ``initial_version``),
    the reply (sent by ``_serve`` itself: no ``Network.reply``), its
    delivery, and the Lamport receive rule (no ``witness_timestamp``).  The
    same read entered 24 frames here (and ``randrange`` / ``_randbelow`` in
    ``random``) before each stage became one; a stage that gains a frame
    back fails here under that frame's name.  The round trip runs twice on
    one key and the second is counted, so the key's placement and the
    pair's latency are memoised as in a long run."""
    testbed = build_testbed(Scenario(regions=["VA", "OR"],
                                     servers_per_cluster=2, seed=0))
    client, chooser, env = testbed.make_client("eventual"), UniformKeys(100_000), testbed.env
    result = TransactionResult(1, False, client.protocol_name)

    def round_trip():
        key = chooser.key(random.Random(0))
        replica = client._pick_replica(key)
        reply = client._issue(result, replica, client.get_kind, {"key": key})
        while reply._value is PENDING:
            env.step()
        client._observe(result, key, reply._value["version"])
        return result.reads[-1].version

    round_trip()
    version, frames = _frames_by_function(round_trip)
    assert version.value is None and len(result.reads) == 2
    assert frames == {
        "UniformKeys.key": 1,
        "ProtocolClient._pick_replica": 1,
        "ProtocolClient._issue": 1,
        "Network.rpc": 1,
        "Network.send": 2,  # the request, and the reply ``_serve`` sends
        "Environment.step": 2,
        "Network._deliver": 2,
        "ServerNode._on_message": 1,
        "ServerNode._serve": 1,
        "HATServer._handle_ru_get": 1,
        "LSMStore.get_latest": 1,
        "ProtocolClient._observe": 1,
    }


def test_the_mav_replica_path_does_its_bookkeeping_once(costs):
    """Host-side cost of the ``mav`` run: 268.1 frames per committed
    transaction (CPython 3.11); 337.9 while a request-path stage entered
    more than one frame (``eventual``'s -68.2, and -1.6 more for the worker
    sweep of the wakes the ack batches add); 355.1 while every install
    entered the ``Version.metadata_bytes`` property and so did each sibling
    version an ``ae.push`` brought (13.2) and the put handler entered
    ``_stamp_commit`` (4.05); 366.0 while each transaction was a process of
    its own (7.0 frames) and a read its own generator (7.9, one per read;
    MAV buffers its writes, so ``client_loop`` joins 4.0 resume chains, not
    8), and 401.0 while ``add_write`` handed its own ack to ``record_acks``
    as a batch of one and asked ``replicas_for`` for each sibling's
    replicas, and each version an ``ae.push`` brought woke the anti-entropy
    tick.  Its 64.5 frames beyond ``eventual``'s 203.6 are the replica path
    (``mav_state`` 16.2: ``add_write`` 8.1, ``_promote`` and its pending
    record 3.6 each; ``hat/server`` 13.4, promotions still installing
    through ``_install`` where an ``eventual`` put no longer does; the
    second write's WAL append 8.1), the worker wakes the ack batches add
    (7.7), the parallel flush's kernel callbacks (13.0) and the MAV client
    layers net of the direct write path (7.7: a direct write no longer
    enters a generator of its own, MAV's flush still does), less 1.5
    elsewhere (``cluster/client`` -3.1, ``net`` +1.6).  A ceiling, not a
    pin (CPython 3.12 only lowers it)."""
    committed = costs["mav"].cost[3]
    assert costs["mav"].frames / committed <= 268.5


def test_partition_backlog_is_not_rescanned_every_round():
    """A re-introduced rescan examines every stranded entry on each of the
    150 partition-era rounds: 63 examinations per pushed version on this
    run before parking, under 2 with it."""
    scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=0)
    testbed = build_testbed(scenario)
    campaign = canonical_partition_campaign(
        scenario.regions, baseline_ms=200.0, partition_ms=1_500.0,
        recovery_ms=300.0)
    Nemesis(testbed, campaign).install()
    run_workload(
        RunConfig(protocol="eventual", scenario=scenario,
                  duration_ms=campaign.duration_ms, warmup_ms=0.0, seed=0),
        testbed=testbed)
    stats = [server.anti_entropy.stats for server in testbed.server_list()]
    pushed = sum(s.versions_pushed for s in stats)
    assert pushed > 5_000 and sum(s.requeues for s in stats) > 5_000
    assert sum(s.entries_examined for s in stats) / pushed <= 3.0


@pytest.fixture(scope="module")
def master_five_regions():
    """The paper's non-HAT comparator: ``master`` over five regions, two
    servers each, 95 % reads, thirty simulated seconds, frames counted."""
    scenario = Scenario(regions=FIVE_REGION_DEPLOYMENT, servers_per_cluster=2,
                        seed=0)
    testbed = build_testbed(scenario)
    stats, frames = _frames_entered(lambda: run_workload(
        RunConfig(protocol="master", scenario=scenario,
                  workload=YCSBConfig(write_proportion=0.05),
                  clients_per_cluster=2, duration_ms=30_000.0, warmup_ms=0.0,
                  seed=0), testbed=testbed))
    return SimpleNamespace(events=testbed.env.events_executed,
                           committed=stats.committed, frames=frames)


def test_master_over_five_regions_pays_for_no_idle_replication_timer(
        master_five_regions):
    """RTT-bound clients, ten servers with nothing to push.  Ten
    free-running 10 ms timers cost this run 143 events per committed
    transaction; one timer armed only on work, 37.4 with four kernel events
    per round trip, 19.7 with two and 17.7 once a transaction stopped being
    a process of its own."""
    run = master_five_regions
    assert run.committed > 250
    assert run.events / run.committed <= 18.5


def test_a_master_routed_operation_reads_its_placement_once(master_five_regions):
    """Host-side cost of the five-region run: 164.1 frames per committed
    transaction (CPython 3.11); 244.5 while a request-path stage entered
    more than one frame: the store read's three extra frames (-22.7, 95 %
    reads), the worker sweep (-9.7), ``_rpc`` between ``MasterClient._run``
    and ``Network.rpc``, the future's ``__init__``, ``Network.reply`` and
    the key draw's second frame (-8.0 each), ``Operation.read`` /
    ``.write`` (-8.0) and ``witness_timestamp`` (-7.6); 247.4 before the
    metadata sizing went inline.  350.6 while a placement miss asked each of
    the five clusters' partitioners for an owner, rather than indexing a
    table of hash residues, and each operation routed through
    ``master_replica`` → a config accessor → the memo, then
    ``cluster_of_server`` for the remote-hop count, rather than reading the
    key's record once.  A ceiling, not a pin (CPython 3.12 only lowers it)."""
    run = master_five_regions
    assert run.frames / run.committed <= 164.5


def test_observing_a_run_costs_a_pinned_number_of_spans_and_observations(
        costs, observed):
    """The ``eventual`` run again with tracing and metrics on: the same
    events, and exactly this much recorded per committed transaction, in
    exactly this many series and window digests (``cost-per-txn``).  A seam
    that starts recording more (or a digest kept per something finer than a
    series window) fails there, not only in the benchmark's overhead ratio."""
    events, _, _, committed = costs["eventual"].cost
    testbed = observed.testbed
    assert (testbed.env.events_executed, observed.committed) == (events, committed)
    # The recency probe forgot every version but the two a newer version of
    # the key overtook on the way to its other replica: a version that loses
    # last-writer-wins there is never installed, so its record stays.
    assert len(testbed.metrics.staleness._pending) == 2


@pytest.fixture(scope="module")
def partitioned():
    """hatbench's ``openloop_rc_partition_obs`` at an eighth of its size:
    ``read-committed`` at Poisson 300/s per cluster on VA+OR, two servers
    each, through the canonical partition campaign (375 ms baseline, a
    750 ms split, 375 ms recovery), frames counted, once with tracing and
    metrics on and once off.  The split's classifier is wrapped to log each
    call as ``(partitions.generation, site)``."""
    measured = {}
    for observed in (True, False):
        scenario = Scenario(regions=["VA", "OR"], servers_per_cluster=2, seed=0,
                            tracing=observed, metrics=observed)
        testbed = build_testbed(scenario)
        campaign = canonical_partition_campaign(
            scenario.regions, baseline_ms=375.0, partition_ms=750.0,
            recovery_ms=375.0)
        Nemesis(testbed, campaign).install()
        partitions, calls = testbed.network.partitions, []
        split = partitions.partition_by

        def counted(classifier, split=split, partitions=partitions, calls=calls):
            def classify(site):
                calls.append((partitions.generation, site))
                return classifier(site)
            split(classify)

        partitions.partition_by = counted
        stats, frames = _frames_entered(lambda: run_open_loop(OpenLoopConfig(
            protocol="read-committed", scenario=scenario,
            arrivals=PoissonArrivals(300.0), workload=YCSBConfig(),
            sessions_per_cluster=8, duration_ms=campaign.duration_ms, seed=0),
            testbed=testbed, preload=False))
        measured[observed] = SimpleNamespace(
            testbed=testbed, committed=stats.committed, frames=frames,
            calls=calls)
    return measured


def test_a_partitioned_observed_run_does_its_bookkeeping_once(partitioned):
    """Host-side cost of the observed run: 292.8 frames per committed
    transaction with tracing and metrics on, 238.5 with them off (CPython
    3.11); 293.2 observed while the t-digest compressed its buffers, each
    compress entering ``_compress``, ``_fold``, ``_points`` and
    ``_merge_points`` (-0.4).  361.9 and 307.1, 68.6 more on both, while a request-path stage
    entered more than one frame (the stages of
    :func:`test_the_per_operation_path_stays_one_frame_per_stage` but
    ``_next_value``: -64.5) and ``_pick_replica`` asked ``connected`` for a
    verdict the memo held (-4.1; it reads ``verdicts`` first now, as
    ``Network.send`` and ``MasterClient._run`` do).  446.5 and 356.9 while
    every message sent during the split asked ``connected`` (13.1 a
    transaction) and it asked the testbed's ``classify`` for both ends
    (25.6): the verdict memo, read by ``Network.send`` itself, leaves 4.8
    and 0.1, -33.8 on both runs.  The rest of the observed run's -84.6: the
    recency probe's three per-event ``Counter.inc`` (-12.0), its pending
    record's ``__init__`` (-4.0), the origin's own ``on_install`` after
    ``on_commit`` (-4.0) and ``replicas_for`` to freeze the commit's replica
    set (-4.0), each ``Span.__init__`` (-10.7); on both runs
    ``Version.metadata_bytes`` in ``LSMStore.put`` (-8.0), ``_stamp_commit``
    and the put handler's ``_install`` (-4.0 each).  Ceilings, not pins
    (CPython 3.12 only lowers them)."""
    observed, plain = partitioned[True], partitioned[False]
    assert observed.committed == plain.committed > 800
    assert observed.testbed.env.events_executed == plain.testbed.env.events_executed
    assert observed.frames / observed.committed <= 293.0
    assert plain.frames / plain.committed <= 239.0


def test_the_partitioned_run_matches_its_pin(partitioned, assert_pin):
    """The ``cost-per-txn/partitioned`` record, taken before the verdict
    memo and the probe's collected counts: both runs' events, messages and
    commits, and what the observed one recorded (spans, histogram
    observations and the Prometheus exposition, collected counters
    included)."""
    runs = {str(observed): run for observed, run in partitioned.items()}
    metrics = partitioned[True].testbed.metrics
    windows = [series["windows"]
               for series in metrics.timeseries(quantiles=())["series"]]
    assert_pin("cost-per-txn/partitioned", {
        "cost": {name: [run.testbed.env.events_executed,
                        run.testbed.network.stats.sent, run.committed]
                 for name, run in runs.items()},
        "spans": len(partitioned[True].testbed.tracer.spans),
        "observations": sum(w["count"] for ws in windows for w in ws),
        "prometheus": metrics.prometheus(),
    })


def test_the_split_classifies_each_site_pair_once(partitioned):
    """``connected`` asks the classifier about both ends of a pair once per
    split, then answers from its verdicts: each logged call pairs up with
    the next into one ``(split, a, b)`` judgement, and none repeats (every
    site here is known before the split, so no verdict rests on ``None``)."""
    for run in partitioned.values():
        calls = run.calls
        assert calls and len(calls) % 2 == 0
        judged = [(a[0], a[1], b[1]) for a, b in zip(calls[::2], calls[1::2])]
        assert all(a[0] == b[0] for a, b in zip(calls[::2], calls[1::2]))
        assert len(set(judged)) == len(judged)


def test_the_recency_counters_are_their_histograms_counts(partitioned):
    """The probe keeps no per-event counter: installs and reads are read off
    the t-visibility and k-staleness run digests, commits off a plain int."""
    metrics = partitioned[True].testbed.metrics
    installs = metrics.summary("t_visibility_ms")["count"]
    reads = metrics.summary("k_staleness_versions")["count"]
    assert installs > 0 and reads > 0
    assert metrics.counters.get(("staleness_installs_total", ()), 0.0) == installs
    assert metrics.counters.get(("staleness_reads_total", ()), 0.0) == reads
    assert metrics.counters.get(("staleness_commits_total", ()), 0.0) > 0
