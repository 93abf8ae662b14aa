"""Direct Serialization Graphs (DSG) with session edges.

Following Adya (and the paper's Appendix A.2), the DSG over a history's
committed transactions has three kinds of dependency edges plus the paper's
session edges:

* ``ww`` (write-depends): Ti installs a version of x and Tj installs x's next
  version,
* ``wr`` (read-depends): Tj reads the version of x that Ti installed,
* ``rw`` (anti-depends): Ti reads a version of x and Tj installs x's next
  version,
* ``session``: Ti precedes Tj in the same session's commit order.

Edges are annotated with the item so phenomena such as Lost Update ("all
edges are by the same data item") can filter on it.  The graph is a
:class:`networkx.MultiDiGraph` because two transactions can be related by
several dependencies at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import networkx as nx

from repro.adya.history import History, INITIAL

WW = "ww"
WR = "wr"
RW = "rw"
SESSION = "session"

EDGE_TYPES = (WW, WR, RW, SESSION)


@dataclass(frozen=True)
class DependencyEdge:
    """One edge of the DSG."""

    src: int
    dst: int
    kind: str
    item: Optional[str] = None

    def __str__(self) -> str:
        item = f"[{self.item}]" if self.item else ""
        return f"T{self.src} -{self.kind}{item}-> T{self.dst}"


def build_dsg(history: History, include_sessions: bool = True) -> nx.MultiDiGraph:
    """Construct the DSG (plus session edges) for ``history``."""
    graph = nx.MultiDiGraph()
    committed = history.committed()
    graph.add_nodes_from(t.txn_id for t in committed)

    # Write-dependencies: consecutive writers in each item's version order.
    for key, order in history.version_order.items():
        for earlier, later in zip(order, order[1:]):
            _add_edge(graph, earlier, later, WW, key)

    # Read- and anti-dependencies.
    for transaction in committed:
        for read in transaction.reads:
            writer = read.writer_txn
            if writer is not INITIAL and writer in history.transactions:
                if history.transaction(writer).committed and writer != transaction.txn_id:
                    _add_edge(graph, writer, transaction.txn_id, WR, read.key)
            next_writer = history.next_writer(read.key, writer)
            if next_writer is not None and next_writer != transaction.txn_id:
                _add_edge(graph, transaction.txn_id, next_writer, RW, read.key)

    if include_sessions:
        for _session_id, transactions in history.sessions().items():
            for earlier, later in zip(transactions, transactions[1:]):
                _add_edge(graph, earlier.txn_id, later.txn_id, SESSION, None)

    return graph


def _add_edge(graph: nx.MultiDiGraph, src: int, dst: int, kind: str,
              item: Optional[str]) -> None:
    if src == dst:
        return
    graph.add_edge(src, dst, kind=kind, item=item)


def edges_of(graph: nx.MultiDiGraph) -> List[DependencyEdge]:
    """All edges as :class:`DependencyEdge` records."""
    return [
        DependencyEdge(src=src, dst=dst, kind=data["kind"], item=data.get("item"))
        for src, dst, data in graph.edges(data=True)
    ]


def cycles_with(
    graph: nx.MultiDiGraph,
    allowed_kinds: Set[str],
    required_kinds: Optional[Set[str]] = None,
    item: Optional[str] = None,
    max_witnesses: int = 25,
) -> List[List[DependencyEdge]]:
    """Find witness cycles using only ``allowed_kinds`` edges.

    ``required_kinds`` restricts results to cycles containing at least one
    edge of a required kind; ``item`` restricts dependency edges to a single
    data item (session edges carry no item and always qualify).  Returns each
    witness cycle as its list of edges.

    Detection is based on strongly connected components rather than
    exhaustive simple-cycle enumeration: an edge lies on some cycle exactly
    when both its endpoints are in the same SCC, so existence of a qualifying
    cycle is decided in polynomial time even for the dense dependency graphs
    produced by long recorded histories.  One representative cycle per SCC
    (per required kind) is reconstructed for reporting, up to
    ``max_witnesses``.
    """
    return _witness_cycles(graph.nodes, (
        (src, dst, data) for src, dst, data in graph.edges(data=True)
        if data["kind"] in allowed_kinds
        and (item is None or data["kind"] == SESSION or data.get("item") == item)
    ), required_kinds, max_witnesses)


def cycles_by_item(
    graph: nx.MultiDiGraph,
    items: Iterable[str],
    allowed_kinds: Set[str],
    required_kinds: Optional[Set[str]] = None,
) -> Iterator[Tuple[str, List[List[DependencyEdge]]]]:
    """``cycles_with(graph, ..., item=item)`` for each of ``items``, over
    dependency edges only (``allowed_kinds`` without ``SESSION``).

    The graph's edges are read once and bucketed by item, so each item's
    cycle search sees its own edges rather than re-filtering all of them.
    """
    buckets: Dict[Optional[str], list] = {}
    for src, dst, data in graph.edges(data=True):
        if data["kind"] in allowed_kinds:
            buckets.setdefault(data.get("item"), []).append((src, dst, data))
    for item in items:
        yield item, _witness_cycles(graph.nodes, buckets.get(item, ()),
                                    required_kinds)


def _witness_cycles(nodes, edges, required_kinds: Optional[Set[str]],
                    max_witnesses: int = 25) -> List[List[DependencyEdge]]:
    """One representative qualifying cycle per SCC of ``nodes`` + ``edges``."""
    filtered = nx.MultiDiGraph()
    filtered.add_nodes_from(nodes)
    for src, dst, data in edges:
        filtered.add_edge(src, dst, kind=data["kind"], item=data.get("item"))

    results: List[List[DependencyEdge]] = []
    for component in nx.strongly_connected_components(filtered):
        if len(results) >= max_witnesses:
            break
        if len(component) < 2:
            continue
        subgraph = filtered.subgraph(component)
        seeds = _seed_edges(subgraph, required_kinds)
        if seeds is None:
            continue
        for seed in seeds[:1]:
            cycle = _cycle_through(subgraph, seed)
            if cycle is not None:
                results.append(cycle)
    return results


def _seed_edges(subgraph: nx.MultiDiGraph,
                required_kinds: Optional[Set[str]]) -> Optional[List[DependencyEdge]]:
    """Edges the witness cycle must pass through (None = no qualifying edge)."""
    edges = [
        DependencyEdge(src=src, dst=dst, kind=data["kind"], item=data.get("item"))
        for src, dst, data in subgraph.edges(data=True)
    ]
    if not required_kinds:
        return edges if edges else None
    qualifying = [edge for edge in edges if edge.kind in required_kinds]
    return qualifying or None


def _cycle_through(subgraph: nx.MultiDiGraph,
                   seed: DependencyEdge) -> Optional[List[DependencyEdge]]:
    """Build a concrete cycle containing ``seed`` inside its SCC."""
    if seed.src == seed.dst:
        return [seed]
    try:
        path_nodes = nx.shortest_path(subgraph, seed.dst, seed.src)
    except nx.NetworkXNoPath:  # pragma: no cover - SCC guarantees a path
        return None
    edges = [seed]
    for hop_src, hop_dst in zip(path_nodes, path_nodes[1:]):
        best = None
        for _, data in subgraph[hop_src][hop_dst].items():
            candidate = DependencyEdge(src=hop_src, dst=hop_dst, kind=data["kind"],
                                       item=data.get("item"))
            if best is None or (best.kind == SESSION and candidate.kind != SESSION):
                best = candidate
        edges.append(best)
    return edges
