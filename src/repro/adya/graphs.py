"""Direct Serialization Graphs (DSG) as a plain list of edges.

Following Adya (and the paper's Appendix A.2), the DSG over a history's
committed transactions has three kinds of dependency edges:

* ``ww`` (write-depends): Ti installs a version of x, Tj x's next version,
* ``wr`` (read-depends): Tj reads the version of x that Ti installed,
* ``rw`` (anti-depends): Ti reads a version of x, Tj installs the next one.

Each edge names its item, so Lost Update ("all edges are by the same data
item") can filter on it; two transactions may share several edges.

A cycle search works per strongly connected component (an edge lies on a
cycle exactly when its endpoints share one), so it stays linear in the edges.
It reports one witness per component holding a qualifying edge, at most
:data:`MAX_WITNESSES`, in the list order of their *seeds*: a component's seed
is its first qualifying edge in list order, and the rest of its witness is a
breadth-first shortest path from the seed's ``dst`` back to its ``src`` that
expands each transaction's edges in list order (the first parallel edge wins).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.adya.history import History

WW = "ww"
WR = "wr"
RW = "rw"

#: Witness cycles one search reports.
MAX_WITNESSES = 25


class DependencyEdge(NamedTuple):
    """One edge of the DSG."""

    src: int
    dst: int
    kind: str
    item: str

    def __str__(self) -> str:
        return f"T{self.src} -{self.kind}[{self.item}]-> T{self.dst}"


def build_dsg(history: History) -> List[DependencyEdge]:
    """The DSG of ``history``: its ww edges item by item in version order,
    then its wr and rw edges read by read in commit order."""
    edges = [DependencyEdge(earlier, later, WW, key)
             for key, order in history.version_order.items()
             for earlier, later in zip(order, order[1:]) if earlier != later]
    for transaction in history.committed():
        reader = transaction.txn_id
        for read in transaction.reads:
            writer = history.transactions.get(read.writer_txn)  # None: INITIAL or unrecorded
            if writer is not None and writer.committed and writer is not transaction:
                edges.append(DependencyEdge(writer.txn_id, reader, WR, read.key))
            next_writer = history.next_writer(read.key, read.writer_txn)
            if next_writer is not None and next_writer != reader:
                edges.append(DependencyEdge(reader, next_writer, RW, read.key))
    return edges


def cycles_with(dsg: List[DependencyEdge], allowed_kinds: Set[str],
                required_kinds: Optional[Set[str]] = None) -> List[List[DependencyEdge]]:
    """Witness cycles made of ``allowed_kinds`` edges only; with
    ``required_kinds``, each holds at least one edge of a required kind."""
    return _witness_cycles([edge for edge in dsg if edge.kind in allowed_kinds],
                           required_kinds)


def cycles_by_item(dsg: List[DependencyEdge], items: Iterable[str], allowed_kinds: Set[str],
                   required_kinds: Optional[Set[str]] = None,
                   ) -> Iterator[Tuple[str, List[List[DependencyEdge]]]]:
    """``cycles_with`` over each of ``items``' own edges: the edges are read
    once and bucketed by item."""
    buckets: Dict[str, List[DependencyEdge]] = {}
    for edge in dsg:
        if edge.kind in allowed_kinds:
            buckets.setdefault(edge.item, []).append(edge)
    for item in items:
        yield item, _witness_cycles(buckets.get(item, []), required_kinds)


def _witness_cycles(edges: List[DependencyEdge],
                    required_kinds: Optional[Set[str]]) -> List[List[DependencyEdge]]:
    """One witness per component of ``edges`` holding a qualifying edge."""
    out: Dict[int, List[DependencyEdge]] = {}
    for edge in edges:
        out.setdefault(edge.src, []).append(edge)
    component = _components(out)
    seeds: Dict[int, DependencyEdge] = {}
    for edge in edges:
        if len(seeds) == MAX_WITNESSES:
            break
        if ((required_kinds is None or edge.kind in required_kinds)
                and component[edge.src] == component[edge.dst]):
            seeds.setdefault(component[edge.src], edge)
    return [_cycle_through(seed, out, component) for seed in seeds.values()]


def _components(out: Dict[int, List[DependencyEdge]]) -> Dict[int, int]:
    """Tarjan's strongly connected components, without recursion: each
    transaction that ``out`` reaches -> the root of its component."""
    index, low, component, stack = {}, {}, {}, []
    for root in out:
        work = [] if root in index else [(root, None)]
        while work:
            node, pending = work.pop()
            if pending is None:  # first visit
                index[node] = low[node] = len(index)
                stack.append(node)
                pending = iter(out.get(node, ()))
            for edge in pending:
                if edge.dst not in index:
                    work += [(node, pending), (edge.dst, None)]
                    break
                if edge.dst not in component:  # still on the stack
                    low[node] = min(low[node], index[edge.dst])
            else:
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    member = None
                    while member != node:
                        member = stack.pop()
                        component[member] = node
    return component


def _cycle_through(seed: DependencyEdge, out: Dict[int, List[DependencyEdge]],
                   component: Dict[int, int]) -> List[DependencyEdge]:
    """``seed``, then the shortest path back to its ``src`` in its component."""
    home = component[seed.src]
    via: Dict[int, Optional[DependencyEdge]] = {seed.dst: None}
    queue = deque([seed.dst])
    while seed.src not in via:
        for edge in out[queue.popleft()]:
            if edge.dst not in via and component[edge.dst] == home:
                via[edge.dst] = edge
                queue.append(edge.dst)
    path, hop = [], via[seed.src]
    while hop is not None:
        path.append(hop)
        hop = via[hop.src]
    return [seed, *reversed(path)]
