"""The Figure 2 lattice: a partial order of model strength.

Figure 2 of the paper draws the achievable (HA), sticky available, and
unavailable models with directed edges "representing ordering by model
strength".  Incomparable models can be achieved simultaneously, and "the
availability of a combination of models has the availability of the least
available individual model".

This module encodes the figure's edges, exposes order queries (stronger-than,
comparability, upper bounds), computes the availability of arbitrary model
combinations, and counts the antichains of the HAT sub-order — the paper
notes the diagram "depicts 144 possible HAT combinations".
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import networkx as nx

from repro.errors import TaxonomyError
from repro.taxonomy.models import (
    AVAILABLE,
    MODELS,
    STICKY,
    UNAVAILABLE,
    model,
)

#: Directed edges (weaker -> stronger) transcribed from Figure 2.
FIGURE_2_EDGES: List[Tuple[str, str]] = [
    # Isolation ladder.
    ("RU", "RC"),
    ("RC", "MAV"),
    ("RC", "CS"),
    ("MAV", "RR"),
    ("CS", "RR"),
    ("I-CI", "P-CI"),
    ("I-CI", "RR"),
    ("P-CI", "SI"),
    ("MAV", "SI"),
    ("RR", "1SR"),
    ("SI", "1SR"),
    # Session guarantees.
    ("MR", "PRAM"),
    ("MW", "PRAM"),
    ("RYW", "PRAM"),
    ("WFR", "Causal"),
    ("PRAM", "Causal"),
    ("Causal", "1SR"),
    # Register / recency semantics.
    ("Recency", "Safe"),
    ("Safe", "Regular"),
    ("Regular", "Linearizable"),
    ("Linearizable", "Strong-1SR"),
    ("1SR", "Strong-1SR"),
]


class HATLattice:
    """Queries over the Figure 2 partial order."""

    def __init__(self, graph: nx.DiGraph):
        if not nx.is_directed_acyclic_graph(graph):
            raise TaxonomyError("the model order must be acyclic")
        self.graph = graph
        self._closure = nx.transitive_closure(graph, reflexive=False)

    # -- order queries ---------------------------------------------------------
    def stronger_than(self, a: str, b: str) -> bool:
        """Is model ``a`` strictly stronger than model ``b``?"""
        self._validate(a, b)
        return self._closure.has_edge(b, a)

    def weaker_than(self, a: str, b: str) -> bool:
        """Is model ``a`` strictly weaker than model ``b``?"""
        return self.stronger_than(b, a)

    def comparable(self, a: str, b: str) -> bool:
        """Are the two models ordered at all (either direction)?"""
        self._validate(a, b)
        return a == b or self.stronger_than(a, b) or self.stronger_than(b, a)

    def all_stronger(self, code: str) -> Set[str]:
        """Every model strictly stronger than ``code``."""
        self._validate(code)
        return set(self._closure.successors(code))

    def all_weaker(self, code: str) -> Set[str]:
        """Every model strictly weaker than ``code``."""
        self._validate(code)
        return set(self._closure.predecessors(code))

    def maximal_models(self) -> List[str]:
        """Models with no stronger model (the top of the order)."""
        return sorted(n for n in self.graph.nodes if self.graph.out_degree(n) == 0)

    def minimal_models(self) -> List[str]:
        """Models with no weaker model (the bottom of the order)."""
        return sorted(n for n in self.graph.nodes if self.graph.in_degree(n) == 0)

    # -- combinations ---------------------------------------------------------------
    @staticmethod
    def combination_availability(codes: Iterable[str]) -> str:
        """Availability of simultaneously providing several models.

        "The availability of a combination of models has the availability of
        the least available individual model." (Figure 2 caption)  The rule
        reads only Table 3's classes, not the edges, so it needs no built
        lattice: the protocol registry classifies every spec through it.
        """
        ranking = {AVAILABLE: 0, STICKY: 1, UNAVAILABLE: 2}
        worst = AVAILABLE
        for code in codes:
            availability = model(code).availability
            if ranking[availability] > ranking[worst]:
                worst = availability
        return worst

    def is_antichain(self, codes: Iterable[str]) -> bool:
        """True when no model in ``codes`` is comparable to another."""
        codes = list(codes)
        for a, b in combinations(codes, 2):
            if self.comparable(a, b):
                return False
        return True

    def hat_combinations(self) -> List[FrozenSet[str]]:
        """All non-empty antichains of HAT-compliant (HA or sticky) models.

        The paper's Figure 2 caption counts 144 such combinations for the
        models it depicts; the exact number depends on which nodes one treats
        as combinable, so the count is exposed rather than hard-coded.
        """
        hat_codes = sorted(
            code for code, m in MODELS.items()
            if m.availability in (AVAILABLE, STICKY) and code in self.graph
        )
        antichains: List[FrozenSet[str]] = []
        for size in range(1, len(hat_codes) + 1):
            for subset in combinations(hat_codes, size):
                if self.is_antichain(subset):
                    antichains.append(frozenset(subset))
        return antichains

    def strongest_hat_combination(self) -> Set[str]:
        """The maximal HAT models: combining them all is still achievable.

        Section 5.3: "If we combine all HAT and sticky guarantees, we have
        transactional, causally consistent snapshot reads."
        """
        hat_codes = {
            code for code, m in MODELS.items()
            if m.availability in (AVAILABLE, STICKY) and code in self.graph
        }
        return {
            code for code in hat_codes
            if not any(other in hat_codes for other in self.all_stronger(code))
        }

    # -- misc -------------------------------------------------------------------------
    def _validate(self, *codes: str) -> None:
        for code in codes:
            if code not in self.graph:
                raise TaxonomyError(f"model {code!r} is not in the lattice")

    def edge_list(self) -> List[Tuple[str, str]]:
        return sorted(self.graph.edges())

    def __contains__(self, code: str) -> bool:
        return code in self.graph


def build_lattice() -> HATLattice:
    """Construct the Figure 2 lattice."""
    graph = nx.DiGraph()
    graph.add_nodes_from(MODELS)
    graph.add_edges_from(FIGURE_2_EDGES)
    return HATLattice(graph)
