"""The Figure 2 lattice: a partial order of model strength.

Figure 2 of the paper draws the achievable (HA), sticky available, and
unavailable models with directed edges "representing ordering by model
strength".  Incomparable models can be achieved simultaneously, and "the
availability of a combination of models has the availability of the least
available individual model".

The edges are the ``extends`` column of :data:`repro.taxonomy.models.MODELS`;
this module asks the order questions (stronger-than, comparability, bounds),
computes the availability of arbitrary model combinations, and counts the
antichains of the HAT sub-order — the paper notes the diagram "depicts 144
possible HAT combinations".
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, List, Set, Tuple

from repro.errors import TaxonomyError
from repro.taxonomy.models import (
    AVAILABLE,
    FIGURE_2_EDGES,
    MODELS,
    STICKY,
    UNAVAILABLE,
    model,
)


class HATLattice:
    """Queries over the Figure 2 partial order of :data:`MODELS`."""

    def __init__(self):
        for code, m in MODELS.items():
            if code in m.all_weaker:
                raise TaxonomyError("the model order must be acyclic")

    # -- order queries ---------------------------------------------------------
    def stronger_than(self, a: str, b: str) -> bool:
        """Is model ``a`` strictly stronger than model ``b``?"""
        self._validate(a, b)
        return b in MODELS[a].all_weaker

    def weaker_than(self, a: str, b: str) -> bool:
        """Is model ``a`` strictly weaker than model ``b``?"""
        return self.stronger_than(b, a)

    def comparable(self, a: str, b: str) -> bool:
        """Are the two models ordered at all (either direction)?"""
        return self.stronger_than(a, b) or self.stronger_than(b, a) or a == b

    def all_stronger(self, code: str) -> Set[str]:
        """Every model strictly stronger than ``code``."""
        self._validate(code)
        return {other for other, m in MODELS.items() if code in m.all_weaker}

    def all_weaker(self, code: str) -> Set[str]:
        """Every model strictly weaker than ``code``."""
        self._validate(code)
        return set(MODELS[code].all_weaker)

    def maximal_models(self) -> List[str]:
        """Models with no stronger model (the top of the order)."""
        return sorted(code for code in MODELS if not self.all_stronger(code))

    def minimal_models(self) -> List[str]:
        """Models with no weaker model (the bottom of the order)."""
        return sorted(code for code, m in MODELS.items() if not m.extends)

    # -- combinations ---------------------------------------------------------------
    @staticmethod
    def combination_availability(codes: Iterable[str]) -> str:
        """Availability of simultaneously providing several models.

        "The availability of a combination of models has the availability of
        the least available individual model." (Figure 2 caption)  The rule
        reads only Table 3's classes, not the edges, so it needs no built
        lattice: the protocol registry classifies every spec through it.
        """
        ranking = (AVAILABLE, STICKY, UNAVAILABLE)
        return max((model(code).availability for code in codes),
                   key=ranking.index, default=AVAILABLE)

    def is_antichain(self, codes: Iterable[str]) -> bool:
        """True when no model in ``codes`` is comparable to another."""
        return not any(self.comparable(a, b) for a, b in combinations(list(codes), 2))

    def hat_combinations(self) -> List[FrozenSet[str]]:
        """All non-empty antichains of HAT-compliant (HA or sticky) models.

        The paper's Figure 2 caption counts 144 such combinations for the
        models it depicts; the exact number depends on which nodes one treats
        as combinable, so the count is exposed rather than hard-coded.
        """
        hat_codes = sorted(code for code, m in MODELS.items() if m.is_hat)
        return [frozenset(subset)
                for size in range(1, len(hat_codes) + 1)
                for subset in combinations(hat_codes, size)
                if self.is_antichain(subset)]

    def strongest_hat_combination(self) -> Set[str]:
        """The maximal HAT models: combining them all is still achievable.

        Section 5.3: "If we combine all HAT and sticky guarantees, we have
        transactional, causally consistent snapshot reads."
        """
        hat_codes = {code for code, m in MODELS.items() if m.is_hat}
        return {code for code in hat_codes
                if not hat_codes & self.all_stronger(code)}

    # -- misc -------------------------------------------------------------------------
    def _validate(self, *codes: str) -> None:
        for code in codes:
            if code not in MODELS:
                raise TaxonomyError(f"model {code!r} is not in the lattice")

    def edge_list(self) -> List[Tuple[str, str]]:
        return sorted(FIGURE_2_EDGES)

    def __contains__(self, code: str) -> bool:
        return code in MODELS


def build_lattice() -> HATLattice:
    """Construct the Figure 2 lattice."""
    return HATLattice()
