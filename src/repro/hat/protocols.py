"""The protocol registry: one table of guarantees, and what derives from it.

The paper's central result is that HAT guarantees *compose*: Read Committed,
Monotonic Atomic View, cut isolation, and the four session guarantees can be
stacked, and causal consistency (all four session guarantees) plus MAV is the
strongest combination achievable with sticky availability (Sections 4-5,
Figure 2).  This module makes that composition addressable by name.  A
*protocol spec* is a ``+``-separated string:

* at most one **base** (a row of :data:`BASES`): ``eventual`` (alias ``ru``),
  ``read-committed`` (alias ``rc``), ``mav``, or one of the coordinated
  baselines ``master``, ``two-phase-locking`` (alias ``2pl``), ``quorum``.
  Omitting the base means ``eventual``.
* any number of **layers** (rows of :data:`LAYERS`): ``ci`` (item + predicate
  cut isolation) and the session guarantees ``mr``, ``mw``, ``wfr``, ``ryw``;
  a **bundle** (a row of :data:`BUNDLES`) names several at once — ``pram``
  (= mr+mw+ryw), ``causal`` / ``session`` (= mr+mw+wfr+ryw).

Each guarantee is stated once, as its row: its tokens, the Table 3 model
codes it claims, the words that describe it, the class that implements it.
The rest is read off the rows and :mod:`repro.taxonomy`: canonical names, the
codes and the availability of a stack ("the availability of a combination of
models has the availability of the least available individual model"),
whether layers may stack on a base at all (not on one Table 3 marks
unavailable, so ``master+ryw`` is rejected), the :class:`Protocol` of any
spec, and the client :func:`~repro.hat.clients.build_client` assembles.  To
add a guarantee, write its layer class (a session guarantee: a row of
:data:`~repro.hat.layers.SESSION_ROWS`) and add its row.

What a stack claims is answered once, here: :func:`claimed_levels` closes
its codes downward through Figure 2, and :func:`verify_claims` reads each
claim's verdict on a recorded history off one Adya checker pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple, Union

from repro.adya.history import History
from repro.adya.levels import CheckReport, check_all_levels
from repro.errors import ReproError
from repro.hat.clients.locking import TwoPhaseLockingClient
from repro.hat.clients.master import MasterClient
from repro.hat.clients.quorum import QuorumClient
from repro.hat.layers import (
    AtomicVisibilityLayer,
    CutIsolationLayer,
    SessionLayer,
    WriteBufferingLayer,
)
from repro.taxonomy.models import (
    AVAILABLE,
    MODELS,
    UNAVAILABLE,
    combination_availability,
)


@dataclass(frozen=True)
class Base:
    """A base protocol: what the layers of a spec stack on."""

    aliases: Tuple[str, ...]
    #: Table 3 / Figure 2 model codes the base implements.
    models: Tuple[str, ...]
    isolation: str
    description: str
    #: What builds its client: the core layer classes a
    #: :class:`~repro.hat.clients.base.LayeredClient` carries under any
    #: stacked layers, or the coordinated client class.
    client: Union[Tuple[type, ...], type]


@dataclass(frozen=True)
class Layer:
    """A guarantee that stacks on a HAT base."""

    aliases: Tuple[str, ...]
    models: Tuple[str, ...]
    title: str
    layer: type


@dataclass(frozen=True)
class Bundle:
    """A token for several session guarantees, and the code they earn together."""

    aliases: Tuple[str, ...]
    #: The model a session holding every member implements.
    earns: str
    title: str

    @cached_property
    def members(self) -> FrozenSet[str]:
        """The layers whose models the earned one entails — Figure 2, and
        Section 5.1.3: PRAM = MR + MW + RYW; causal consistency = PRAM + WFR."""
        entailed = MODELS[self.earns].all_weaker
        return frozenset(token for token, row in LAYERS.items()
                         if entailed.issuperset(row.models))


EVENTUAL = "eventual"
READ_COMMITTED = "read-committed"
MAV = "mav"
MASTER = "master"
TWO_PHASE_LOCKING = "two-phase-locking"
QUORUM = "quorum"
CUT_ISOLATION = "ci"

BASES: Dict[str, Base] = {
    EVENTUAL: Base(
        ("ru",), ("RU",), "Read Uncommitted (last-writer-wins)",
        "Writes apply immediately at any replica; anti-entropy converges "
        "replicas (paper Section 5.1.1, 'eventual').",
        ()),
    READ_COMMITTED: Base(
        ("rc",), ("RC",), "Read Committed",
        "Clients buffer writes until commit so no reader observes "
        "uncommitted data (paper Section 5.1.1, 'RC').",
        (WriteBufferingLayer,)),
    MAV: Base(
        (), ("RC", "MAV"), "Monotonic Atomic View",
        "Two-phase pending/good visibility with per-transaction sibling "
        "metadata (paper Section 5.1.2 and Appendix B).",
        (AtomicVisibilityLayer,)),
    MASTER: Base(
        (), ("Linearizable",), "Per-key linearizable (single-key 'read latest')",
        "All operations for a key route to its designated master replica "
        "(paper Section 6.3, 'master').",
        MasterClient),
    TWO_PHASE_LOCKING: Base(
        ("2pl", "lock-sr"), ("1SR",), "One-copy serializable",
        "Distributed two-phase locking with two-phase commit "
        "(paper Section 6.1/6.3 baseline).",
        TwoPhaseLockingClient),
    QUORUM: Base(
        (), ("Regular",), "Regular register semantics per key",
        "Read/write majority quorums as in Dynamo (paper Section 6.3).",
        QuorumClient),
}

#: In canonical stacking (and spelling) order.
LAYERS: Dict[str, Layer] = {
    CUT_ISOLATION: Layer(("cut-isolation",), ("I-CI", "P-CI"),
                         "item/predicate cut isolation", CutIsolationLayer),
    "mr": Layer((), ("MR",), "monotonic reads", SessionLayer),
    "mw": Layer((), ("MW",), "monotonic writes", SessionLayer),
    "wfr": Layer((), ("WFR",), "writes follow reads", SessionLayer),
    "ryw": Layer((), ("RYW",), "read your writes", SessionLayer),
}

BUNDLES: Dict[str, Bundle] = {
    "pram": Bundle((), "PRAM", "PRAM"),
    "causal": Bundle(("session",), "Causal", "causal consistency"),
}

#: Stacks registered as first-class protocols (the paper's strongest HAT
#: combinations), with their descriptions.
COMPOSITES: Dict[str, str] = {
    "causal": "Causal consistency: all four session guarantees stacked on "
              "the eventual core; sticky available only (Section 5.1.3).",
    "mav+causal": "Monotonic Atomic View plus causal consistency — the "
                  "strongest sticky-available combination of Section 5.3.",
}

#: Session-guarantee layer tokens, in canonical stacking/spelling order.
SESSION_TOKENS: Tuple[str, ...] = tuple(
    token for token, row in LAYERS.items() if row.layer is SessionLayer)
PRAM_SET: FrozenSet[str] = BUNDLES["pram"].members
CAUSAL_SET: FrozenSet[str] = BUNDLES["causal"].members

_ALIASES: Dict[str, str] = {
    alias: token
    for table in (BASES, LAYERS, BUNDLES)
    for token, row in table.items()
    for alias in row.aliases
}


def _stackable(base: str) -> bool:
    """Layers stack on a base unless Table 3 marks its models unavailable."""
    return combination_availability(BASES[base].models) != UNAVAILABLE


HAT_PROTOCOLS: Tuple[str, ...] = tuple(b for b in BASES if _stackable(b))
COMPOSITE_PROTOCOLS: Tuple[str, ...] = tuple(COMPOSITES)
NON_HAT_PROTOCOLS: Tuple[str, ...] = tuple(b for b in BASES if not _stackable(b))
ALL_PROTOCOLS: Tuple[str, ...] = HAT_PROTOCOLS + COMPOSITE_PROTOCOLS + NON_HAT_PROTOCOLS


class ProtocolSpecError(ReproError, KeyError):
    """An unknown or contradictory protocol spec.

    Subclasses both :class:`~repro.errors.ReproError` (library convention)
    and :class:`KeyError` (the registry's historical lookup error).
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return str(self.args[0]) if self.args else ""


@dataclass(frozen=True)
class ProtocolSpec:
    """A parsed protocol spec: one base plus a set of guarantee layers."""

    base: str
    session: FrozenSet[str] = frozenset()
    cut_isolation: bool = False

    @property
    def session_layers(self) -> Tuple[str, ...]:
        """Session tokens in canonical stacking order."""
        return tuple(t for t in SESSION_TOKENS if t in self.session)

    @property
    def layer_tokens(self) -> Tuple[str, ...]:
        cut = (CUT_ISOLATION,) if self.cut_isolation else ()
        return cut + self.session_layers

    @property
    def bundle(self) -> Optional[str]:
        """The bundle token that spells exactly this session, if one does."""
        return next((token for token, row in BUNDLES.items()
                     if row.members == self.session), None)

    @property
    def name(self) -> str:
        """Canonical spec string; bundles compress (``mr+mw+wfr+ryw`` -> ``causal``)."""
        parts = [CUT_ISOLATION] if self.cut_isolation else []
        parts.extend([self.bundle] if self.bundle else self.session_layers)
        if self.base != EVENTUAL or not parts:
            parts.insert(0, self.base)
        return "+".join(parts)

    def model_codes(self) -> Tuple[str, ...]:
        """Table 3 model codes this spec claims to implement."""
        codes = list(BASES[self.base].models)
        for token in self.layer_tokens:
            codes.extend(LAYERS[token].models)
        codes.extend(row.earns for row in BUNDLES.values()
                     if self.session >= row.members)
        return tuple(codes)

    def availability(self) -> str:
        """Availability class of the stack: that of its least available model."""
        return combination_availability(self.model_codes())


def parse_spec(spec: str) -> ProtocolSpec:
    """Parse a ``+``-separated protocol spec into a :class:`ProtocolSpec`."""
    if not isinstance(spec, str) or not spec.strip():
        raise ProtocolSpecError(f"empty protocol spec {spec!r}")
    base = None
    layers = set()
    for raw in spec.split("+"):
        token = _ALIASES.get(raw.strip().lower(), raw.strip().lower())
        if not token:
            raise ProtocolSpecError(f"empty token in protocol spec {spec!r}")
        if token in BASES:
            if base is not None and base != token:
                raise ProtocolSpecError(
                    f"contradictory protocol spec {spec!r}: "
                    f"both {base!r} and {token!r} name a base protocol"
                )
            base = token
        elif token in BUNDLES:
            layers |= BUNDLES[token].members
        elif token in LAYERS:
            layers.add(token)
        else:
            bundles = sorted(
                [*BUNDLES, *(a for row in BUNDLES.values() for a in row.aliases)])
            raise ProtocolSpecError(
                f"unknown protocol token {token!r} in spec {spec!r}; expected a "
                f"base ({', '.join(BASES)}), a session guarantee "
                f"({', '.join(SESSION_TOKENS)}), a bundle "
                f"({', '.join(bundles)}), or {CUT_ISOLATION!r}"
            )
    base = base or EVENTUAL
    if layers and not _stackable(base):
        raise ProtocolSpecError(
            f"contradictory protocol spec {spec!r}: {base!r} is not even sticky "
            "available, so guarantee layers cannot stack on it (Table 3 — the "
            "availability of a combination is that of its least available member)"
        )
    return ProtocolSpec(base=base, session=frozenset(layers - {CUT_ISOLATION}),
                        cut_isolation=CUT_ISOLATION in layers)


@dataclass(frozen=True)
class Protocol:
    """Static description of one protocol configuration."""

    name: str
    isolation: str
    highly_available: bool
    sticky_available: bool
    description: str
    #: Base protocol of the guarantee stack (equals ``name`` for pure bases).
    base: str = ""
    #: Guarantee-layer tokens stacked on the base, in order.
    layers: Tuple[str, ...] = ()
    #: Table 3 model codes the configuration claims to implement.
    models: Tuple[str, ...] = ()


def protocol_info(name: str) -> Protocol:
    """The static description of a protocol spec, read off its rows."""
    spec = parse_spec(name)  # raises ProtocolSpecError (a KeyError) if invalid
    row = BASES[spec.base]
    titles = [LAYERS[token].title for token in spec.layer_tokens]
    isolation = row.isolation
    if spec.bundle:
        isolation += " + " + BUNDLES[spec.bundle].title
    elif spec.session:
        isolation += " + " + ", ".join(LAYERS[t].title for t in spec.session_layers)
    if spec.cut_isolation:
        isolation += " + cut isolation"
    if spec.name in COMPOSITES:
        description = COMPOSITES[spec.name]
    elif titles:
        description = (f"Guarantee stack over the {spec.base!r} core: "
                       f"{', '.join(titles)} (paper Sections 5.1.1-5.1.3).")
    else:
        description = row.description
    availability = spec.availability()
    return Protocol(
        name=spec.name,
        isolation=isolation,
        highly_available=availability == AVAILABLE,
        sticky_available=availability != UNAVAILABLE,
        description=description,
        base=spec.base,
        layers=spec.layer_tokens,
        models=spec.model_codes(),
    )


def claimed_levels(spec: str) -> FrozenSet[str]:
    """Every model ``spec`` claims: its codes, closed downward through Figure 2.

    Figure 2's one edge that is not containment of prohibited sets,
    ``Causal -> 1SR``, is followed like the others: ``two-phase-locking``
    claims ``Causal``, ``PRAM`` and the four session guarantees, so its
    histories are checked for N-MR, N-MW, MYR and MRWD too, although Adya's
    PL-3 prohibits none of them.
    """
    codes = parse_spec(spec).model_codes()
    return frozenset(codes).union(*(MODELS[code].all_weaker for code in codes))


class Claim(NamedTuple):
    """One model's row of :func:`verify_claims`."""

    code: str
    claimed: bool
    #: The history's report against the model; None when the model needs a
    #: recency guarantee, which a recorded history cannot show.
    report: Optional[CheckReport]

    @property
    def verdict(self) -> str:
        if self.report is None:
            return "uncheckable"
        return "held" if self.report.satisfied else "violated"

    @property
    def broken(self) -> bool:
        """A claimed model the history violates."""
        return self.claimed and self.verdict == "violated"

    def __str__(self) -> str:
        claim = "claimed" if self.claimed else "not claimed"
        body = self.report if self.report is not None else f"{self.code}: uncheckable"
        return f"[{claim}] {body}"


def verify_claims(spec: str, history: History) -> Dict[str, Claim]:
    """What ``spec`` claims of ``history``: one row per model, in table order.

    A row says whether the stack claims the model (:func:`claimed_levels`)
    and whether the history keeps it, with the witnesses if not; each is a
    lookup into one :func:`~repro.adya.levels.check_all_levels` pass.
    """
    claimed = claimed_levels(spec)
    reports = check_all_levels(history)
    return {code: Claim(code, code in claimed, reports.get(code)) for code in MODELS}
