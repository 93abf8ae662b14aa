"""Protocol clients.

Each client exposes ``execute(transaction)`` returning a simulation process
whose value is a :class:`~repro.hat.transaction.TransactionResult`.  A HAT
client is always the same :class:`~repro.hat.clients.base.LayeredClient`
replica-access core under a stack of guarantee layers — which is exactly the
point the paper makes: the guarantees compose, and none of them ever waits on
cross-datacenter coordination.  The non-HAT baselines (master, two-phase
locking, quorum) must coordinate, and therefore remain bespoke subclasses of
:class:`~repro.hat.clients.base.ProtocolClient`.

:func:`build_client` is the registry's constructor: it parses a protocol
spec such as ``"mav+causal"`` and builds what the rows of
:mod:`repro.hat.protocols` say the spec is made of; a client learns its name
from the spec it was built for.
"""

from typing import Optional

from repro.hat.clients.base import (
    DEFAULT_VALUE_BYTES,
    LayeredClient,
    ProtocolClient,
)


def build_client(spec: str, node, recorder: Optional[object] = None,
                 value_bytes: int = DEFAULT_VALUE_BYTES,
                 sticky: bool = True, **kwargs) -> ProtocolClient:
    """Assemble the client for a protocol spec string.

    A spec over a HAT base becomes a :class:`LayeredClient` carrying the base
    row's core layers, then cut isolation if the spec names it, then one
    :class:`~repro.hat.layers.SessionLayer` built from all of its session
    tokens (their rows all name that class).  A coordinated base takes no
    layers — :func:`~repro.hat.protocols.parse_spec` rejects such specs —
    and its row's client class is constructed directly.
    """
    # The registry's rows name this package's client classes and the layers
    # over its core, so both are imported once the package exists.
    from repro.hat.protocols import (
        BASES, CUT_ISOLATION, LAYERS, ProtocolSpecError, parse_spec)

    parsed = parse_spec(spec)
    build = BASES[parsed.base].client
    if not isinstance(build, tuple):
        if not sticky:
            raise ProtocolSpecError(
                f"sticky=False with the coordinated base {parsed.base!r}: "
                "stickiness is a property of HAT stacks")
        return build(node, parsed.name, recorder=recorder,
                     value_bytes=value_bytes, **kwargs)
    layers = [layer_class() for layer_class in build]
    if parsed.cut_isolation:
        layers.append(LAYERS[CUT_ISOLATION].layer())
    if parsed.session:
        layers.append(LAYERS[parsed.session_layers[0]].layer(parsed.session))
    return LayeredClient(node, parsed.name, layers, sticky=sticky,
                         recorder=recorder, value_bytes=value_bytes, **kwargs)


__all__ = ["ProtocolClient", "LayeredClient", "build_client"]
