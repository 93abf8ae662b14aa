"""Tests for the protocol registry: spec parsing, stacking, classification."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.adya.history import HistoryBuilder
from repro.errors import ReproError
from repro.hat.layers import SessionLayer
from repro.hat.protocols import (
    ALL_PROTOCOLS,
    BASES,
    BUNDLES,
    CAUSAL_SET,
    COMPOSITE_PROTOCOLS,
    EVENTUAL,
    HAT_PROTOCOLS,
    LAYERS,
    MAV,
    NON_HAT_PROTOCOLS,
    PRAM_SET,
    READ_COMMITTED,
    TWO_PHASE_LOCKING,
    ProtocolSpecError,
    claimed_levels,
    parse_spec,
    protocol_info,
    verify_claims,
)
from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.taxonomy.models import (
    AVAILABLE,
    MODELS,
    UNAVAILABLE,
    combination_availability,
)

PIN = Path(__file__).resolve().parent.parent / "data" / "golden_registry_pin.json"

CANONICAL_SPECS = [
    "eventual", "read-committed", "mav", "causal", "mav+causal",
    "mav+wfr", "mav+mr+wfr", "read-committed+ryw", "read-committed+ci+pram",
    "mr+wfr", "ci",
]
ALIAS_SPECS = ["ru", "rc", "2pl", "lock-sr", "cut-isolation", "session"]
#: Every spec the pin answers for, once each.
PINNED_SPECS = list(dict.fromkeys(
    [*ALL_PROTOCOLS, *CANONICAL_SPECS, *ALIAS_SPECS, "mav+ci+causal"]))
#: The specs ``TestSpecRejection`` rejects; the pin holds their messages.
REJECTED_SPECS = [
    "read-committed+hope", "bogus", "master+ryw", "quorum+mr",
    "two-phase-locking+causal", "master+ci", "mav+read-committed",
    "", "  ", "mav++mr",
]
HOOKS = ("plan", "begin", "serve_read", "before_read", "read_floor",
         "after_read", "finalize")


def registry_snapshot():
    """What the registry answers and assembles for every pinned spec."""
    testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=1))
    specs = {}
    for spec in PINNED_SPECS:
        parsed = parse_spec(spec)
        client = testbed.make_client(spec)
        assembled = {"protocol_name": client.protocol_name}
        if hasattr(client, "layers"):
            assembled.update(
                layers=[type(layer).__name__ for layer in client.layers],
                get_kind=client.get_kind, put_kind=client.put_kind,
                hooks={name: [hook.__self__.token
                              for hook in getattr(client, f"_{name}_hooks")]
                       for name in HOOKS})
        else:
            assembled["client_class"] = type(client).__name__
        specs[spec] = {
            "spec": {
                "base": parsed.base, "session": sorted(parsed.session),
                "cut_isolation": parsed.cut_isolation, "name": parsed.name,
                "session_layers": parsed.session_layers,
                "layer_tokens": parsed.layer_tokens,
                "model_codes": parsed.model_codes(),
                "availability": parsed.availability(),
            },
            "info": dataclasses.asdict(protocol_info(spec)),
            "client": assembled,
        }
    errors = {}
    for spec in REJECTED_SPECS:
        with pytest.raises(ProtocolSpecError) as raised:
            parse_spec(spec)
        errors[spec] = str(raised.value)
    return json.loads(json.dumps({"specs": specs, "errors": errors}))


def test_registry_answers_match_the_pin_taken_before_the_table():
    """Parsing, classification and client assembly answer what they did at
    the commit before the registry became one table — except the corrections
    the pin's header lists (the coordinated bases now claim the Table 3 code
    their isolation string names, so they classify as unavailable)."""
    pin = json.loads(PIN.read_text())
    expected = pin["specs"]
    for answers in expected.values():
        corrected = pin["header"]["corrections"].get(answers["spec"]["base"], {})
        for path, value in corrected.items():
            section, field = path.split(".")
            answers[section][field] = value
    head = registry_snapshot()
    assert head["specs"] == expected
    assert head["errors"] == pin["errors"]


class TestSpecParsing:
    @pytest.mark.parametrize("spec", CANONICAL_SPECS)
    def test_canonical_names_round_trip(self, spec):
        parsed = parse_spec(spec)
        assert parse_spec(parsed.name) == parsed
        # Canonicalising is idempotent.
        assert parse_spec(parsed.name).name == parsed.name

    def test_aliases_normalise(self):
        assert parse_spec("rc").base == READ_COMMITTED
        assert parse_spec("ru").base == EVENTUAL
        assert parse_spec("2pl").base == TWO_PHASE_LOCKING
        assert parse_spec("mav+cut-isolation").cut_isolation

    def test_layer_order_is_canonical(self):
        assert parse_spec("mav+wfr+mr").name == "mav+mr+wfr"
        assert parse_spec("wfr+mav+mr").name == "mav+mr+wfr"

    def test_causal_expands_to_all_four_session_guarantees(self):
        spec = parse_spec("causal")
        assert spec.base == EVENTUAL
        assert spec.session == CAUSAL_SET == frozenset({"mr", "mw", "wfr", "ryw"})
        assert spec.session_layers == ("mr", "mw", "wfr", "ryw")

    def test_pram_bundle(self):
        spec = parse_spec("mav+pram")
        assert spec.base == MAV
        assert spec.session == PRAM_SET == frozenset({"mr", "mw", "ryw"})

    def test_bundles_compress_in_canonical_names(self):
        assert parse_spec("mr+mw+wfr+ryw").name == "causal"
        assert parse_spec("mav+mr+mw+wfr+ryw").name == "mav+causal"
        assert parse_spec("mav+pram+wfr").name == "mav+causal"
        assert parse_spec("eventual+mr+mw+ryw").name == "pram"

    def test_base_defaults_to_eventual(self):
        assert parse_spec("mr+wfr").base == EVENTUAL


class TestSpecRejection:
    def test_unknown_token(self):
        with pytest.raises(ProtocolSpecError):
            parse_spec("read-committed+hope")

    def test_spec_error_is_both_repro_and_key_error(self):
        with pytest.raises(ReproError):
            parse_spec("bogus")
        with pytest.raises(KeyError):
            parse_spec("bogus")

    @pytest.mark.parametrize("spec", [
        "master+ryw", "quorum+mr", "two-phase-locking+causal", "master+ci",
    ])
    def test_layers_rejected_on_coordinated_bases(self, spec):
        """Session layers cannot stack on bases that are not sticky available."""
        with pytest.raises(ProtocolSpecError):
            parse_spec(spec)

    @pytest.mark.parametrize("base", NON_HAT_PROTOCOLS)
    def test_sticky_false_rejected_on_coordinated_bases(self, base):
        """``sticky`` used to be dropped silently for a coordinated client."""
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=1))
        with pytest.raises(ProtocolSpecError, match=base) as raised:
            testbed.make_client(base, sticky=False)
        assert "stickiness is a property of HAT stacks" in str(raised.value)
        assert testbed.env.pending_events == 0

    def test_two_bases_rejected(self):
        with pytest.raises(ProtocolSpecError):
            parse_spec("mav+read-committed")

    def test_empty_specs_rejected(self):
        for spec in ("", "  ", "mav++mr"):
            with pytest.raises(ProtocolSpecError):
                parse_spec(spec)

    def test_testbed_rejects_invalid_specs_as_repro_error(self):
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=1))
        with pytest.raises(ReproError):
            testbed.make_client("master+ryw")


class TestClassification:
    def test_causal_is_sticky_available_only(self):
        info = protocol_info("causal")
        assert info.sticky_available and not info.highly_available
        assert "Causal" in info.models and "RYW" in info.models

    def test_mav_causal_is_sticky_available_only(self):
        info = protocol_info("mav+causal")
        assert info.sticky_available and not info.highly_available
        assert "MAV" in info.models and "Causal" in info.models

    def test_ha_session_guarantees_stay_highly_available(self):
        """MR, MW, and WFR stack without giving up full high availability."""
        info = protocol_info("mav+mr+wfr")
        assert info.highly_available and info.sticky_available

    def test_ryw_makes_any_stack_sticky(self):
        info = protocol_info("read-committed+ryw")
        assert info.sticky_available and not info.highly_available

    def test_composites_are_first_class(self):
        for name in COMPOSITE_PROTOCOLS:
            assert name in ALL_PROTOCOLS
            assert protocol_info(name).name == name

    def test_derived_specs_are_classified_on_the_fly(self):
        info = protocol_info("mav+wfr+mr")
        assert info.base == MAV
        assert info.layers == ("mr", "wfr")


def assert_classified_by_the_lattice(spec):
    parsed = parse_spec(spec)
    expected = combination_availability(parsed.model_codes())
    assert parsed.availability() == expected
    claimed = claimed_levels(spec)  # downward closed, and classified alike
    assert all(MODELS[code].all_weaker <= claimed for code in claimed)
    assert combination_availability(claimed) == expected
    info = protocol_info(spec)
    assert info.highly_available == (expected == AVAILABLE)
    assert info.sticky_available == (expected != UNAVAILABLE)


class TestTableAgainstTable3:
    def test_every_code_a_row_names_is_a_table_3_model(self):
        named = {code for table in (BASES, LAYERS)
                 for row in table.values() for code in row.models}
        named |= {row.earns for row in BUNDLES.values()}
        assert named <= set(MODELS)
        assert all(row.members for row in BUNDLES.values())

    def test_stackable_specs_claim_exactly_the_hat_models(self):
        """Every HAT model of Table 3 is claimed by some spec, and a spec
        that accepts layers claims no unavailable one."""
        claimed = set()
        for base in HAT_PROTOCOLS:
            assert isinstance(BASES[base].client, tuple)  # built from layers
            claimed.update(parse_spec(f"{base}+ci+causal").model_codes())
        assert claimed == {code for code, model in MODELS.items() if model.is_hat}
        assert claimed == {"RU", "RC", "MAV", "I-CI", "P-CI",
                           "MR", "MW", "WFR", "RYW", "PRAM", "Causal"}

    @pytest.mark.parametrize("base", NON_HAT_PROTOCOLS)
    def test_coordinated_bases_are_unavailable(self, base):
        assert parse_spec(base).availability() == UNAVAILABLE
        assert not isinstance(BASES[base].client, tuple)  # a coordinated client

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_registered_names_are_classified_by_the_lattice(self, name):
        assert_classified_by_the_lattice(name)

    @given(base=st.sampled_from(sorted(BASES)),
           tokens=st.sets(st.sampled_from(sorted([*LAYERS, *BUNDLES]))))
    def test_any_token_subset_is_classified_by_the_lattice(self, base, tokens):
        spec = "+".join([base, *sorted(tokens)])
        if tokens and base in NON_HAT_PROTOCOLS:
            with pytest.raises(ProtocolSpecError):
                parse_spec(spec)
        else:
            assert_classified_by_the_lattice(spec)


def aborted_read_g1a():
    """App. A's G1a: T3 reads the write of T2, which aborts."""
    builder = HistoryBuilder()
    builder.transaction().write("x", 1)
    t2 = builder.transaction()
    t2.write("x", 3).abort()
    builder.transaction().read("x", from_txn=t2.txn_id, value=3)
    return builder.build()


class TestClaimsAgainstAHistory:
    @pytest.mark.parametrize("base", ["master", "quorum"])
    def test_register_claims_are_uncheckable(self, base):
        claims = verify_claims(base, aborted_read_g1a())
        assert {c.verdict for c in claims.values() if c.claimed} == {"uncheckable"}
        assert not any(c.broken for c in claims.values())

    def test_g1a_breaks_read_committed_but_not_read_uncommitted(self):
        claims = verify_claims("read-committed", aborted_read_g1a())
        assert claims["RC"].broken and claims["RC"].report.witness_count() >= 1
        assert claims["RU"].claimed and claims["RU"].verdict == "held"
        assert "G1a" in str(claims["RC"]) and not claims["MAV"].claimed

    def test_two_phase_locking_claims_the_session_guarantees_below_1sr(self):
        """Figure 2's ``Causal -> 1SR`` edge is followed: a 2PL history is
        checked for the session phenomena too."""
        claimed = claimed_levels(TWO_PHASE_LOCKING)
        assert {"Causal", "PRAM", "MR", "MW", "RYW", "WFR"} <= claimed
        assert len(claimed) == 15
        assert all(MODELS[code].prohibits is not None for code in claimed)


class TestStackedClients:
    def test_composite_client_executes_transactions(self):
        testbed = build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))
        client = testbed.make_client("mav+wfr+mr")
        assert client.protocol_name == "mav+mr+wfr"
        result = testbed.env.run_until_complete(client.execute(
            Transaction([Operation.write("x", 1), Operation.read("x")])
        ))
        assert result.committed and result.value_read("x") == 1
        assert result.protocol == "mav+mr+wfr"

    def test_session_layers_share_one_state(self):
        """The four session guarantees are one layer that owns the memory."""
        testbed = build_testbed(Scenario(regions=["VA"], servers_per_cluster=1))
        client = testbed.make_client("mav+causal")
        session_layers = [layer for layer in client.layers
                          if isinstance(layer, SessionLayer)]
        assert len(session_layers) == 1
        assert session_layers[0].state is client.session
