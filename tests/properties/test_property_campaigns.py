"""Differential property: the canonical campaigns built from their phases
are the ones the hand-summed builders made, action for action, phase for
phase, and float for float.

``repro.chaos.campaign`` builds each canonical campaign with ``_phased``
(an action's ``at_ms`` is its offset into its phase) and one split helper.
The reference (``campaign_reference.py``) is the three builders as they
stood before.  Phase lengths are drawn as integers or floats, each builder
is run over two to five regions, and ``repr`` is compared as well as ``==``
so that an ``int`` boundary that became a ``float`` (or any float that
moved by an ulp) fails.  A one-region deployment is refused with the same
error text, which names its campaign.
"""

import pytest
from hypothesis import given, strategies as st

from repro.chaos import campaign as landed
from repro.chaos.campaign import CampaignError
import campaign_reference as reference

REGIONS = ["VA", "OR", "IR", "SP", "TO"]

#: A phase length: an integer or a finite float, from zero up.
lengths = st.one_of(st.integers(0, 10**7),
                    st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False))
regions = st.integers(2, len(REGIONS)).map(lambda count: REGIONS[:count])


def assert_same(built, expected):
    assert built == expected
    assert repr(built) == repr(expected)


@given(regions, lengths, lengths, lengths)
def test_partition_campaign_matches_the_reference(names, baseline, partition,
                                                  recovery):
    assert_same(
        landed.canonical_partition_campaign(
            names, baseline_ms=baseline, partition_ms=partition,
            recovery_ms=recovery),
        reference.canonical_partition_campaign(names, baseline, partition,
                                               recovery))


@given(regions, lengths, lengths, lengths, lengths, lengths)
def test_elasticity_campaign_matches_the_reference(names, baseline, scale_out,
                                                   partition, scale_in,
                                                   recovery):
    args = (names, "cluster0-VA", baseline, scale_out, partition, scale_in,
            recovery)
    assert_same(landed.canonical_elasticity_campaign(*args),
                reference.canonical_elasticity_campaign(*args))


@given(regions, lengths, lengths, lengths)
def test_staleness_campaign_matches_the_reference(names, healthy, partition,
                                                  rebalance):
    args = (names, "cluster0-VA", healthy, partition, rebalance)
    assert_same(landed.canonical_staleness_campaign(*args),
                reference.canonical_staleness_campaign(*args))


@pytest.mark.parametrize("name, extra", [
    ("canonical_partition_campaign", ()),
    ("canonical_elasticity_campaign", ("cluster0-VA",)),
    ("canonical_staleness_campaign", ("cluster0-VA",)),
])
def test_a_one_region_deployment_is_refused_with_the_reference_text(name, extra):
    with pytest.raises(CampaignError) as expected:
        getattr(reference, name)(["VA"], *extra)
    with pytest.raises(CampaignError) as built:
        getattr(landed, name)(["VA"], *extra)
    assert str(built.value) == str(expected.value)
