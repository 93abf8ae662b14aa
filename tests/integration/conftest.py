"""The one way an integration test checks a recorded history."""

import pytest

from repro.hat.protocols import verify_claims


@pytest.fixture
def claims_hold():
    """Callable fixture: ``claims_hold(spec, history)`` asserts that the
    history keeps every model the spec claims, printing the broken reports."""
    def check(spec, history):
        broken = [str(c) for c in verify_claims(spec, history).values() if c.broken]
        assert not broken, "\n".join(broken)
    return check
