"""Property tests: the overload defenses' load-bearing guarantees.

The metastability artifact rests on two client-side mechanisms behaving
exactly as specified: the retry budget bounds sustained retry load to
``ratio`` times the offered load (never more than ``burst`` in a row), and
the circuit breaker's state machine never opens early, never admits while
open, and never loses an admitted request's outcome.  Both are pure
deterministic arithmetic, which is what makes them property-testable.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.overload.retry import CircuitBreaker, RetryBudget, RetryPolicy

ratios = st.floats(min_value=0.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False)
bursts = st.floats(min_value=1.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
#: A workload script: True = fresh request (deposit), False = retry attempt
#: (withdraw).
scripts = st.lists(st.booleans(), max_size=400)


class TestRetryBudget:
    @settings(max_examples=100, deadline=None)
    @given(ratio=ratios, burst=bursts, script=scripts)
    def test_withdrawals_bounded_by_burst_plus_ratio_of_deposits(
            self, ratio, burst, script):
        """Sustained retry load <= burst + ratio * fresh requests."""
        budget = RetryBudget(ratio, burst)
        for fresh in script:
            if fresh:
                budget.deposit()
            else:
                budget.withdraw()
        deposits = sum(1 for fresh in script if fresh)
        assert budget.withdrawals <= burst + ratio * deposits + 1e-6

    @settings(max_examples=100, deadline=None)
    @given(ratio=ratios, burst=bursts, script=scripts)
    def test_tokens_never_exceed_burst_nor_go_negative(
            self, ratio, burst, script):
        budget = RetryBudget(ratio, burst)
        for fresh in script:
            if fresh:
                budget.deposit()
            else:
                budget.withdraw()
            assert 0.0 <= budget.tokens <= burst + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(ratio=ratios, burst=bursts, script=scripts)
    def test_deterministic(self, ratio, burst, script):
        """Same script, same counters — no hidden randomness."""
        outcomes = []
        for _ in range(2):
            budget = RetryBudget(ratio, burst)
            granted = [budget.withdraw() if not fresh else budget.deposit()
                       for fresh in script]
            outcomes.append((granted, budget.tokens, budget.withdrawals,
                             budget.denials, budget.deposits))
        assert outcomes[0] == outcomes[1]

    def test_counters_reconcile(self):
        budget = RetryBudget(0.1, 2.0)
        for _ in range(50):
            budget.deposit()
            budget.withdraw()
        assert budget.withdrawals + budget.denials == 50
        # Ratio 0.1: after the burst of 2, only ~1 retry per 10 deposits.
        assert budget.withdrawals <= 2 + 0.1 * 50 + 1


#: A breaker script: (advance_ms, success) per admitted-or-denied attempt.
breaker_steps = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=500.0,
                        allow_nan=False, allow_infinity=False),
              st.booleans()),
    max_size=200)


class TestCircuitBreaker:
    @settings(max_examples=100, deadline=None)
    @given(threshold=st.integers(min_value=1, max_value=10),
           cooldown=st.floats(min_value=1.0, max_value=1_000.0,
                              allow_nan=False, allow_infinity=False),
           probes=st.integers(min_value=1, max_value=4),
           steps=breaker_steps)
    def test_state_machine_invariants(self, threshold, cooldown, probes,
                                      steps):
        """Drive the breaker through an arbitrary schedule and check:

        * it only ever occupies the three named states;
        * it never opens before ``threshold`` consecutive recorded failures;
        * while open, nothing is admitted until the cooldown elapsed;
        * half-open admits at most ``probes`` concurrent probes;
        * every admitted attempt can be recorded (no lost requests).
        """
        breaker = CircuitBreaker(threshold, cooldown, probes)
        now = 0.0
        consecutive_failures = 0
        admitted_probes = 0
        for advance, success in steps:
            now += advance
            state_before = breaker.state
            allowed = breaker.allow(now)
            if state_before == CircuitBreaker.OPEN and allowed:
                # An open breaker admits only by transitioning to half-open
                # after its cooldown.
                assert now - breaker.opened_at_ms >= 0.0
                assert breaker.state == CircuitBreaker.HALF_OPEN
            if not allowed:
                # Denied attempts are not recorded; they must not change
                # the breaker's mind.
                assert breaker.state in (CircuitBreaker.OPEN,
                                         CircuitBreaker.HALF_OPEN)
                continue
            if breaker.state == CircuitBreaker.HALF_OPEN:
                admitted_probes = breaker.probes_in_flight
                assert admitted_probes <= probes
            breaker.record(success, now)
            if breaker.state == CircuitBreaker.CLOSED:
                consecutive_failures = 0 if success else (
                    consecutive_failures + 1)
                # A closed breaker has, by definition, seen fewer than
                # ``threshold`` consecutive failures since the last reset.
                assert breaker.failures < threshold
            assert breaker.state in (CircuitBreaker.CLOSED,
                                     CircuitBreaker.OPEN,
                                     CircuitBreaker.HALF_OPEN)
        assert breaker.opens >= 0
        assert breaker.denials >= 0

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(3, cooldown_ms=100.0)
        for index in range(3):
            assert breaker.allow(float(index))
            breaker.record(False, float(index))
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker(3, cooldown_ms=100.0)
        for index in range(20):
            assert breaker.allow(float(index))
            # Two failures, one success, forever: never opens.
            breaker.record(index % 3 == 2, float(index))
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.opens == 0

    def test_open_denies_until_cooldown_then_probes(self):
        breaker = CircuitBreaker(1, cooldown_ms=100.0, half_open_probes=1)
        breaker.allow(0.0)
        breaker.record(False, 0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(50.0)
        assert breaker.denials == 1
        assert breaker.allow(100.0)  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow(100.0)  # second probe over the limit
        breaker.record(True, 101.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(1, cooldown_ms=100.0)
        breaker.allow(0.0)
        breaker.record(False, 0.0)
        assert breaker.allow(100.0)
        breaker.record(False, 100.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        # The cooldown restarts from the reopen.
        assert not breaker.allow(150.0)
        assert breaker.allow(200.0)


class TestRetryPolicyBackoff:
    @settings(max_examples=100, deadline=None)
    @given(attempt=st.integers(min_value=1, max_value=20),
           base=st.floats(min_value=0.1, max_value=500.0,
                          allow_nan=False, allow_infinity=False),
           cap=st.floats(min_value=0.1, max_value=5_000.0,
                         allow_nan=False, allow_infinity=False),
           jitter=st.floats(min_value=0.0, max_value=1.0,
                            allow_nan=False, allow_infinity=False),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_backoff_bounded_and_seed_deterministic(self, attempt, base,
                                                    cap, jitter, seed):
        policy = RetryPolicy(backoff_base_ms=base, backoff_cap_ms=cap,
                             jitter=jitter)
        delay = policy.backoff_ms(attempt, random.Random(seed))
        again = policy.backoff_ms(attempt, random.Random(seed))
        assert delay == again
        assert 0.0 <= delay <= cap
        # The deterministic floor: at least (1 - jitter) of the capped base.
        floor = min(cap, base * 2.0 ** (attempt - 1)) * (1.0 - jitter)
        assert delay >= floor - 1e-9

    def test_client_kwargs_per_protocol(self):
        policy = RetryPolicy(rpc_timeout_ms=2_000.0, lock_timeout_ms=1_000.0)
        assert policy.client_kwargs("eventual") == {"rpc_timeout_ms": 2_000.0}
        # The lock deadline follows the base protocol, not the spelling.
        for spelling in ("lock-sr", "2pl", "two-phase-locking"):
            assert policy.client_kwargs(spelling) == {
                "rpc_timeout_ms": 2_000.0, "lock_timeout_ms": 1_000.0}
        assert RetryPolicy().client_kwargs("eventual") == {}
