"""Unit tests for the Section 6.2 TPC-C HAT-compliance analysis."""

from repro.workloads.tpcc import (
    DELIVERY,
    NEW_ORDER,
    ORDER_STATUS,
    PAYMENT,
    STOCK_LEVEL,
)
from repro.workloads.tpcc_analysis import (
    TPCC_TRANSACTION_PROFILES,
    hat_compliance_table,
    hat_executable_count,
)


class TestProfiles:
    def test_four_of_five_hat_executable(self):
        executable, total = hat_executable_count()
        assert (executable, total) == (4, 5)

    def test_read_only_transactions_are_hat(self):
        assert TPCC_TRANSACTION_PROFILES[ORDER_STATUS].hat_executable
        assert TPCC_TRANSACTION_PROFILES[STOCK_LEVEL].hat_executable
        assert TPCC_TRANSACTION_PROFILES[ORDER_STATUS].read_only

    def test_payment_is_monotonic_and_needs_mav(self):
        payment = TPCC_TRANSACTION_PROFILES[PAYMENT]
        assert payment.monotonic and payment.hat_executable
        assert payment.weakest_sufficient_model == "MAV"

    def test_new_order_needs_lost_update_prevention_for_sequential_ids(self):
        new_order = TPCC_TRANSACTION_PROFILES[NEW_ORDER]
        assert new_order.requires_sequential_ids
        assert new_order.requires_lost_update_prevention
        assert new_order.hat_executable  # with unique (not sequential) ids

    def test_delivery_is_the_unavailable_transaction(self):
        delivery = TPCC_TRANSACTION_PROFILES[DELIVERY]
        assert not delivery.hat_executable
        assert delivery.weakest_sufficient_model == "1SR"

    def test_table_rendering(self):
        text = hat_compliance_table()
        for name in TPCC_TRANSACTION_PROFILES:
            assert name in text

