"""Tests for the Section 6.2 anomaly auditor over recorded histories."""

from repro.adya.history import HistoryBuilder
from repro.workloads.tpcc import district_next_oid_key, new_order_key
from repro.workloads.tpcc_audit import audit_tpcc_history
from repro.workloads.tpcc_driver import DELIVERED, PENDING


def new_order_txn(builder, w, d, oid, read_counter=None):
    t = builder.transaction()
    t.read(district_next_oid_key(w, d), value=read_counter or oid)
    t.write(new_order_key(w, d, oid), PENDING)
    t.write(district_next_oid_key(w, d), oid + 1)
    return t


def delivery_txn(builder, w, d, oid, observed_status):
    t = builder.transaction()
    t.read(new_order_key(w, d, oid), value=observed_status)
    t.write(new_order_key(w, d, oid), DELIVERED)
    return t


class TestOrderIdAudit:
    def test_clean_sequential_history(self):
        builder = HistoryBuilder()
        for oid in (1, 2, 3):
            new_order_txn(builder, 1, 1, oid)
        report = audit_tpcc_history(builder.build())
        assert report.orders_claimed == 3
        assert report.duplicate_order_ids == []
        assert report.gapped_order_ids == []

    def test_duplicate_claims_detected(self):
        builder = HistoryBuilder()
        new_order_txn(builder, 1, 1, 1)
        new_order_txn(builder, 1, 1, 1)  # concurrent claimant, stale read
        report = audit_tpcc_history(builder.build())
        assert report.duplicate_order_ids == [(1, 1, 1)]
        assert report.order_id_anomalies == 1

    def test_gaps_detected_below_the_high_water_mark(self):
        builder = HistoryBuilder()
        new_order_txn(builder, 1, 1, 1)
        new_order_txn(builder, 1, 1, 4)  # read a future counter: skipped 2, 3
        report = audit_tpcc_history(builder.build())
        assert report.gapped_order_ids == [(1, 1, 2), (1, 1, 3)]
        assert report.order_id_anomalies == 2

    def test_districts_audited_independently(self):
        builder = HistoryBuilder()
        new_order_txn(builder, 1, 1, 1)
        new_order_txn(builder, 1, 2, 1)  # same id, different district: fine
        report = audit_tpcc_history(builder.build())
        assert report.duplicate_order_ids == []

    def test_aborted_claims_ignored(self):
        builder = HistoryBuilder()
        new_order_txn(builder, 1, 1, 1)
        new_order_txn(builder, 1, 1, 1).abort()
        report = audit_tpcc_history(builder.build())
        assert report.duplicate_order_ids == []
        assert report.orders_claimed == 1


class TestDeliveryAudit:
    def test_single_billing_is_clean(self):
        builder = HistoryBuilder()
        new_order_txn(builder, 1, 1, 1)
        delivery_txn(builder, 1, 1, 1, observed_status=PENDING)
        report = audit_tpcc_history(builder.build())
        assert report.double_deliveries == []

    def test_two_billings_for_one_order_detected(self):
        builder = HistoryBuilder()
        new_order_txn(builder, 1, 1, 1)
        delivery_txn(builder, 1, 1, 1, observed_status=PENDING)
        delivery_txn(builder, 1, 1, 1, observed_status=PENDING)  # stale read
        report = audit_tpcc_history(builder.build())
        assert report.double_deliveries == [(1, 1, 1)]

    def test_idempotent_redelivery_not_counted(self):
        """A worker that read DELIVERED re-marks but does not bill."""
        builder = HistoryBuilder()
        new_order_txn(builder, 1, 1, 1)
        delivery_txn(builder, 1, 1, 1, observed_status=PENDING)
        delivery_txn(builder, 1, 1, 1, observed_status=DELIVERED)
        report = audit_tpcc_history(builder.build())
        assert report.double_deliveries == []

    def test_invisible_placeholder_counts_as_billing(self):
        """Reading no placeholder at all (None) still bills the customer."""
        builder = HistoryBuilder()
        new_order_txn(builder, 1, 1, 1)
        delivery_txn(builder, 1, 1, 1, observed_status=PENDING)
        delivery_txn(builder, 1, 1, 1, observed_status=None)
        report = audit_tpcc_history(builder.build())
        assert report.double_deliveries == [(1, 1, 1)]


class TestReportShape:
    def test_as_dict_is_json_safe(self):
        import json

        builder = HistoryBuilder()
        new_order_txn(builder, 1, 1, 1)
        new_order_txn(builder, 1, 1, 1)
        delivery_txn(builder, 1, 1, 1, observed_status=PENDING)
        report = audit_tpcc_history(builder.build())
        payload = json.loads(json.dumps(report.as_dict(), allow_nan=False))
        assert payload["orders_claimed"] == 2
        assert payload["duplicate_order_ids"] == 1
        assert payload["duplicates"] == [[1, 1, 1]]
        assert payload["double_deliveries"] == 0

    def test_empty_history(self):
        report = audit_tpcc_history(HistoryBuilder().build())
        assert report.order_id_anomalies == 0
        assert report.double_deliveries == []
        assert report.orders_claimed == 0
