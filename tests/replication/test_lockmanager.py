"""Unit tests for the exclusive lock manager."""

from repro.replication.lockmanager import LockManager


class TestLockManager:
    def test_free_lock_granted_immediately(self):
        locks = LockManager()
        grants = []
        assert locks.acquire("x", 1, lambda: grants.append(1)) is True
        assert grants == [1]
        assert locks.holder("x") == 1

    def test_reentrant_acquire_by_same_txn(self):
        locks = LockManager()
        grants = []
        locks.acquire("x", 1, lambda: grants.append("first"))
        assert locks.acquire("x", 1, lambda: grants.append("again")) is True
        assert grants == ["first", "again"]

    def test_conflicting_acquire_waits(self):
        locks = LockManager()
        grants = []
        locks.acquire("x", 1, lambda: grants.append(1))
        assert locks.acquire("x", 2, lambda: grants.append(2)) is False
        assert grants == [1]
        assert locks.stats.waited == 1

    def test_release_grants_next_waiter_fifo(self):
        locks = LockManager()
        grants = []
        locks.acquire("x", 1, lambda: grants.append(1))
        locks.acquire("x", 2, lambda: grants.append(2))
        locks.acquire("x", 3, lambda: grants.append(3))
        locks.release("x", 1)
        assert grants == [1, 2]
        assert locks.holder("x") == 2
        locks.release("x", 2)
        assert grants == [1, 2, 3]

    def test_release_by_non_holder_is_noop(self):
        locks = LockManager()
        locks.acquire("x", 1, lambda: None)
        assert locks.release("x", 99) is False
        assert locks.holder("x") == 1

    def test_release_purges_queued_request_of_releaser(self):
        locks = LockManager()
        grants = []
        locks.acquire("x", 1, lambda: grants.append(1))
        locks.acquire("x", 2, lambda: grants.append(2))
        # Transaction 2 gives up while still queued (e.g. a timeout abort).
        locks.release("x", 2)
        locks.release("x", 1)
        assert locks.holder("x") is None
        assert grants == [1]

    def test_cancel_removes_waiter(self):
        locks = LockManager()
        grants = []
        locks.acquire("x", 1, lambda: grants.append(1))
        locks.acquire("x", 2, lambda: grants.append(2))
        locks.cancel("x", 2)
        locks.release("x", 1)
        assert grants == [1]
        assert locks.holder("x") is None

    def test_release_frees_lock_when_no_waiters(self):
        locks = LockManager()
        locks.acquire("x", 1, lambda: None)
        locks.release("x", 1)
        assert locks.holder("x") is None

    def test_held_keys(self):
        locks = LockManager()
        locks.acquire("x", 1, lambda: None)
        locks.acquire("y", 1, lambda: None)
        locks.acquire("z", 2, lambda: None)
        assert [key for key in "xyz" if locks.holder(key) == 1] == ["x", "y"]

    def test_stats_counters(self):
        locks = LockManager()
        locks.acquire("x", 1, lambda: None)
        locks.acquire("x", 2, lambda: None)
        locks.release("x", 1)
        assert locks.stats.acquired == 2
        assert locks.stats.waited == 1
        assert locks.stats.released == 1
