"""Unit tests for the 2PL-HP lock manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.locks import (AcquireOutcome, AcquireResult, LockManager,
                            LockMode)
from repro.db.transactions import Query, Update
from repro.qc.contracts import QualityContract


def query(items=("A",), at=0.0):
    return Query(arrival_time=at, exec_time=7.0, items=items,
                 qc=QualityContract.free())


def update(item="A", at=0.0):
    return Update(arrival_time=at, exec_time=2.0, item=item)


class TestGrants:
    def test_uncontended_read_grant(self):
        locks = LockManager()
        q = query(("A", "B"))
        result = locks.acquire_all(q, LockMode.READ)
        assert result.granted
        assert locks.locks_of(q) == {"A", "B"}
        assert locks.mode_of("A") is LockMode.READ

    def test_uncontended_write_grant(self):
        locks = LockManager()
        u = update("A")
        assert locks.acquire_all(u, LockMode.WRITE).granted
        assert locks.mode_of("A") is LockMode.WRITE

    def test_shared_reads_compatible(self):
        locks = LockManager()
        q1, q2 = query(("A",)), query(("A",))
        assert locks.acquire_all(q1, LockMode.READ).granted
        result = locks.acquire_all(q2, LockMode.READ).granted
        assert result
        assert locks.holders_of("A") == {q1, q2}
        assert locks.conflicts == 0

    def test_reacquire_own_locks_idempotent(self):
        """A resumed transaction re-acquires what it already holds."""
        locks = LockManager()
        q = query(("A", "B"))
        locks.acquire_all(q, LockMode.READ)
        result = locks.acquire_all(q, LockMode.READ)
        assert result.granted
        assert result.restarted == ()
        assert locks.locks_of(q) == {"A", "B"}


class TestConflictResolution:
    def test_high_priority_requester_restarts_holder(self):
        locks = LockManager(has_priority=lambda r, h: True)
        q = query(("A",))
        u = update("A")
        locks.acquire_all(q, LockMode.READ)
        result = locks.acquire_all(u, LockMode.WRITE)
        assert result.granted
        assert result.restarted == (q,)
        assert locks.locks_of(q) == frozenset()
        assert locks.holders_of("A") == {u}
        assert locks.restarts_caused == 1

    def test_low_priority_requester_blocks(self):
        locks = LockManager(has_priority=lambda r, h: False)
        q = query(("A",))
        u = update("A")
        locks.acquire_all(q, LockMode.READ)
        result = locks.acquire_all(u, LockMode.WRITE)
        assert result.outcome is AcquireOutcome.BLOCKED
        assert result.blocking_holders == (q,)
        # Nothing acquired for the blocked requester.
        assert locks.locks_of(u) == frozenset()
        assert locks.holders_of("A") == {q}
        assert locks.blocks_caused == 1

    def test_write_blocks_read_when_holder_outranks(self):
        locks = LockManager(has_priority=lambda r, h: False)
        u = update("A")
        q = query(("A",))
        locks.acquire_all(u, LockMode.WRITE)
        result = locks.acquire_all(q, LockMode.READ)
        assert not result.granted

    def test_multiple_holders_all_restarted(self):
        locks = LockManager()
        q1, q2 = query(("A",)), query(("A",))
        locks.acquire_all(q1, LockMode.READ)
        locks.acquire_all(q2, LockMode.READ)
        result = locks.acquire_all(update("A"), LockMode.WRITE)
        assert result.granted
        assert set(result.restarted) == {q1, q2}

    def test_mixed_blockers_and_losers_block_wins(self):
        """If any conflicting holder outranks the requester, nothing is
        restarted and the requester blocks."""
        q1, q2 = query(("A",)), query(("A",))
        # q1 outranks everything, q2 outranks nothing.
        locks = LockManager(
            has_priority=lambda r, h: h is q2)
        locks.acquire_all(q1, LockMode.READ)
        locks.acquire_all(q2, LockMode.READ)
        result = locks.acquire_all(update("A"), LockMode.WRITE)
        assert not result.granted
        assert q1 in result.blocking_holders
        # The weaker holder must NOT have been restarted.
        assert locks.holders_of("A") == {q1, q2}

    def test_conflict_counter_increments(self):
        locks = LockManager()
        locks.acquire_all(query(("A",)), LockMode.READ)
        locks.acquire_all(update("A"), LockMode.WRITE)
        assert locks.conflicts == 1


class TestRelease:
    def test_release_all_frees_keys(self):
        locks = LockManager()
        q = query(("A", "B"))
        locks.acquire_all(q, LockMode.READ)
        freed = locks.release_all(q)
        assert freed == {"A", "B"}
        assert locks.holders_of("A") == frozenset()
        assert locks.mode_of("A") is None

    def test_release_unknown_txn_is_noop(self):
        locks = LockManager()
        assert locks.release_all(query()) == frozenset()

    def test_release_one_shared_reader_keeps_entry(self):
        locks = LockManager()
        q1, q2 = query(("A",)), query(("A",))
        locks.acquire_all(q1, LockMode.READ)
        locks.acquire_all(q2, LockMode.READ)
        locks.release_all(q1)
        assert locks.holders_of("A") == {q2}

    def test_grant_after_release(self):
        locks = LockManager(has_priority=lambda r, h: False)
        q = query(("A",))
        u = update("A")
        locks.acquire_all(q, LockMode.READ)
        assert not locks.acquire_all(u, LockMode.WRITE).granted
        locks.release_all(q)
        assert locks.acquire_all(u, LockMode.WRITE).granted


class TestPriorityPredicateSwap:
    def test_set_priority_predicate(self):
        locks = LockManager(has_priority=lambda r, h: False)
        locks.acquire_all(query(("A",)), LockMode.READ)
        assert not locks.acquire_all(update("A"), LockMode.WRITE).granted
        locks.set_priority_predicate(lambda r, h: True)
        assert locks.acquire_all(update("A"), LockMode.WRITE).granted


class TestUncontendedFastPath:
    def test_uncontended_grants_share_one_immutable_result(self):
        locks = LockManager()
        first = locks.acquire_all(query(("A", "B")), LockMode.READ)
        second = locks.acquire_all(update("C"), LockMode.WRITE)
        assert first is second
        assert first.granted and first.restarted == ()
        with pytest.raises(AttributeError):
            first.restarted = (query(),)  # type: ignore[misc]


# ----------------------------------------------------------------------
# Equivalence with the pre-fast-path lock manager
# ----------------------------------------------------------------------
class _ReferenceEntry:
    __slots__ = ("mode", "holders")

    def __init__(self):
        self.mode = LockMode.READ
        self.holders = set()


class _ReferenceLockManager:
    """The 2PL-HP lock manager as it was before the uncontended fast
    path: every request walks the full conflict scan.  The one
    deliberate difference from that version is that holders are
    visited in txn_id order, not in (identity-)hash order."""

    def __init__(self, has_priority):
        self._table = {}
        self._held = {}
        self._has_priority = has_priority
        self.conflicts = 0
        self.restarts_caused = 0
        self.blocks_caused = 0

    def acquire_all(self, txn, mode):
        keys = txn.touched_items()
        to_restart = []
        blockers = []
        for key in keys:
            entry = self._table.get(key)
            if entry is None or not entry.holders:
                continue
            if (entry.mode is LockMode.READ and mode is LockMode.READ) \
                    or entry.holders == {txn}:
                continue
            for holder in sorted(entry.holders, key=lambda t: t.txn_id):
                if holder is txn:
                    continue
                self.conflicts += 1
                if self._has_priority(txn, holder):
                    to_restart.append(holder)
                else:
                    blockers.append(holder)
        if blockers:
            self.blocks_caused += 1
            return AcquireResult(AcquireOutcome.BLOCKED,
                                 blocking_holders=tuple(dict.fromkeys(
                                     blockers)))
        restarted = tuple(dict.fromkeys(to_restart))
        for loser in restarted:
            self.release_all(loser)
            self.restarts_caused += 1
        for key in keys:
            entry = self._table.get(key)
            if entry is None:
                entry = _ReferenceEntry()
                self._table[key] = entry
            if not entry.holders:
                entry.mode = mode
            entry.holders.add(txn)
            if mode is LockMode.WRITE:
                entry.mode = LockMode.WRITE
        self._held.setdefault(txn, set()).update(keys)
        return AcquireResult(AcquireOutcome.GRANTED, restarted=restarted)

    def release_all(self, txn):
        keys = self._held.pop(txn, set())
        for key in keys:
            entry = self._table.get(key)
            if entry is None:
                continue
            entry.holders.discard(txn)
            if not entry.holders:
                del self._table[key]
        return frozenset(keys)


def _lock_state(manager):
    table = {key: (entry.mode, frozenset(entry.holders))
             for key, entry in manager._table.items()}
    held = {txn: frozenset(keys) for txn, keys in manager._held.items()}
    return (table, held, manager.conflicts, manager.restarts_caused,
            manager.blocks_caused)


_KEYS = ("A", "B", "C", "D")
_TXNS = st.lists(
    st.one_of(st.tuples(st.just("update"), st.sampled_from(_KEYS)),
              st.tuples(st.just("query"),
                        st.lists(st.sampled_from(_KEYS), min_size=1,
                                 max_size=4))),
    min_size=2, max_size=6)
_OPS = st.lists(
    st.tuples(st.sampled_from(("acquire", "release", "restart")),
              st.integers(min_value=0, max_value=5),
              st.sampled_from((LockMode.READ, LockMode.WRITE))),
    max_size=40)


class TestMatchesReference:
    @given(specs=_TXNS, ops=_OPS,
           outranks=st.sets(st.tuples(st.integers(0, 5),
                                      st.integers(0, 5))))
    @settings(max_examples=300, deadline=None)
    def test_same_state_and_results_as_reference(self, specs, ops,
                                                 outranks):
        txns = [update(arg) if kind == "update" else query(tuple(arg))
                for kind, arg in specs]
        index = {txn: i for i, txn in enumerate(txns)}

        def has_priority(requester, holder):
            return (index[requester], index[holder]) in outranks

        locks = LockManager(has_priority)
        reference = _ReferenceLockManager(has_priority)
        for op, which, mode in ops:
            txn = txns[which % len(txns)]
            if op in ("release", "restart"):
                assert locks.release_all(txn) == \
                    reference.release_all(txn)
            if op in ("acquire", "restart"):
                got = locks.acquire_all(txn, mode)
                want = reference.acquire_all(txn, mode)
                assert tuple(got) == tuple(want)
            assert _lock_state(locks) == _lock_state(reference)
