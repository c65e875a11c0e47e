"""Unit tests for the transaction model."""

import pytest

from repro.db.transactions import (LIVE_STATUSES, Query, Transaction,
                                   TxnStatus, Update)
from repro.qc.contracts import QualityContract


def free_qc(lifetime=100.0):
    return QualityContract.free(lifetime=lifetime)


class TestTransactionBasics:
    def test_ids_are_unique_and_increasing(self):
        a = Update(0.0, 1.0, "X")
        b = Update(0.0, 1.0, "X")
        assert b.txn_id > a.txn_id

    def test_exec_time_must_be_positive(self):
        with pytest.raises(ValueError):
            Update(0.0, 0.0, "X")
        with pytest.raises(ValueError):
            Query(0.0, -1.0, ("A",), free_qc())

    def test_initial_state(self):
        update = Update(5.0, 2.0, "X")
        assert update.status is TxnStatus.CREATED
        assert update.remaining == 2.0
        assert update.restarts == 0
        assert update.alive

    def test_response_time_requires_finish(self):
        update = Update(5.0, 2.0, "X")
        with pytest.raises(ValueError):
            update.response_time()
        update.finish_time = 9.0
        assert update.response_time() == 4.0

    def test_reset_for_restart(self):
        update = Update(0.0, 2.0, "X")
        update.remaining = 0.5
        update.reset_for_restart()
        assert update.remaining == 2.0
        assert update.restarts == 1

    def test_live_statuses(self):
        update = Update(0.0, 1.0, "X")
        for status in LIVE_STATUSES:
            update.status = status
            assert update.alive
        update.status = TxnStatus.COMMITTED
        assert update.done

    @pytest.mark.parametrize("status", list(TxnStatus))
    def test_live_flag_matches_live_statuses(self, status):
        # LIVE_STATUSES is the source of truth; the flag is derived.
        assert status.live is (status in LIVE_STATUSES)

    def test_class_flags_are_class_attributes(self):
        assert (Query.is_query, Query.is_update) == (True, False)
        assert (Update.is_query, Update.is_update) == (False, True)
        assert (Transaction.is_query, Transaction.is_update) == \
            (False, False)

    def test_touched_items_abstract(self):
        txn = Transaction.__new__(Transaction)
        Transaction.__init__(txn, 0.0, 1.0)
        with pytest.raises(NotImplementedError):
            txn.touched_items()


class TestQuery:
    def test_requires_items(self):
        with pytest.raises(ValueError):
            Query(0.0, 5.0, (), free_qc())

    def test_class_predicates(self):
        query = Query(0.0, 5.0, ("A",), free_qc())
        assert query.is_query and not query.is_update

    def test_lifetime_from_contract(self):
        query = Query(10.0, 5.0, ("A",), free_qc(lifetime=50.0))
        assert query.lifetime_deadline == 60.0
        assert not query.past_lifetime(60.0)
        assert query.past_lifetime(60.1)

    def test_explicit_lifetime_overrides(self):
        query = Query(10.0, 5.0, ("A",), free_qc(lifetime=50.0),
                      lifetime_deadline=99.0)
        assert query.lifetime_deadline == 99.0

    def test_items_are_tuple(self):
        query = Query(0.0, 5.0, ["A", "B"], free_qc())
        assert query.items == ("A", "B")
        assert query.touched_items() == ("A", "B")

    def test_total_profit(self):
        query = Query(0.0, 5.0, ("A",), free_qc())
        query.qos_profit = 3.0
        query.qod_profit = 4.0
        assert query.total_profit == 7.0


class TestUpdate:
    def test_class_predicates(self):
        update = Update(0.0, 1.0, "X")
        assert update.is_update and not update.is_query

    def test_touched_items_single(self):
        update = Update(0.0, 1.0, "X", value=9.0)
        assert update.touched_items() == ("X",)
        assert update.value == 9.0

    def test_seq_unassigned_until_registered(self):
        assert Update(0.0, 1.0, "X").seq == -1
