"""The per-table-version cluster cache: invalidation and equivalence.

``sorted_clusters`` memoizes a table's sorted clusters (and their column
stores) until the table's ``version`` moves.  Every test here compares
what a cached executor returns with a differential oracle,
``Executor(evaluator="row", codegen=False)``, run on a fresh copy of the
table, so a stale or shared-and-mutated cache entry shows up as a row or
diagnostic difference.
"""

from __future__ import annotations

import datetime as dt
import os
import pickle
import sys
import tempfile
import threading
import time

import pytest

from repro.engine.catalog import Catalog
from repro.engine.cluster import clusters_of, sorted_clusters
from repro.engine.columnar import load_columnar, write_columnar
from repro.engine.executor import Executor
from repro.engine.session import Session
from repro.engine.table import Table
from repro.pattern.predicates import AttributeDomains
from repro.resilience import Diagnostics

DOMAINS = AttributeDomains.prices()
SCHEMA = [("name", "str"), ("date", "date"), ("price", "float")]
BASE = dt.date(2000, 1, 3)

#: A double bottom per ticker: kernels lower every element, and the
#: uncounted scan takes its star-run and candidate-hop shortcuts.
DOUBLE_BOTTOM = (
    "SELECT X.name, X.date, Z.date FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, *Y, Z) WHERE Y.price < Y.previous.price "
    "AND Z.price > Z.previous.price AND Z.price > 1.02 * X.price"
)
#: The same table under another key, so one table holds two entries.
RISING_PAIR = (
    "SELECT A.date, B.price FROM quote SEQUENCE BY date "
    "AS (A, B) WHERE B.price > A.price AND A.price < 50"
)
STEPS = (-3.0, 2.0, -1.0, 4.0, -5.0, 1.0, 3.0, -2.0, -4.0, 6.0, 1.0, -1.0)


def quote_rows(tickers=("AAA", "BBB", "CCC"), days=40, start_day=0, phase=0):
    rows = []
    for number, ticker in enumerate(tickers):
        price = 50.0 + 3 * number
        for day in range(start_day, start_day + days):
            price = max(10.0, price + STEPS[(day + number + phase) % len(STEPS)])
            rows.append(
                {"name": ticker, "date": BASE + dt.timedelta(days=day), "price": price}
            )
    return rows


def quote_table(rows) -> Table:
    table = Table("quote", SCHEMA)
    table.insert_many(rows)
    return table


def outcome(result, plan_cache=False):
    """Rows plus diagnostics; plan-cache counts are executor state, not
    table state, so they are compared only when asked."""
    diagnostics = result.diagnostics.to_dict()
    if not plan_cache:
        del diagnostics["counters"]["plan_cache_hits"]
        del diagnostics["counters"]["plan_cache_misses"]
    return result.columns, tuple(result.rows), diagnostics


def oracle(table, sql, policy="raise"):
    """The row/interpreted executor on a fresh copy of ``table``."""
    fresh = quote_table([dict(row) for row in table])
    executor = Executor(
        Catalog([fresh]), domains=DOMAINS, policy=policy,
        evaluator="row", codegen=False,
    )
    return outcome(executor.execute(sql))


def cached_executor(table, **options):
    return Executor(Catalog([table]), domains=DOMAINS, evaluator="columnar", **options)


class TestTableSurface:
    def test_rows_is_read_only_and_live(self):
        table = quote_table(quote_rows(days=3))
        rows = table.rows
        assert not hasattr(rows, "append")
        with pytest.raises(TypeError):
            rows[0] = {}
        assert rows == list(table) and list(table) == rows
        assert rows[1:3] == list(table)[1:3]
        table.insert({"name": "ZZZ", "date": BASE, "price": 1.0})
        assert len(rows) == len(table) == 10

    def test_insert_and_insert_many_move_the_version(self):
        table = Table("quote", SCHEMA)
        assert table.version == 0
        table.insert({"name": "AAA", "date": BASE, "price": 1.0})
        assert table.version == 1
        table.insert_many(quote_rows(tickers=("BBB",), days=4))
        assert table.version == 5

    def test_rejected_insert_keeps_the_version(self):
        table = quote_table(quote_rows(days=2))
        before = table.version
        with pytest.raises(Exception):
            table.insert({"name": "AAA", "date": BASE, "price": "high"})
        assert table.version == before

    def test_hit_returns_the_same_clusters_until_an_insert(self):
        table = quote_table(quote_rows())
        first = sorted_clusters(table, ["name"], ["date"])
        assert sorted_clusters(table, ("name",), ("date",)) is first
        assert first[0].rows.store is first[0].rows.store
        table.insert({"name": "AAA", "date": BASE - dt.timedelta(days=1), "price": 9.0})
        second = sorted_clusters(table, ["name"], ["date"])
        assert second is not first
        assert second[0].rows[0]["price"] == 9.0

    def test_queries_reuse_the_cached_columns(self):
        table = quote_table(quote_rows())
        executor = cached_executor(table)
        executor.execute(DOUBLE_BOTTOM)
        store = sorted_clusters(table, ["name"], ["date"])[0].rows.store
        price = store.column("price")
        executor.execute(DOUBLE_BOTTOM)
        again = sorted_clusters(table, ["name"], ["date"])[0].rows.store
        assert again is store and again.column("price") is price

    def test_cluster_rows_pickle_as_plain_tuples(self):
        table = quote_table(quote_rows(days=5))
        rows = sorted_clusters(table, ["name"], ["date"])[0].rows
        rows.store.column("price")
        copied = pickle.loads(pickle.dumps(rows))
        assert type(copied) is tuple and copied == rows

    def test_version_change_drops_every_stale_entry(self):
        table = quote_table(quote_rows())
        sorted_clusters(table, ["name"], ["date"])
        sorted_clusters(table, [], ["date"])
        assert len(table._cluster_memo[1]) == 2
        table.insert({"name": "AAA", "date": BASE, "price": 9.0})
        sorted_clusters(table, [], ["date"])
        version, entries = table._cluster_memo
        assert version == table.version and len(entries) == 1

    def test_policy_is_part_of_the_key(self):
        rows = quote_rows(days=5)
        rows.append(dict(rows[0]))  # a duplicate SEQUENCE BY key
        table = quote_table(rows)
        strict = sorted_clusters(table, ["name"], ["date"], policy="raise")
        skipped = sorted_clusters(table, ["name"], ["date"], policy="skip")
        assert len(strict[0].rows) == 6 and len(skipped[0].rows) == 5
        assert strict[0].audit is None and skipped[0].audit is not None


class TestInvalidation:
    @pytest.mark.parametrize("sql", [DOUBLE_BOTTOM, RISING_PAIR])
    def test_insert_between_queries(self, sql):
        table = quote_table(quote_rows())
        executor = cached_executor(table)
        assert outcome(executor.execute(sql)) == oracle(table, sql)
        for day, price in ((40, 20.0), (41, 80.0), (42, 15.0), (43, 90.0)):
            table.insert({"name": "AAA", "date": BASE + dt.timedelta(days=day), "price": price})
            assert outcome(executor.execute(sql)) == oracle(table, sql)

    def test_insert_many_between_queries(self):
        table = quote_table(quote_rows())
        executor = cached_executor(table)
        before = executor.execute(DOUBLE_BOTTOM)
        assert outcome(before) == oracle(table, DOUBLE_BOTTOM)
        table.insert_many(quote_rows(days=30, start_day=40, phase=5))
        after = executor.execute(DOUBLE_BOTTOM)
        assert outcome(after) == oracle(table, DOUBLE_BOTTOM)
        assert after.rows != before.rows

    def test_out_of_order_insert_is_sorted_into_place(self):
        table = quote_table(quote_rows(days=20, start_day=10))
        executor = cached_executor(table)
        executor.execute(RISING_PAIR)
        table.insert_many(quote_rows(days=10, start_day=0, phase=3))
        assert outcome(executor.execute(RISING_PAIR)) == oracle(table, RISING_PAIR)

    def test_session_insert_into(self):
        session = Session(domains=DOMAINS)
        session.run_script(
            "CREATE TABLE quote (name Varchar(8), date Date, price Real)"
        )
        table = session.catalog.table("quote")
        table.insert_many(quote_rows())
        first = session.execute(DOUBLE_BOTTOM)
        assert outcome(first) == oracle(table, DOUBLE_BOTTOM)
        # A fresh low then a rebound: one more double bottom for DDD.
        session.execute(
            "INSERT INTO quote VALUES "
            "('DDD', '2000-03-01', 50.0), ('DDD', '2000-03-02', 40.0), "
            "('DDD', '2000-03-03', 35.0), ('DDD', '2000-03-04', 60.0)"
        )
        second = session.execute(DOUBLE_BOTTOM)
        assert outcome(second) == oracle(table, DOUBLE_BOTTOM)
        assert len(second.rows) == len(first.rows) + 1


class TestLenientAudits:
    def audited_table(self):
        rows = quote_rows(days=30)
        rows.reverse()  # out of order for every ticker
        rows.append(dict(rows[0], price=12.5))  # duplicate key, new price
        rows.append(dict(rows[5]))
        return quote_table(rows)

    @pytest.mark.parametrize("policy", ["collect", "skip"])
    def test_hit_and_miss_report_identical_diagnostics(self, policy):
        table = self.audited_table()
        catalog = Catalog([table])
        # Fresh executors, so the plan-cache counts match too; the first
        # builds the cluster entry, the others hit it.
        runs = [
            Executor(catalog, domains=DOMAINS, policy=policy).execute(DOUBLE_BOTTOM)
            for _ in range(3)
        ]
        assert table._cluster_memo is not None
        first = outcome(runs[0], plan_cache=True)
        assert first[2]["warnings"]
        if policy == "skip":
            assert len(first[2]["quarantined"]) == 2
        assert all(outcome(run, plan_cache=True) == first for run in runs[1:])
        assert outcome(runs[0]) == oracle(table, DOUBLE_BOTTOM, policy)

    @pytest.mark.parametrize("policy", ["collect", "skip"])
    def test_clusters_of_replays_audits_on_every_call(self, policy):
        table = self.audited_table()
        seen = []
        for _ in range(2):
            diagnostics = Diagnostics()
            list(clusters_of(table, ["name"], ["date"], policy=policy,
                             diagnostics=diagnostics))
            seen.append(diagnostics.to_dict())
        assert seen[0] == seen[1] and seen[0]["warnings"]

    def test_audits_follow_the_table_after_an_insert(self):
        table = self.audited_table()
        executor = cached_executor(table, policy="collect")
        executor.execute(DOUBLE_BOTTOM)
        table.insert(dict(next(iter(table))))  # one more duplicate
        assert outcome(executor.execute(DOUBLE_BOTTOM)) == oracle(
            table, DOUBLE_BOTTOM, "collect"
        )


class TestColumnarTable:
    def test_rcol_table_hits_and_matches_the_oracle(self):
        table = quote_table(quote_rows())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "quote.rcol")
            write_columnar(table, path)
            mapped = load_columnar(path)
            try:
                assert isinstance(mapped.rows, tuple)
                executor = cached_executor(mapped)
                for sql in (DOUBLE_BOTTOM, RISING_PAIR, DOUBLE_BOTTOM):
                    assert outcome(executor.execute(sql)) == oracle(table, sql)
                cached = sorted_clusters(mapped, ["name"], ["date"])
                assert sorted_clusters(mapped, ["name"], ["date"]) is cached
                version = mapped.version
            finally:
                mapped.close()
            assert mapped.version == version + 1
            assert mapped._cluster_memo is None


class TestConcurrency:
    def test_parallel_thread_workers(self):
        table = quote_table(quote_rows(tickers=tuple(f"T{n:02d}" for n in range(12))))
        executor = cached_executor(table, workers=4, parallel_mode="thread")
        expected = oracle(table, DOUBLE_BOTTOM)
        for _ in range(2):  # a miss, then a hit
            assert outcome(executor.execute(DOUBLE_BOTTOM)) == expected
            result, report = executor.execute_with_report(DOUBLE_BOTTOM)
            serial, serial_report = cached_executor(table).execute_with_report(
                DOUBLE_BOTTOM
            )
            assert report.predicate_tests == serial_report.predicate_tests > 0
            assert tuple(result.rows) == tuple(serial.rows)
        table.insert_many(quote_rows(tickers=("T00", "T05"), days=20, start_day=40))
        assert outcome(executor.execute(DOUBLE_BOTTOM)) == oracle(table, DOUBLE_BOTTOM)

    def test_eight_user_threads_share_one_executor_and_table(self):
        """Readers race each other and a writer.  Rows only ever append
        at the end of each cluster, so a result seen mid-write holds a
        subset of the final matches; every query after the writer is done
        must return the final answer, which a stale entry would not."""
        table = quote_table(quote_rows())
        appended = quote_rows(days=24, start_day=40, phase=7)
        shadow = quote_table([dict(row) for row in table] + appended)
        final = oracle(shadow, DOUBLE_BOTTOM)
        assert final != oracle(table, DOUBLE_BOTTOM)
        executor = cached_executor(table)
        started = threading.Barrier(9, timeout=60)
        done = threading.Event()
        during: list[list[tuple]] = [[] for _ in range(8)]
        after: list[list[tuple]] = [[] for _ in range(8)]
        errors: list[BaseException] = []

        def reader(index):
            try:
                started.wait()
                while not done.is_set():
                    during[index].append(outcome(executor.execute(DOUBLE_BOTTOM)))
                for _ in range(3):
                    after[index].append(outcome(executor.execute(DOUBLE_BOTTOM)))
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(index,)) for index in range(8)
            ]
            for thread in threads:
                thread.start()
            started.wait()
            # Every reader has cached the initial state before any write.
            deadline = time.monotonic() + 60
            while not all(during) and time.monotonic() < deadline:
                time.sleep(0.001)
            for row in appended:
                table.insert(row)
                time.sleep(0)
            done.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert not errors, errors
        assert all(results == [final] * 3 for results in after)
        final_rows = set(final[1])
        for results in during:
            for columns, rows, diagnostics in results:
                assert columns == final[0] and diagnostics == final[2]
                assert set(rows) <= final_rows
        assert outcome(executor.execute(DOUBLE_BOTTOM)) == final

    def test_concurrent_inserts_never_leave_a_stale_entry(self):
        """Writers race readers that rebuild the cache; once the writers
        are done, the cached clusters must hold every inserted row."""
        table = quote_table([])
        batches = [
            quote_rows(tickers=(f"W{n}",), days=150, phase=n) for n in range(4)
        ]
        done = threading.Event()
        errors: list[BaseException] = []

        def write(rows):
            try:
                for row in rows:
                    table.insert(row)
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        def read():
            try:
                while not done.is_set():
                    sorted_clusters(table, ["name"], ["date"])
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            writers = [threading.Thread(target=write, args=(b,)) for b in batches]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in readers + writers)
        finally:
            sys.setswitchinterval(previous)
        assert not errors, errors
        clusters = sorted_clusters(table, ["name"], ["date"])
        assert sum(len(cluster.rows) for cluster in clusters) == len(table) == 600
