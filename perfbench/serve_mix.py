"""The ``serve_mix`` workload: two blocking clients against ``repro serve``.

The server is a ``python -m repro serve`` subprocess over CSV files
written from the seed.  Two ``ServeClient`` connections, one thread
each, drive it in a closed loop of rounds: in each round both send the
next query of the mix and wait for the reply, and the reference loop
(``core.reference_loop_s``) runs between rounds.  Replies are compared
with oracle rows after an ``encode_frame`` round trip, which is how the
server renders them.

The traced run spends half its time against the server (the ``serve.*``
layer metrics, from replies and the ``metrics``/``stats`` ops) and half
replaying the mix in-process against tables loaded by the same
``load_table`` call the server makes (the engine layer metrics).
"""

from __future__ import annotations

import json
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import NamedTuple

from repro.data.djia import DJIA_SCHEMA, synthetic_djia
from repro.data.quotes import DEFAULT_TICKERS, QUOTE_SCHEMA, synthetic_quotes
from repro.engine.catalog import Catalog
from repro.engine.columnar import load_table
from repro.engine.csv_io import save_csv
from repro.engine.executor import Executor
from repro.resilience import Diagnostics
from repro.serve import ServeClient
from repro.serve.client import ServeError
from repro.serve.protocol import encode_frame

from perfbench.core import (
    DOMAINS,
    NULL_TRACER,
    ROOT,
    SRC,
    Calibrated,
    Outcome,
    Tracer,
    make_table,
    oracle,
    out_dir,
    process_peak_rss_mb,
    profile_call,
    timed_setups,
    until,
    work_dir,
    write_layers,
)
from perfbench.replay import LayerRun

#: The BENCH_serve.json request mix: a double bottom with a small result,
#: a ~2.3k-row result, and a scan over every quote cluster.
QUERIES = (
    ("example_10_djia", "djia",
     "SELECT X.NEXT.date FROM djia SEQUENCE BY date AS (X, *Y, S) "
     "WHERE Y.price < 0.98 * Y.previous.price AND S.price > S.previous.price"),
    ("rising_pair_djia", "djia",
     "SELECT X.date FROM djia SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price"),
    ("cluster_scan_quote", "quote",
     "SELECT X.name, X.date FROM quote CLUSTER BY name SEQUENCE BY date "
     "AS (X, Y, Z) WHERE Y.price > 1.15 * X.price AND Z.price < 0.8 * Y.price"),
)

CLIENTS = 2
SIZES = {
    "full": {"djia_rows": None, "quote_days": 500},
    "tiny": {"djia_rows": 1500, "quote_days": 100},
}
SCHEMAS = {"djia": DJIA_SCHEMA, "quote": QUOTE_SCHEMA}
STARTUP_TIMEOUT_S = 60.0


def _write_inputs(seed: int, scale: str, directory) -> dict:
    """CSV files generated from the seed; returns ``{table: path}``."""
    size = SIZES[scale]
    djia = [
        {"date": day, "price": close}
        for day, close in synthetic_djia(seed)[: size["djia_rows"]]
    ]
    quote = synthetic_quotes(DEFAULT_TICKERS, days=size["quote_days"], seed=seed)
    paths = {}
    for name, rows in (("djia", djia), ("quote", quote)):
        paths[name] = directory / f"{name}.csv"
        save_csv(make_table(name, SCHEMAS[name], rows), paths[name])
    return paths


def _load(paths: dict, tracer=NULL_TRACER) -> Catalog:
    """Load the served tables with the call ``repro serve --table`` makes."""
    catalog = Catalog()
    for name, path in paths.items():
        with tracer.span("csv_io.load"):
            catalog.register(
                load_table(str(path), name, SCHEMAS[name], diagnostics=Diagnostics())
            )
    return catalog


class Server:
    """A ``repro serve`` subprocess; :meth:`stop` ends it and waits."""

    def __init__(self, paths: dict, directory):
        command = [sys.executable, "-m", "repro", "serve", "--positive", "price",
                   "--pool-workers", str(CLIENTS), "--port", "0"]
        for name, path in paths.items():
            columns = ",".join(f"{c.name}:{c.type}" for c in SCHEMAS[name].columns)
            command += ["--table", f"{name}={path}:{columns}"]
        self._stderr = open(directory / "server.err", "ab")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        try:
            self.host, self.port = self._address()
        except BaseException:
            self.stop()
            raise

    def _address(self) -> tuple[str, int]:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(STARTUP_TIMEOUT_S):
                raise RuntimeError("repro serve did not start in time")
        line = self.process.stdout.readline().decode()
        found = re.search(r" on (\S+):(\d+)$", line.strip())
        if found is None:
            raise RuntimeError(f"unexpected repro serve banner {line!r}")
        return found.group(1), int(found.group(2))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


class Record(NamedTuple):
    """One answered request, as a client saw it."""

    query: int
    latency_s: float
    server_ms: float
    reply_bytes: int
    ok: bool


#: Longest wait at a round's barrier before the run is abandoned.
ROUND_TIMEOUT_S = 60.0


class _Client(threading.Thread):
    """One blocking caller on its own connection, one request per round."""

    def __init__(self, index, server, rounds, expected, tracer):
        super().__init__(name=f"perfbench-client-{index}")
        self.index = index
        self.server = server
        self.rounds = rounds
        self.expected = expected
        self.tracer = tracer
        self.stopping = False
        self.records: list[Record] = []
        self.errors: list[str] = []

    def run(self) -> None:
        step = self.index
        try:
            with ServeClient(
                self.server.host, self.server.port, tenant=f"perfbench{self.index}", failover=None
            ) as client:
                while True:
                    self.rounds.wait(ROUND_TIMEOUT_S)
                    if self.stopping:
                        return
                    query = step % len(QUERIES)
                    step += 1
                    self._request(client, query, step)
                    self.rounds.wait(ROUND_TIMEOUT_S)
        except threading.BrokenBarrierError:
            return
        except Exception as error:  # noqa: BLE001 - reported as a failed request
            self.errors.append(f"client {self.index}: {type(error).__name__}: {error}")
            self.rounds.abort()

    def _request(self, client, query: int, step: int) -> None:
        name, _, sql = QUERIES[query]
        started = time.perf_counter()
        try:
            if self.tracer is None:
                reply = client.request("query", sql=sql)
            else:
                with self.tracer.span("serve.request", f"{self.index}-{step}"):
                    reply = client.request("query", sql=sql)
        except ServeError as error:
            self.errors.append(f"{name}: refused [{error.code}] {error}")
            return
        finished = time.perf_counter()
        size = len(encode_frame(reply)) if self.tracer is not None else 0
        self.records.append(Record(
            query, finished - started, reply["elapsed_ms"], size,
            reply["rows"] == self.expected[name],
        ))


def _drive(server, seconds, expected, table_rows, tracer=None):
    """Run rounds until ``seconds`` pass; return (records, errors, calibrated).

    In each round every client sends one request and waits for its
    reply; the reference loop runs between rounds, while no request is
    in flight, and a round is one unit of the calibrated loop.  Client
    ``i`` starts the mix at query ``i``, so a round's kind is its index
    modulo the mix length.
    """
    rounds = threading.Barrier(CLIENTS + 1)
    clients = [
        _Client(index, server, rounds, expected, tracer) for index in range(CLIENTS)
    ]
    for client in clients:
        client.start()
    calibrated = Calibrated()
    started = time.perf_counter()
    turn = 0
    try:
        while turn == 0 or time.perf_counter() - started < seconds:
            answered = sum(len(client.records) for client in clients)
            begun = time.perf_counter()
            rounds.wait(ROUND_TIMEOUT_S)
            rounds.wait(ROUND_TIMEOUT_S)
            ended = time.perf_counter()
            if sum(len(client.records) for client in clients) - answered != CLIENTS:
                break  # a request was refused; the errors say which
            fresh = [client.records[-1] for client in clients]
            calibrated.add(
                turn % len(QUERIES), ended - begun,
                sum(table_rows[QUERIES[record.query][0]] for record in fresh),
                [record.latency_s for record in fresh],
            )
            turn += 1
        for client in clients:
            client.stopping = True
        rounds.wait(ROUND_TIMEOUT_S)
    except threading.BrokenBarrierError:
        pass
    finally:
        rounds.abort()
        for client in clients:
            client.join()
    return (
        [record for client in clients for record in client.records],
        [error for client in clients for error in client.errors],
        calibrated,
    )


def _server_counters(server) -> dict[str, float]:
    """Query-time histogram, rejections and plan-cache counts from the server."""
    with ServeClient(server.host, server.port, tenant="perfbench-admin", failover=None) as admin:
        exposition = admin.metrics()
        stats = admin.stats()
    counters = {"query_s": 0.0, "queries": 0.0, "rejections": 0.0}
    for line in exposition.splitlines():
        if line.startswith("repro_query_seconds_sum"):
            counters["query_s"] += float(line.split()[-1])
        elif line.startswith("repro_query_seconds_count"):
            counters["queries"] += float(line.split()[-1])
        elif line.startswith("repro_serve_rejections_total"):
            counters["rejections"] += float(line.split()[-1])
    counters["hits"] = stats["plan_cache"]["hits"]
    counters["misses"] = stats["plan_cache"]["misses"]
    return counters


def serve_mix(seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    """Two closed-loop clients on the network entry point."""
    outcome = Outcome()
    directory = work_dir("serve_mix", seed)
    server = None
    try:
        paths = _write_inputs(seed, scale, directory)
        catalog = _load(paths)
        reference = oracle(*catalog)
        rows = {name: tuple(reference.execute(sql).rows) for name, _, sql in QUERIES}
        expected = {
            name: json.loads(encode_frame({"rows": [list(row) for row in result]}))["rows"]
            for name, result in rows.items()
        }
        table_rows = {name: len(catalog.table(table)) for name, table, _ in QUERIES}

        def setup():
            started = Server(paths, directory)
            with ServeClient(
                started.host, started.port, tenant="perfbench-setup", failover=None
            ) as client:
                name, _, sql = QUERIES[0]
                outcome.check(
                    client.request("query", sql=sql)["rows"] == expected[name],
                    "set-up query rows differ",
                )
            return started

        setup_s, server = timed_setups(setup, teardown=lambda running: running.stop())
        if trace:
            outcome.metrics = _traced(
                server, seconds, seed, paths, rows, expected, table_rows, outcome
            )
            return outcome
        records, errors, calibrated = _drive(server, seconds, expected, table_rows)
        peak_rss = process_peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(directory, ignore_errors=True)

    _check(records, errors, outcome)
    outcome.metrics = {
        "setup_s": setup_s,
        **calibrated.metrics(),
        "peak_rss_mb": peak_rss,
    }
    return outcome


def _check(records: list[Record], errors: list[str], outcome: Outcome) -> None:
    for error in errors:
        outcome.check(False, error)
    for record in records:
        outcome.check(record.ok, f"{QUERIES[record.query][0]}: reply rows differ")


def _traced(server, seconds, seed, paths, rows, expected, table_rows, outcome) -> dict[str, float]:
    tracer = Tracer()
    before = _server_counters(server)
    records, errors, _ = _drive(server, seconds / 2, expected, table_rows, tracer)
    after = _server_counters(server)
    _check(records, errors, outcome)
    count = len(records)
    server_ms = sum(record.server_ms for record in records) / count
    executed = max(1.0, after["queries"] - before["queries"])
    execute_ms = 1e3 * (after["query_s"] - before["query_s"]) / executed
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    metrics = {
        "serve.server_ms": server_ms,
        "serve.execute_ms": execute_ms,
        "serve.queue_ms": server_ms - execute_ms,
        "serve.wire_ms": sum(1e3 * r.latency_s - r.server_ms for r in records) / count,
        "serve.reply_kb": sum(record.reply_bytes for record in records) / count / 1024.0,
        "serve.plan_cache_hit_ratio": hits / max(1, hits + misses),
        "serve.rejections": after["rejections"] - before["rejections"],
    }

    started = time.perf_counter()
    catalog = _load(paths, tracer)
    metrics["csv_io.load_ms"] = 1e3 * (time.perf_counter() - started)
    executor = Executor(catalog, domains=DOMAINS)
    layers = LayerRun(catalog, DOMAINS, executor, tracer)
    # The server's plan cache is warm; so are these.
    for _, _, sql in QUERIES:
        executor.execute(sql)
        layers.prime(sql)

    def replay(request: int) -> None:
        name, _, sql = QUERIES[request % len(QUERIES)]
        layers.query(sql, request, rows[name], outcome)

    until(seconds / 2, replay)
    metrics.update(layers.metrics())
    write_layers("serve_mix", seed, tracer, metrics)

    def encode_mix(_) -> None:
        for _, _, sql in QUERIES:
            encode_frame({"rows": [list(row) for row in executor.execute(sql).rows]})

    profile_call(
        lambda: until(seconds / 4, encode_mix), out_dir("serve_mix", seed) / "profile.json"
    )
    return metrics
