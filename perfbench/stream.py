"""The ``stream_checkpoint`` workload: ``Executor.stream`` with durable checkpoints.

One caller streams Example 10 over a seed-generated price series, long
enough for over a hundred emissions, with a single-replica
``CheckpointStore`` under the default ``CheckpointPolicy()`` (every 1000
rows, before every emission, fsync on).  Each pass starts fresh.  An
emission's latency runs from when the source yielded the match's last
row to when the projected tuple reached the caller.  Every pass must
emit exactly the rows batch execution finds on the same series.
"""

from __future__ import annotations

import datetime as _dt
import os
import shutil
import time

from repro.data.djia import DJIA_SCHEMA
from repro.data.random_walk import regime_switching_walk
from repro.data.workloads import EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.recovery import CheckpointPolicy, CheckpointStore

from perfbench.core import (
    DOMAINS,
    Calibrated,
    Outcome,
    Tracer,
    layer_means,
    make_table,
    oracle,
    out_dir,
    own_peak_rss_mb,
    profile_call,
    reset_peak_rss,
    timed_setups,
    work_dir,
    write_layers,
)

SIZES = {"full": 40_000, "tiny": 4_000}
FIRST_DAY = _dt.date(1900, 1, 1)


def series(seed: int, scale: str) -> list[dict]:
    """A turbulent walk: about one double bottom per 350 rows."""
    closes = regime_switching_walk(
        SIZES[scale], start=852.0, drift=0.0, calm_persistence=0.95,
        turbulent_persistence=0.9, seed=seed,
    )
    return [
        {"date": FIRST_DAY + _dt.timedelta(days=offset), "price": close}
        for offset, close in enumerate(closes)
    ]


class _TimedStore(CheckpointStore):
    """A checkpoint store whose writes are spans, and whose bytes are counted."""

    def __init__(self, path, tracer: Tracer):
        super().__init__(path)
        self._tracer = tracer
        self.bytes_written = 0

    def save(self, state) -> None:
        with self._tracer.span("recovery.checkpoint"):
            super().save(state)
        self.bytes_written += os.path.getsize(self.path)


#: Rows in one timed unit of a pass; the references run between units.
SEGMENT = 2000


class _WriteTimedStore(CheckpointStore):
    """A checkpoint store that adds up the time its writes take."""

    def __init__(self, path):
        super().__init__(path)
        self.io_s = 0.0

    def save(self, state) -> None:
        started = time.perf_counter()
        super().save(state)
        self.io_s += time.perf_counter() - started


class _Segments:
    """Cuts a pass into units of :data:`SEGMENT` rows for a :class:`Calibrated`.

    Times are taken on a clock that stops while the references run, so
    no emission latency and no unit includes them.  A unit completes its
    share of the pass's one query.
    """

    def __init__(self, calibrated: Calibrated, store: _WriteTimedStore, rows: int):
        self.calibrated = calibrated
        self.store = store
        self.rows = rows
        self.paused = 0.0
        self.mark = 0
        self.latencies: list[tuple[float, float]] = []
        calibrated.rebase()
        self.begun = self.clock()
        self.io_begun = store.io_s

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def close(self, end: int) -> None:
        """Record rows ``[mark, end)`` as a unit, then run the references."""
        paused = time.perf_counter()
        self.calibrated.add(
            self.mark // SEGMENT, self.clock() - self.begun, end - self.mark,
            self.latencies, io_s=self.store.io_s - self.io_begun,
            queries=(end - self.mark) / self.rows,
        )
        self.latencies = []
        self.mark = end
        self.paused += time.perf_counter() - paused
        self.begun = self.clock()
        self.io_begun = self.store.io_s


class _Pass:
    """One streaming pass over the whole series.

    Given a :class:`Calibrated`, the pass is cut into units by
    :class:`_Segments`: the source closes a unit before it yields the
    first row of the next one, and each emission's latency is paired
    with the checkpoint-write time inside it.
    """

    def __init__(self, executor, rows, store, calibrated: Calibrated | None = None):
        self.yielded = [0.0] * len(rows)
        self.written = [0.0] * len(rows)
        self.store = store
        self.segments = None if calibrated is None else _Segments(calibrated, store, len(rows))
        segments, yielded, written = self.segments, self.yielded, self.written

        def source(start):
            for offset in range(start, len(rows)):
                if segments is None:
                    yielded[offset] = time.perf_counter()
                else:
                    if offset - segments.mark == SEGMENT:
                        segments.close(offset)
                    yielded[offset] = segments.clock()
                    written[offset] = store.io_s
                yield offset, rows[offset]

        self.query = executor.stream(
            EXAMPLE_10, source, store=store, checkpoints=CheckpointPolicy()
        )

    def run(self) -> list[tuple]:
        """Stream the whole pass; return the emitted tuples."""
        emitted = []
        segments, yielded, written = self.segments, self.yielded, self.written
        for seq, values in self.query.keyed_rows:
            if segments is not None:
                segments.latencies.append(
                    (segments.clock() - yielded[seq], self.store.io_s - written[seq])
                )
            emitted.append(values)
        if segments is not None:
            segments.close(len(yielded))
        return emitted


def _fresh_store_path(directory) -> str:
    for name in os.listdir(directory):
        if name.startswith("stream.ckpt"):
            os.remove(directory / name)
    return str(directory / "stream.ckpt")


def _batch_reference(rows: list[dict], outcome: Outcome) -> tuple:
    """Oracle rows for Example 10 on the series, checked against batch execute().

    The batch table is dropped on return, so the streaming passes run
    without it resident.
    """
    table = make_table("djia", DJIA_SCHEMA, rows)
    expected = tuple(oracle(table).execute(EXAMPLE_10).rows)
    batch = Executor(Catalog([table]), domains=DOMAINS).execute(EXAMPLE_10)
    outcome.check(tuple(batch.rows) == expected, "batch execute() rows differ")
    return expected


def stream_checkpoint(seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    """Durable streaming of the double bottom over a long series."""
    outcome = Outcome()
    rows = series(seed, scale)
    directory = work_dir("stream_checkpoint", seed)
    try:
        expected = _batch_reference(rows, outcome)

        def setup():
            executor = Executor(Catalog(), domains=DOMAINS)
            store = CheckpointStore(_fresh_store_path(directory))
            first = next(_Pass(executor, rows, store).query.rows, None)
            outcome.check(first == (expected[0] if expected else None), "first emission differs")
            return executor

        setup_s, executor = timed_setups(setup)
        if trace:
            outcome.metrics = _traced(executor, rows, expected, directory, seconds, seed, outcome)
            return outcome

        reset_peak_rss()
        calibrated = Calibrated(write_dir=directory)
        started = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - started < seconds:
            store = _WriteTimedStore(_fresh_store_path(directory))
            emitted = _Pass(executor, rows, store, calibrated).run()
            passes += 1
            outcome.check(tuple(emitted) == expected, f"pass {passes}: emissions differ")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    outcome.metrics = {
        "setup_s": setup_s,
        **calibrated.metrics(),
        "peak_rss_mb": own_peak_rss_mb(),
    }
    return outcome


def _traced(executor, rows, expected, directory, seconds, seed, outcome) -> dict[str, float]:
    """Alternate traced and untraced passes; spans cover checkpoint writes."""
    tracer = Tracer()
    walls = {True: [], False: []}
    written = 0
    hits, misses = executor.plan_cache_hits, executor.plan_cache_misses
    started = time.perf_counter()
    index = 0
    while True:
        traced = index % 2 == 0
        path = _fresh_store_path(directory)
        store = _TimedStore(path, tracer) if traced else CheckpointStore(path)
        begun = time.perf_counter()
        if traced:
            with tracer.span("streaming.match", index):
                emitted = _Pass(executor, rows, store).run()
        else:
            emitted = _Pass(executor, rows, store).run()
        walls[traced].append(time.perf_counter() - begun)
        outcome.check(tuple(emitted) == expected, f"pass {index}: emissions differ")
        if traced:
            written += store.bytes_written
        index += 1
        if index >= 2 and time.perf_counter() - started >= seconds:
            break
    passes = len(walls[True])
    checkpoints = sum(1 for span in tracer.spans if span[1] == "recovery.checkpoint")
    layers = layer_means(tracer, passes)
    hits = executor.plan_cache_hits - hits
    misses = executor.plan_cache_misses - misses
    metrics = {
        "streaming.match_ms": layers["streaming.match"],
        "recovery.checkpoint_ms": layers.get("recovery.checkpoint", 0.0),
        "recovery.checkpoints": checkpoints / passes,
        "recovery.bytes_per_row": written / (passes * len(rows)),
        "executor.plan_cache_hit_ratio": hits / max(1, hits + misses),
        "trace.overhead_ms": 1e3 * (
            sum(walls[True]) / passes - sum(walls[False]) / len(walls[False])
        ),
    }
    write_layers("stream_checkpoint", seed, tracer, metrics)
    profile_call(
        lambda: _Pass(executor, rows, CheckpointStore(_fresh_store_path(directory))).run(),
        out_dir("stream_checkpoint", seed) / "profile.json",
    )
    return metrics
