"""Shared plumbing: spans, statistics, set-up timing, output files, cProfile.

Spans are recorded by the benchmark's own code around calls into the
program's public functions; nothing inside ``src/`` is instrumented.  A
span is ``[id, name, start, end, parent, request]``; its self time is its
duration minus the time its child spans cover.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import cProfile
import gc
import itertools
import json
import os
import pstats
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.pattern.predicates import AttributeDomains

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Every query runs with ``price`` declared positive, as ``--positive
#: price`` does on the CLI; the paper's ratio predicates need it.
DOMAINS = AttributeDomains.prices()


class Tracer:
    """Records spans in memory, one stack per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: object = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[5]
        record = [
            next(self._ids), name, time.perf_counter(), None,
            parent[0] if parent is not None else None, request,
        ]
        stack.append(record)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                covered[span[4]] += span[3] - span[2]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[1]] += (span[3] - span[2]) - covered[span[0]]
        return dict(totals)

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request in sorted(
                self.spans, key=lambda span: span[2]
            ):
                handle.write(json.dumps({
                    "id": span_id, "name": name,
                    "start_ms": round((start - self.epoch) * 1e3, 4),
                    "end_ms": round((end - self.epoch) * 1e3, 4),
                    "parent": parent, "request": request,
                }) + "\n")


class NullTracer:
    """The untraced twin of :class:`Tracer`: every span is a no-op."""

    enabled = False
    _NULL = nullcontext()

    def span(self, name: str, request: object = None):
        return self._NULL


NULL_TRACER = NullTracer()


class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}

    def check(self, ok: bool, message: str) -> None:
        """Count one attempted operation; a wrong result counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)


def make_table(name: str, schema, rows) -> Table:
    table = Table(name, schema)
    table.insert_many(rows)
    return table


def oracle(*tables: Table) -> Executor:
    """The differential oracle: interpreted predicates, no columnar kernels."""
    return Executor(Catalog(tables), domains=DOMAINS, evaluator="row", codegen=False)


def until(seconds: float, step: Callable[[int], object]) -> None:
    """Call ``step(i)`` until ``seconds`` of wall time have passed (at least once)."""
    started = time.perf_counter()
    index = 0
    while True:
        step(index)
        index += 1
        if time.perf_counter() - started >= seconds:
            return


def percentile(samples: Iterable[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Rows of the reference loop: fixed, and never touched by the program.
_REFERENCE_ROWS = [
    {"day": day, "price": 100.0 + (day * 7919 % 1009) / 10.0} for day in range(2500)
]

#: Bytes of the reference durable write, about one stream checkpoint.
_REFERENCE_BLOB = bytes(range(256)) * 8

#: Round figures of what the reference loop and the reference durable
#: write take on the 2-vCPU KVM guest this benchmark was written on,
#: when it runs fast.  Normalised times (unit ``norm_ms``) are times at
#: those speeds.
LOOP_NOMINAL_S = 3.0e-3
WRITE_NOMINAL_S = 0.3e-3


def _falls(row: dict, previous: dict) -> bool:
    return row["price"] < 0.98 * previous["price"]


def reference_loop_s() -> float:
    """Seconds one run of the reference loop takes now.

    The loop is a fixed piece of pure-Python work shaped like the
    program's inner loops (dict lookups, float comparisons, a call per
    row) that does not depend on the program.  Timed beside a unit of
    the program's work, it says how fast the host is running Python at
    that moment.
    """
    started = time.perf_counter()
    falls = 0
    for _ in range(12):
        previous = _REFERENCE_ROWS[0]
        for row in _REFERENCE_ROWS:
            if _falls(row, previous):
                falls += 1
            previous = row
    seconds = time.perf_counter() - started
    assert falls, "the reference loop did no work"
    return seconds


def reference_write_s(directory: Path) -> float:
    """Seconds one durable replace of a small file in ``directory`` takes now.

    Write a temp file, fsync it, rename it into place and fsync the
    directory: the steps of a checkpoint, without the program.
    """
    path = directory / "reference.bin"
    started = time.perf_counter()
    with open(path.with_suffix(".tmp"), "wb") as handle:
        handle.write(_REFERENCE_BLOB)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(path.with_suffix(".tmp"), path)
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
    return time.perf_counter() - started


class Unit(NamedTuple):
    """One timed unit of a closed loop's work, with the references beside it.

    ``io_s`` is the part of ``seconds`` spent in durable writes; each
    latency is a ``(seconds, io seconds)`` pair.
    """

    kind: object
    seconds: float
    io_s: float
    loop_s: float
    write_s: float
    rows: int
    queries: float
    latencies: tuple

    def normalised(self, seconds: float, io_s: float = 0.0) -> float:
        """``seconds`` at nominal speed: CPU by the loop, durable writes by the write."""
        cpu = (seconds - io_s) * LOOP_NOMINAL_S / self.loop_s
        return cpu + (io_s * WRITE_NOMINAL_S / self.write_s if io_s else 0.0)


class Calibrated:
    """A closed loop's units of work, each timed between two references.

    The host this benchmark was written on is shared: it runs the same
    Python code at speeds up to 2x apart, switching within a second and
    staying slow for minutes, and its disk's fsync slows down by as much
    for minutes at a time.  Before and after each unit the benchmark
    runs the reference loop (and, given a directory, the reference
    durable write).  A unit's CPU time over the mean of the loops beside
    it, and its durable-write time over the mean of the writes, cancel
    most of that, because the references slow down with the host while
    a change to the program moves the unit and not the references.  The
    gated figures are those ratios, scaled to milliseconds at nominal
    speed; raw times are kept for the ungated figures.
    """

    def __init__(self, write_dir: Path | None = None) -> None:
        self.write_dir = write_dir
        self.units: list[Unit] = []
        self.loops: list[float] = []
        self.writes: list[float] = []
        self.rebase()

    def _references(self) -> tuple[float, float]:
        loop = reference_loop_s()
        write = 0.0 if self.write_dir is None else reference_write_s(self.write_dir)
        return loop, write

    def rebase(self) -> None:
        """Run the references afresh, after work that is not a unit."""
        self._before = self._references()

    def add(
        self, kind, seconds: float, rows: int, latencies,
        io_s: float = 0.0, queries: float | None = None,
    ) -> None:
        """Record a unit that ended just now; ``kind`` groups like units.

        ``latencies`` holds call latencies in seconds, or ``(seconds, io
        seconds)`` pairs when the calls include durable writes.  A unit
        completes one query per call unless ``queries`` says otherwise.
        """
        loop, write = self._references()
        self.units.append(Unit(
            kind, seconds, io_s, (self._before[0] + loop) / 2, (self._before[1] + write) / 2,
            rows, len(latencies) if queries is None else queries, tuple(
                latency if isinstance(latency, tuple) else (latency, 0.0)
                for latency in latencies
            ),
        ))
        self.loops.append(loop)
        self.writes.append(write)
        self._before = (loop, write)

    def metrics(self) -> dict[str, float]:
        """Gated figures at nominal speed, and raw whole-run ones.

        ``latency_p50_norm_ms`` is the median over calls of normalised
        latency.  The rates divide a unit of each kind's queries and rows
        by the sum over kinds of each kind's median normalised time, so
        a run that holds more of one kind of unit than another is
        weighted as a whole cycle would be.
        """
        if not self.units:
            raise ValueError("the run finished no unit of work")
        kinds: dict[object, list[Unit]] = defaultdict(list)
        for unit in self.units:
            kinds[unit.kind].append(unit)
        cycle = calls = rows = 0.0
        for units in kinds.values():
            cycle += statistics.median(unit.normalised(unit.seconds, unit.io_s) for unit in units)
            calls += statistics.median(unit.queries for unit in units)
            rows += statistics.median(unit.rows for unit in units)
        latencies = [latency for unit in self.units for latency, _ in unit.latencies]
        busy_s = sum(unit.seconds for unit in self.units)
        metrics = {
            "latency_p50_norm_ms": 1e3 * statistics.median(
                unit.normalised(*latency) for unit in self.units for latency in unit.latencies
            ),
            "queries_per_norm_s": calls / cycle,
            "rows_per_norm_s": rows / cycle,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * percentile(latencies, 0.90),
            "queries_per_s": sum(unit.queries for unit in self.units) / busy_s,
            "rows_per_s": sum(unit.rows for unit in self.units) / busy_s,
            "reference_loop_ms": 1e3 * statistics.median(self.loops),
        }
        if self.write_dir is not None:
            metrics["reference_write_ms"] = 1e3 * statistics.median(self.writes)
        return metrics


def timed_setups(setup: Callable[[], object], teardown=None) -> tuple[float, object]:
    """Run ``setup`` :data:`SETUPS` times; return (median seconds, last result).

    Every result but the last is passed to ``teardown`` before the next
    set-up starts, so only one instance is alive at a time.
    """
    durations = []
    result = None
    for index in range(SETUPS):
        if index and teardown is not None:
            teardown(result)
        started = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - started)
    return statistics.median(durations), result


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (Linux ``clear_refs``).

    Called just before a timed loop, after the set-up copies and the
    oracle's reference runs have been dropped, so that ``peak_rss_mb``
    is the memory the program holds under the workload rather than the
    harness's high-water mark.
    """
    gc.collect()
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def own_peak_rss_mb() -> float:
    return process_peak_rss_mb(os.getpid())


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def work_dir(workload: str, seed: int) -> Path:
    """Scratch space for one run (CSVs, checkpoints), inside the checkout."""
    path = STATE / "work" / f"{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def out_dir(workload: str, seed: int) -> Path:
    """Where a traced run leaves its spans, layer table and profile."""
    path = STATE / "out" / workload / f"seed-{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_layers(workload: str, seed: int, tracer: Tracer, metrics: dict) -> None:
    directory = out_dir(workload, seed)
    tracer.write(directory / "trace.jsonl")
    (directory / "layers.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")


def layer_means(tracer: Tracer, requests: int) -> dict[str, float]:
    """Mean self time in ms per request, by span name."""
    return {
        name: seconds * 1e3 / requests
        for name, seconds in tracer.self_times().items()
    }


def _module_of(filename: str) -> str:
    """Map a profiled code location to the module that owns it."""
    path = Path(filename)
    try:
        relative = path.resolve().relative_to(SRC)
    except (ValueError, OSError):
        if filename.startswith("~") or filename.startswith("<"):
            return "(builtins)"
        if "numpy" in path.parts:
            return "numpy"
        if "perfbench" in path.parts:
            return "perfbench"
        return "(python)"
    return ".".join(relative.with_suffix("").parts)


def profile_call(work: Callable[[], None], path: Path, top: int = 30) -> None:
    """cProfile ``work`` and write self time grouped by ``repro.*`` module.

    This is a cross-check for the span table, not a measurement: the
    profiler adds cost to every Python call and none to native code.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        work()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    total = sum(entry[2] for entry in stats.values()) or 1.0
    by_module: dict[str, float] = defaultdict(float)
    functions = []
    for (filename, line, name), (_, calls, self_s, cumulative_s, _) in stats.items():
        module = _module_of(filename)
        by_module[module] += self_s
        functions.append({
            "module": module,
            "function": f"{name}:{line}",
            "calls": calls,
            "self_ms": round(self_s * 1e3, 3),
            "cumulative_ms": round(cumulative_s * 1e3, 3),
            "self_pct": round(100.0 * self_s / total, 2),
        })
    functions.sort(key=lambda entry: entry["self_ms"], reverse=True)
    report = {
        "total_self_ms": round(total * 1e3, 3),
        "modules": [
            {"module": module, "self_ms": round(seconds * 1e3, 3),
             "self_pct": round(100.0 * seconds / total, 2)}
            for module, seconds in sorted(
                by_module.items(), key=lambda item: item[1], reverse=True
            )
        ],
        "top_functions": functions[:top],
    }
    path.write_text(json.dumps(report, indent=2) + "\n")
