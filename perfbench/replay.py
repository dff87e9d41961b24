"""Replay of ``Executor.execute`` through the public layer calls, one span each.

``Executor.execute`` is timed as a whole; to split its time by layer the
traced run repeats each query through the same public functions the
executor's serial path calls — ``parse_query``, ``analyze``,
``compile_pattern``, ``clusters_of``, ``materialize_kernels``,
``PatternSearchAggregate``/``apply_aggregate`` and ``evaluate_expr`` —
with a span around each call, and checks that the replay returns the
rows ``execute()`` returned.

The replay scans uninstrumented (no predicate-test counting), so
``match.scan`` is what the scan costs when nobody counts; a separate
instrumented pass, outside the request, gives the test count the paper
reports.  ``execute()`` always counts, so the gap between the two shows
up in ``executor.unattributed_ms``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine.aggregates import PatternSearchAggregate, apply_aggregate
from repro.engine.cluster import clusters_of
from repro.engine.columnar import materialize_kernels, vector_backend_active
from repro.match.base import Instrumentation
from repro.match.ops_star import OpsStarMatcher
from repro.pattern.compiler import compile_pattern
from repro.sqlts.expressions import evaluate_condition, evaluate_expr
from repro.sqlts.parser import parse_query
from repro.sqlts.semantic import analyze

from perfbench.core import NULL_TRACER, Tracer, layer_means

#: Spans that stand for a layer of the program.  ``executor.unattributed``
#: is ``execute()`` wall time minus the self time of these.
LAYER_SPANS = (
    "sqlts.parse",
    "sqlts.analyze",
    "pattern.compile",
    "cluster.partition",
    "columnar.kernels",
    "match.scan",
    "executor.project",
)


class Replay:
    """Runs queries the way ``Executor(evaluator="auto")`` does, in the open.

    Plans are memoized by query text, as the executor's plan cache does,
    so one replay mirrors one executor.  Only traced runs add to
    ``counts``.
    """

    def __init__(self, catalog, domains, counts: "Counts"):
        self._catalog = catalog
        self._domains = domains
        self._matcher = OpsStarMatcher()
        self._vector = vector_backend_active()
        self._plans: dict[str, tuple] = {}
        self.counts = counts

    def run(self, sql: str, tracer=NULL_TRACER, request: object = None):
        """Return ``(rows, clusters)``; ``clusters`` feeds :meth:`count_tests`."""
        with tracer.span("executor.request", request):
            plan = self._plans.get(sql)
            if plan is None:
                with tracer.span("sqlts.parse"):
                    parsed = parse_query(sql)
                with tracer.span("sqlts.analyze"):
                    analyzed = analyze(parsed, self._domains)
                with tracer.span("pattern.compile"):
                    compiled = compile_pattern(analyzed.spec, codegen=True)
                    # Lowering is lazy; force it here so its cost is
                    # charged to the pattern layer, not to the first scan.
                    compiled.evaluators
                    compiled.kernel_plan
                plan = self._plans[sql] = (analyzed, compiled)
            analyzed, compiled = plan
            table = self._catalog.table(analyzed.table)
            with tracer.span("cluster.partition"):
                clusters = list(
                    clusters_of(table, analyzed.cluster_by, analyzed.sequence_by)
                )
            output = []
            searched = []
            for _, rows in clusters:
                if analyzed.cluster_filter and not _cluster_passes(analyzed, rows):
                    continue
                kernels = None
                if self._vector and rows:
                    with tracer.span("columnar.kernels"):
                        kernels = materialize_kernels(compiled, rows)
                with tracer.span("match.scan"):
                    matches = apply_aggregate(
                        PatternSearchAggregate(compiled, self._matcher, kernels=kernels),
                        rows,
                    )
                with tracer.span("executor.project"):
                    for match in matches:
                        bindings = {
                            name: (span.start, span.end)
                            for name, span in match.bindings().items()
                        }
                        output.append(tuple(
                            evaluate_expr(item.expr, rows, bindings, analyzed.stars)
                            for item in analyzed.select
                        ))
                searched.append((rows, kernels, len(matches)))
        if tracer.enabled:
            counts = self.counts
            counts.clusters += len(clusters)
            for rows, kernels, found in searched:
                counts.rows_scanned += len(rows)
                counts.matches += found
                counts.elements += compiled.m
                counts.lowered += kernels.lowered if kernels is not None else 0
            counts.output_rows += len(output)
        return output, (compiled, searched)

    def count_tests(self, clusters, tracer: Tracer, request: object) -> None:
        """The instrumented scan ``execute()`` runs, for the test count only."""
        compiled, searched = clusters
        instrumentation = Instrumentation()
        with tracer.span("match.counted_scan", request):
            for rows, kernels, _ in searched:
                apply_aggregate(
                    PatternSearchAggregate(
                        compiled, self._matcher, instrumentation, kernels=kernels
                    ),
                    rows,
                )
        self.counts.tests += instrumentation.tests


@dataclass
class Counts:
    """Work counted by the traced replays of one run."""

    clusters: int = 0
    rows_scanned: int = 0
    matches: int = 0
    output_rows: int = 0
    lowered: int = 0
    elements: int = 0
    tests: int = 0


def _cluster_passes(analyzed, rows) -> bool:
    if not rows:
        return False
    bindings = {name: (0, 0) for name in analyzed.spec.names}
    return all(
        evaluate_condition(condition, rows, bindings, analyzed.stars)
        for condition in analyzed.cluster_filter
    )


class LayerRun:
    """One traced in-process run: execute() walls, replays, and their spans.

    The traced and the untraced replay each keep their own plan memo, so
    both see the plan-cache hits and misses ``execute()`` saw.
    """

    def __init__(self, catalog, domains, executor, tracer=None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.counts = Counts()
        self._domains = domains
        self._execute_s: list[float] = []
        self._traced_s: list[float] = []
        self._untraced_s: list[float] = []
        self._hits = 0
        self._misses = 0
        self.rebind(catalog, executor)

    def rebind(self, catalog, executor) -> None:
        """Mirror a new executor (and its empty plan cache) from now on."""
        self.traced = Replay(catalog, self._domains, self.counts)
        self.untraced = Replay(catalog, self._domains, self.counts)
        self.executor = executor

    def prime(self, sql: str) -> None:
        """Plan ``sql`` in both replays, as a set-up query did in execute()."""
        self.traced.run(sql)
        self.untraced.run(sql)

    def query(self, sql: str, request: int, expected, outcome) -> None:
        """execute() once untraced, replay it traced and untraced, count tests."""
        hits, misses = self.executor.plan_cache_hits, self.executor.plan_cache_misses
        started = time.perf_counter()
        result = self.executor.execute(sql)
        self._execute_s.append(time.perf_counter() - started)
        self._hits += self.executor.plan_cache_hits - hits
        self._misses += self.executor.plan_cache_misses - misses
        outcome.check(tuple(result.rows) == expected, f"query {request}: execute() rows differ")
        # Alternate which replay goes first so neither always runs warm.
        searched = None
        for traced in ((True, False) if request % 2 else (False, True)):
            started = time.perf_counter()
            if traced:
                rows, searched = self.traced.run(sql, self.tracer, request)
                self._traced_s.append(time.perf_counter() - started)
            else:
                rows, _ = self.untraced.run(sql)
                self._untraced_s.append(time.perf_counter() - started)
            outcome.check(tuple(rows) == expected, f"query {request}: replay rows differ")
        self.traced.count_tests(searched, self.tracer, request)

    def metrics(self) -> dict[str, float]:
        counts = self.counts
        requests = len(self._execute_s)
        layers = layer_means(self.tracer, requests)
        execute_ms = 1e3 * sum(self._execute_s) / requests
        metrics = {f"{name}_ms": layers.get(name, 0.0) for name in LAYER_SPANS}
        metrics.update({
            "match.counted_scan_ms": layers.get("match.counted_scan", 0.0),
            "table.insert_ms": layers.get("table.insert", 0.0),
            "executor.execute_ms": execute_ms,
            "executor.unattributed_ms": execute_ms - sum(
                layers.get(name, 0.0) for name in LAYER_SPANS
            ),
            "executor.output_rows": counts.output_rows / requests,
            "executor.plan_cache_hit_ratio": self._hits / max(1, self._hits + self._misses),
            "cluster.clusters": counts.clusters / requests,
            "columnar.lowered_frac": counts.lowered / max(1, counts.elements),
            "match.predicate_tests": counts.tests / requests,
            "match.tests_per_row": counts.tests / max(1, counts.rows_scanned),
            "match.matches": counts.matches / requests,
            "trace.overhead_ms": 1e3 * (
                sum(self._traced_s) - sum(self._untraced_s)
            ) / requests,
        })
        return metrics
