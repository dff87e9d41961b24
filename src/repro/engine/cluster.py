"""CLUSTER BY grouping and SEQUENCE BY sorting (paper Figure 1).

"Rows are grouped by their CLUSTER BY attribute(s) (not necessarily
ordered), and data in each group are sorted by their SEQUENCE BY
attribute(s)."  Clusters are yielded in first-appearance order of their
key; with no CLUSTER BY the whole table is a single cluster.

The stable re-sort is part of the language semantics, so the default
(strict) behavior is unchanged from the seed.  Under a lenient
:class:`~repro.resilience.ErrorPolicy` the grouping additionally audits
sequence-key integrity per cluster: out-of-order input is re-sorted with
a warning recorded in :class:`~repro.resilience.Diagnostics`, and
duplicate SEQUENCE BY keys — which make the match semantics
order-dependent — are warned about (``COLLECT``) or dropped after the
first occurrence with a quarantine entry (``SKIP``).

Grouping and sorting a table costs more than scanning it with the
columnar kernels, so :func:`sorted_clusters` memoizes the result on the
table, keyed on ``(CLUSTER BY, SEQUENCE BY, policy)`` and valid for one
table ``version``: any insert moves the version and the next lookup
drops every entry built before it.  Each cached :class:`Cluster` keeps
the audit diagnostics recorded when it was built and replays them into
every execution that reads it, so a cache hit reports exactly what a
miss reports.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.resilience import Diagnostics, ErrorPolicy


class ClusterRows(tuple):
    """One cluster's rows in SEQUENCE BY order, read-only.

    ``store`` is the :class:`~repro.engine.columnar.ColumnStore` over
    these rows, created on first use and kept as long as the rows are,
    so the columnar kernels extract each column once per table version
    instead of once per query.  Its columns fill lazily; two threads
    filling the same column compute equal values, so the race is benign.
    """

    @cached_property
    def store(self):
        from repro.engine.columnar import ColumnStore

        # Over a plain tuple: a store holding these rows would form a
        # cycle that keeps a dropped table alive until the cyclic GC runs.
        return ColumnStore(tuple(self))

    def __reduce__(self):
        # A process worker receives the rows and builds its own columns.
        return (tuple, (tuple(self),))


class Cluster(NamedTuple):
    """One cached CLUSTER BY group.

    ``audit`` holds the sequence-key warnings and quarantine entries the
    lenient audit recorded when the cluster was built, or None when
    there were none.
    """

    key: tuple[object, ...]
    rows: ClusterRows
    audit: Optional[Diagnostics]


def clusters_of(
    table: Table,
    cluster_by: Sequence[str],
    sequence_by: Sequence[str],
    *,
    policy: Union[ErrorPolicy, str] = ErrorPolicy.RAISE,
    diagnostics: Optional[Diagnostics] = None,
) -> Iterator[tuple[tuple[object, ...], ClusterRows]]:
    """Yield ``(key, sorted_rows)`` per cluster.

    ``key`` is the tuple of CLUSTER BY values (empty tuple when there is
    no CLUSTER BY clause); ``sorted_rows`` is a read-only
    :class:`ClusterRows`.  Each cluster's audit findings reach
    ``diagnostics`` as it is yielded, on a cache hit as on a miss.
    """
    for key, rows, audit in sorted_clusters(
        table, cluster_by, sequence_by, policy=policy
    ):
        if audit is not None and diagnostics is not None:
            diagnostics.merge(audit)
        yield key, rows


def sorted_clusters(
    table: Table,
    cluster_by: Sequence[str],
    sequence_by: Sequence[str],
    *,
    policy: Union[ErrorPolicy, str] = ErrorPolicy.RAISE,
) -> tuple[Cluster, ...]:
    """The table's clusters, memoized per table version.

    ``table`` is a :class:`~repro.engine.table.Table` or a
    :class:`~repro.engine.columnar.ColumnarTable`; both carry the
    ``version`` and the memo slot.
    """
    policy = ErrorPolicy.coerce(policy)
    key = (tuple(cluster_by), tuple(sequence_by), policy)
    # The version is read before the rows: an entry may hold rows newer
    # than its version, never older, so it is never stale when served.
    version = table.version
    memo = table._cluster_memo
    if memo is None or memo[0] != version:
        memo = table._cluster_memo = (version, {})
    clusters = memo[1].get(key)
    if clusters is None:
        clusters = memo[1][key] = _build(table, cluster_by, sequence_by, policy)
    return clusters


def _build(
    table: Table,
    cluster_by: Sequence[str],
    sequence_by: Sequence[str],
    policy: ErrorPolicy,
) -> tuple[Cluster, ...]:
    for name in (*cluster_by, *sequence_by):
        if name not in table.schema:
            raise ExecutionError(
                f"table {table.name!r} has no column {name!r} "
                "(referenced by CLUSTER BY / SEQUENCE BY)"
            )
    groups: dict[tuple[object, ...], list[Mapping[str, object]]] = {}
    for row in table:
        key = tuple(row[name] for name in cluster_by)
        groups.setdefault(key, []).append(row)
    clusters = []
    for key, rows in groups.items():
        audit = None
        if sequence_by:
            if policy.lenient:
                audit = Diagnostics()
                rows = _audit_sequence(
                    table.name, key, rows, sequence_by, policy, audit
                )
                if audit.ok:
                    audit = None
            else:
                rows = sorted(rows, key=lambda row: _sort_key(row, sequence_by))
        clusters.append(Cluster(key, ClusterRows(rows), audit))
    return tuple(clusters)


def _audit_sequence(
    table_name: str,
    key: tuple[object, ...],
    rows: list[Mapping[str, object]],
    sequence_by: Sequence[str],
    policy: ErrorPolicy,
    diagnostics: Diagnostics,
) -> list[Mapping[str, object]]:
    """Sort one cluster, reporting out-of-order and duplicate keys."""
    keys = [_sort_key(row, sequence_by) for row in rows]
    out_of_order = any(a > b for a, b in zip(keys, keys[1:]))
    ordered = sorted(zip(keys, rows), key=lambda pair: pair[0])
    label = f"cluster {key!r}" if key else "the single cluster"
    if out_of_order:
        diagnostics.warn(
            f"table {table_name!r}, {label}: SEQUENCE BY "
            f"{tuple(sequence_by)} keys arrived out of order; "
            "stably re-sorted"
        )
    duplicates = sum(a == b for (a, _), (b, _) in zip(ordered, ordered[1:]))
    if duplicates:
        if policy is ErrorPolicy.SKIP:
            deduped: list[Mapping[str, object]] = []
            last_key: object = object()
            for sort_key, row in ordered:
                if sort_key == last_key:
                    diagnostics.quarantine(
                        f"table {table_name!r}",
                        0,
                        f"{label}: duplicate SEQUENCE BY key {sort_key!r}",
                        tuple(row.values()),
                    )
                    continue
                last_key = sort_key
                deduped.append(row)
            return deduped
        diagnostics.warn(
            f"table {table_name!r}, {label}: {duplicates} duplicate "
            f"SEQUENCE BY key(s); match results depend on their "
            "relative order"
        )
    return [row for _, row in ordered]


def _sort_key(row: Mapping[str, object], sequence_by: Sequence[str]) -> tuple:
    return tuple(row[name] for name in sequence_by)
