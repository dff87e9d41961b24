"""Typed in-memory tables.

A :class:`Table` stores rows as plain dicts validated against a
:class:`Schema`.  Types are the small set the paper's examples need —
strings, integers, floats, and dates — with ``int`` acceptable wherever
``float`` is declared (SQL numeric widening).
"""

from __future__ import annotations

import datetime as _dt
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError

#: Supported column type names.
TYPES = ("str", "int", "float", "date")

_PYTHON_TYPES = {
    "str": (str,),
    "int": (int,),
    "float": (int, float),
    "date": (_dt.date,),
}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in TYPES:
            raise SchemaError(f"unknown column type {self.type!r} (choose from {TYPES})")
        if not self.name:
            raise SchemaError("column name must be non-empty")

    def validate(self, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, _PYTHON_TYPES[self.type]):
            raise SchemaError(
                f"column {self.name!r} expects {self.type}, got {value!r}"
            )


class Schema:
    """An ordered collection of columns."""

    __slots__ = ("_columns", "_by_name")

    def __init__(self, columns: Iterable[Column | tuple[str, str]]):
        normalized = [
            column if isinstance(column, Column) else Column(*column)
            for column in columns
        ]
        names = [column.name for column in normalized]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names: {names}")
        if not normalized:
            raise SchemaError("a schema needs at least one column")
        self._columns = tuple(normalized)
        self._by_name = {column.name: column for column in normalized}

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self._columns)

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def validate_row(self, row: Mapping[str, object]) -> dict[str, object]:
        """Validate and normalize one row (extra keys are rejected)."""
        unknown = set(row) - set(self._by_name)
        if unknown:
            raise SchemaError(f"row has unknown columns: {sorted(unknown)}")
        validated: dict[str, object] = {}
        for column in self._columns:
            if column.name not in row:
                raise SchemaError(f"row is missing column {column.name!r}")
            value = row[column.name]
            column.validate(value)
            validated[column.name] = value
        return validated

    def __repr__(self) -> str:
        body = ", ".join(f"{c.name} {c.type}" for c in self._columns)
        return f"Schema({body})"


class RowsView(Sequence):
    """A read-only, live view of a table's rows.

    Indexing, iteration and ``len`` read the table's current rows; there
    is no way to add, remove or reorder them through the view, so every
    change goes through :meth:`Table.insert` and moves the table's
    ``version``.  Compares equal to a list or tuple of equal rows.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list[dict[str, object]]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        return self._rows[index]  # a slice is a copy

    def __iter__(self) -> Iterator[dict[str, object]]:
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, RowsView)):
            return list(self._rows) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class Table:
    """An insert-ordered bag of schema-validated rows.

    ``version`` starts at 0 and moves on every insert.  Derived data —
    the sorted clusters of :func:`repro.engine.cluster.sorted_clusters`
    — is memoized against it, so it must move whenever the rows do.
    """

    __slots__ = ("name", "schema", "version", "_versions", "_cluster_memo", "_rows")

    def __init__(self, name: str, schema: Schema | Iterable[Column | tuple[str, str]]):
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self.version = 0
        self._versions = itertools.count(1)
        self._cluster_memo = None  # owned by repro.engine.cluster
        self._rows: list[dict[str, object]] = []

    def insert(self, row: Mapping[str, object]) -> None:
        self._rows.append(self.schema.validate_row(row))
        # After the append, so a reader that sees the new version sees
        # the row.  Each version is drawn once from a counter (atomic
        # under the GIL) rather than read-modify-written, so concurrent
        # inserts cannot lose a bump or bring back a version a reader
        # has memoized.
        self.version = next(self._versions)

    def insert_many(self, rows: Iterable[Mapping[str, object]]) -> None:
        for row in rows:
            self.insert(row)

    @property
    def rows(self) -> RowsView:
        """A read-only view of the rows, in insert order."""
        return RowsView(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, object]]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, {self.schema!r})"
