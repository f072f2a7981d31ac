"""Catalog: table and column metadata (plus statistics) shared by both engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.engine.types import LOGICAL_TYPES
from repro.errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime cycle with storage
    from repro.engine.storage.stats import TableStatistics


@dataclass(frozen=True)
class ColumnDef:
    """Definition of one column: name and logical type."""

    name: str
    type_name: str

    def __post_init__(self) -> None:
        if self.type_name not in LOGICAL_TYPES:
            raise CatalogError(
                f"column '{self.name}' has unknown type '{self.type_name}' "
                f"(expected one of {', '.join(LOGICAL_TYPES)})"
            )


@dataclass
class TableSchema:
    """Schema of one table: ordered column definitions."""

    name: str
    columns: list[ColumnDef] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise CatalogError(
                    f"table '{self.name}' defines column '{column.name}' twice"
                )
            seen.add(lowered)

    def column_index(self, name: str) -> int:
        """Return the position of column ``name`` (case-insensitive)."""
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return index
        raise CatalogError(f"table '{self.name}' has no column '{name}'")

    def has_column(self, name: str) -> bool:
        """True when the table defines column ``name`` (case-insensitive)."""
        lowered = name.lower()
        return any(column.name.lower() == lowered for column in self.columns)

    def __len__(self) -> int:
        return len(self.columns)


class Catalog:
    """A set of table schemas, keyed by lower-cased table name."""

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}
        self._statistics: dict[str, Callable[[], "TableStatistics"]] = {}

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __iter__(self) -> Iterator[TableSchema]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def create_table(self, name: str,
                     columns: Iterable[tuple[str, str]] | Iterable[ColumnDef]) -> TableSchema:
        """Register table ``name`` with ``columns`` (name/type pairs)."""
        lowered = name.lower()
        if lowered in self._tables:
            raise CatalogError(f"table '{name}' already exists")
        defs = [
            column if isinstance(column, ColumnDef) else ColumnDef(*column)
            for column in columns
        ]
        if not defs:
            raise CatalogError(f"table '{name}' must have at least one column")
        schema = TableSchema(name=lowered, columns=defs)
        self._tables[lowered] = schema
        return schema

    def drop_table(self, name: str) -> None:
        """Remove table ``name`` (and its statistics binding) from the catalog."""
        try:
            del self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table '{name}'") from None
        self._statistics.pop(name.lower(), None)

    def bind_statistics(self, name: str,
                        provider: Callable[[], "TableStatistics"]) -> None:
        """Register a statistics provider for table ``name``.

        The storage layer binds its (cached) aggregation here, so planners
        consulting the catalog always see statistics reflecting the current
        table contents without the catalog owning storage state.
        """
        self._statistics[name.lower()] = provider

    def table_statistics(self, name: str) -> "TableStatistics | None":
        """Current statistics of table ``name`` (None when no storage bound)."""
        provider = self._statistics.get(name.lower())
        return provider() if provider is not None else None

    def table(self, name: str) -> TableSchema:
        """Return the schema of table ``name``."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table '{name}'") from None

    def table_names(self) -> list[str]:
        """Return all table names in creation order."""
        return list(self._tables)
