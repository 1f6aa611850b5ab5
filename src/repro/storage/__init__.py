"""Storage substrate: schemas, rows, versioned heap tables, indexes,
catalog, statistics, consistent database snapshots, multi-statement
transactions over the copy-on-write version chains, the write-ahead log
behind crash-safe durability, and the fault-injection hooks the crash
tests drive it with."""

from .catalog import Catalog, CatalogError
from .faults import (
    CRASHPOINT_NAMES,
    CRASHPOINTS,
    FaultInjector,
    InjectedCrash,
    NO_FAULTS,
)
from .index import ColumnIndex, Index, MultiKeyIndex, RankIndex
from .row import Row
from .schema import Column, DataType, Schema, SchemaError
from .snapshot import DatabaseSnapshot
from .stats import ColumnStats, TableStats, analyze_table
from .table import ColumnarView, Table, TableVersion
from .transaction import (
    SerializationError,
    Transaction,
    TransactionError,
    TransactionManager,
    TransactionSnapshot,
)
from .wal import WALError, WriteAheadLog, committed_groups, scan_segments

__all__ = [
    "CRASHPOINT_NAMES",
    "CRASHPOINTS",
    "Catalog",
    "CatalogError",
    "Column",
    "ColumnIndex",
    "ColumnStats",
    "ColumnarView",
    "DataType",
    "DatabaseSnapshot",
    "FaultInjector",
    "Index",
    "InjectedCrash",
    "MultiKeyIndex",
    "NO_FAULTS",
    "RankIndex",
    "Row",
    "Schema",
    "SchemaError",
    "SerializationError",
    "Table",
    "TableStats",
    "TableVersion",
    "Transaction",
    "TransactionError",
    "TransactionManager",
    "TransactionSnapshot",
    "WALError",
    "WriteAheadLog",
    "analyze_table",
    "committed_groups",
    "scan_segments",
]
