"""RankSQL reproduction: rank-aware query algebra, execution and optimization.

A pure-Python implementation of *RankSQL: Query Algebra and Optimization for
Relational Top-k Queries* (Li, Chang, Ilyas, Song — SIGMOD 2005), including
the complete relational substrate the paper's PostgreSQL prototype relied
on: storage, indexing, a SQL front end, a pipelined rank-aware execution
engine, and a two-dimensional dynamic-programming optimizer whose ranked
cardinalities come from a join synopsis (weighted random walks).

Quickstart::

    from repro import Database, DataType

    db = Database()
    db.create_table("hotel", [("name", DataType.TEXT), ("price", DataType.FLOAT)])
    ...
    result = db.query("SELECT * FROM hotel ORDER BY cheap(hotel.price) LIMIT 3")
"""

from .engine import Database, QueryResult, load_database, save_database
from .algebra import (
    BooleanPredicate,
    ParameterError,
    RankingPredicate,
    ScoringFunction,
    col,
    lit,
    sum_of,
)
from .optimizer import QuerySpec, RankAwareOptimizer, optimize_traditional
from .planner import PlanCache, Planner, PreparedQuery, Session
from .server import QueryServer, connect
from .storage import Column, DatabaseSnapshot, DataType, Schema

__version__ = "1.3.0"

__all__ = [
    "BooleanPredicate",
    "Column",
    "DataType",
    "Database",
    "DatabaseSnapshot",
    "ParameterError",
    "PlanCache",
    "Planner",
    "PreparedQuery",
    "QueryResult",
    "QueryServer",
    "QuerySpec",
    "RankAwareOptimizer",
    "RankingPredicate",
    "Schema",
    "ScoringFunction",
    "Session",
    "col",
    "connect",
    "lit",
    "load_database",
    "optimize_traditional",
    "save_database",
    "sum_of",
    "__version__",
]
