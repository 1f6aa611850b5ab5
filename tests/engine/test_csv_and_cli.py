"""Tests for CSV import/export and the CLI."""

import io

import pytest

from repro.cli import build_demo_database, format_result, main, parse_schema
from repro.engine import Database
from repro.engine.csv_io import coerce_value, dump_csv, load_csv
from repro.storage import DataType


class TestCoercion:
    def test_empty_is_null(self):
        assert coerce_value("", DataType.INT) is None

    def test_int(self):
        assert coerce_value("42", DataType.INT) == 42
        assert coerce_value("42.0", DataType.INT) == 42

    def test_float(self):
        assert coerce_value("2.5", DataType.FLOAT) == 2.5

    def test_bool_spellings(self):
        for text in ("true", "T", "YES", "1"):
            assert coerce_value(text, DataType.BOOL) is True
        for text in ("false", "F", "no", "0"):
            assert coerce_value(text, DataType.BOOL) is False
        with pytest.raises(ValueError):
            coerce_value("maybe", DataType.BOOL)

    def test_text_passthrough(self):
        assert coerce_value("hello", DataType.TEXT) == "hello"


class TestCsvRoundTrip:
    def test_load_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("name,price,stock\nwidget,9.5,3\ngadget,,7\n")
        db = Database()
        db.create_table(
            "item",
            [("name", DataType.TEXT), ("price", DataType.FLOAT), ("stock", DataType.INT)],
        )
        assert db.load_csv("item", path) == 2
        rows = [r.values for r in db.catalog.table("item").rows()]
        assert rows == [("widget", 9.5, 3), ("gadget", None, 7)]

    def test_load_header_reordered_and_extra(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("stock,extra,name\n5,zzz,thing\n")
        db = Database()
        db.create_table("item", [("name", DataType.TEXT), ("stock", DataType.INT)])
        db.load_csv("item", path)
        (row,) = db.catalog.table("item").rows()
        assert row.values == ("thing", 5)

    def test_load_positional(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,1.5\nb,2.5\n")
        db = Database()
        db.create_table("t", [("name", DataType.TEXT), ("x", DataType.FLOAT)])
        assert db.load_csv("t", path, has_header=False) == 2

    def test_positional_arity_mismatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,1.5,extra\n")
        db = Database()
        db.create_table("t", [("name", DataType.TEXT), ("x", DataType.FLOAT)])
        with pytest.raises(ValueError):
            db.load_csv("t", path, has_header=False)

    def test_dump(self, tmp_path):
        path = tmp_path / "out.csv"
        n = dump_csv([("a", 1), ("b", None)], ["name", "x"], path)
        assert n == 2
        assert path.read_text().splitlines() == ["name,x", "a,1", "b,"]


class TestCliHelpers:
    def test_parse_schema(self):
        columns = parse_schema("name:text, price:float,stock:int,ok:bool")
        assert columns == [
            ("name", DataType.TEXT),
            ("price", DataType.FLOAT),
            ("stock", DataType.INT),
            ("ok", DataType.BOOL),
        ]

    def test_parse_schema_default_float(self):
        assert parse_schema("x") == [("x", DataType.FLOAT)]

    def test_parse_schema_errors(self):
        with pytest.raises(ValueError):
            parse_schema(":text")
        with pytest.raises(ValueError):
            parse_schema("x:decimal")

    def test_format_result(self):
        db = build_demo_database()
        result = db.query(
            "SELECT * FROM hotel ORDER BY cheap(hotel.price) LIMIT 2",
        )
        text = format_result(result, show_metrics=True)
        assert "score" in text
        assert "(2 rows)" in text
        assert "metrics:" in text


class TestCliMain:
    def test_one_shot_query(self):
        out = io.StringIO()
        code = main(
            ["--demo", "-c", "SELECT * FROM hotel ORDER BY cheap(hotel.price) LIMIT 3"],
            out=out,
        )
        assert code == 0
        assert "(3 rows)" in out.getvalue()

    def test_query_error_returns_nonzero(self):
        out = io.StringIO()
        code = main(["--demo", "-c", "SELECT * FROM nope LIMIT 1"], out=out)
        assert code == 1
        assert "error:" in out.getvalue()

    def test_load_csv_flow(self, tmp_path):
        path = tmp_path / "pets.csv"
        path.write_text("name,cuteness\nrex,0.9\nmittens,0.99\n")
        out = io.StringIO()
        code = main(
            [
                "--load",
                f"pets={path}",
                "--schema",
                "pets=name:text,cuteness:float",
                "-c",
                "SELECT * FROM pets ORDER BY pets.cuteness LIMIT 1",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "loaded 2 rows" in text
        assert "mittens" in text

    def test_load_without_schema_fails(self, tmp_path):
        path = tmp_path / "pets.csv"
        path.write_text("name\nrex\n")
        out = io.StringIO()
        assert main(["--load", f"pets={path}"], out=out) == 2
