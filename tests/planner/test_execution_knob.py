"""``execution`` is the only regime selector and ``REPRO_EXECUTION`` the
only environment override.

The plan signature covers the mode, so changing it — engine-wide or per
statement — can never be served a plan decided under another regime; the
environment variable takes exactly the four mode names; and the retired
``batch_execution`` spelling is rejected, not aliased.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.database import Database
from repro.execution.morsels import MORSEL_SIZE_DEFAULT
from repro.planner import Planner
from repro.planner.planner import EXECUTION_MODES
from repro.storage import DataType

SQL = "SELECT * FROM T WHERE T.k > 1 ORDER BY pa(T.x) LIMIT 10"
#: sort-topped, so the 2000-row segment lowers under every non-row mode
#: and the code generator supports it
KNOBS = dict(strategy="traditional", sample_ratio=0.5, seed=1)


def build_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table("T", [("k", DataType.INT), ("x", DataType.FLOAT)])
    rng = random.Random(11)
    db.insert("T", [(rng.randrange(5), round(rng.random(), 6)) for __ in range(2000)])
    db.register_predicate("pa", ["T.x"], lambda x: x)
    db.analyze()
    return db


class TestModeChangeIsACacheMiss:
    @pytest.mark.parametrize("per_statement", [False, True])
    @pytest.mark.parametrize(
        "before, after, regime",
        [("compiled", "row", "row"), ("compiled", "batch", "batch"),
         ("row", "compiled", "compiled"), ("auto", "row", "row")],
    )
    def test_warm_entry_is_not_served_to_another_mode(
        self, before, after, regime, per_statement, monkeypatch
    ):
        # Pinned: a small REPRO_MORSEL_SIZE splits T into enough morsels
        # that the batch regime is decided as batch@dop.
        monkeypatch.setenv("REPRO_MORSEL_SIZE", str(MORSEL_SIZE_DEFAULT))
        db = build_db(execution=before)
        warm, __ = db.planner.prepare(SQL, **KNOBS)
        assert db.planner.prepare(SQL, **KNOBS) == (warm, True)
        if per_statement:
            entry, hit = db.planner.prepare(SQL, execution=after, **KNOBS)
        else:
            db.planner.execution = after
            entry, hit = db.planner.prepare(SQL, **KNOBS)
        assert not hit
        assert entry.regime() == regime
        assert warm.regime() != regime
        # ... and the first mode's entry is still warm beside it
        assert db.planner.prepare(SQL, execution=before, **KNOBS) == (warm, True)


class TestEnvironmentOverride:
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    @pytest.mark.parametrize("spell", [str, str.upper, str.title, " {} ".format])
    def test_the_four_names_case_insensitively(self, monkeypatch, mode, spell):
        monkeypatch.setenv("REPRO_EXECUTION", spell(mode))
        assert Database().execution == mode

    @pytest.mark.parametrize("value", ["1", "true", "always", "hybrid", "0", ""])
    def test_anything_else_is_a_loud_error(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_EXECUTION", value)
        with pytest.raises(ValueError, match="REPRO_EXECUTION"):
            Database()

    def test_explicit_argument_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION", "row")
        assert Database(execution="compiled").execution == "compiled"

    def test_bad_parallelism_names_its_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "0")
        with pytest.raises(ValueError, match="REPRO_PARALLELISM"):
            Database()


class TestRetiredKnobIsGone:
    @pytest.mark.parametrize("value", [False, True, "auto"])
    def test_constructors_reject_it(self, value):
        retired = {"batch_execution": value}
        with pytest.raises(TypeError):
            Database(**retired)
        with pytest.raises(TypeError):
            Planner(Database().catalog, **retired)
