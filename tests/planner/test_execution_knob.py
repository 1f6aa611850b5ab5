"""``execution`` is the only regime selector and ``REPRO_EXECUTION`` the
only environment override.

The plan signature covers the mode, so changing it — engine-wide or per
statement — can never be served a plan decided under another regime; the
environment variable takes exactly the three mode names; and the retired
``batch_execution`` and ``parallelism`` knobs are rejected, not aliased.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.engine.database import Database
from repro.planner import Planner
from repro.planner.planner import EXECUTION_MODES
from repro.storage import DataType

SQL = "SELECT * FROM T WHERE T.k > 1 ORDER BY pa(T.x) LIMIT 10"
#: sort-topped, so the 2000-row segment compiles under every non-row mode
KNOBS = dict(strategy="traditional")


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
        [("compiled", "row", "row"), ("row", "compiled", "compiled"),
         ("auto", "row", "row"), ("row", "auto", "compiled")],
    )
    def test_warm_entry_is_not_served_to_another_mode(
        self, before, after, regime, per_statement
    ):
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
    def test_the_three_names_case_insensitively(self, monkeypatch, mode, spell):
        monkeypatch.setenv("REPRO_EXECUTION", spell(mode))
        assert Database().execution == mode

    @pytest.mark.parametrize(
        "value", ["1", "true", "always", "hybrid", "0", "", "batch"]
    )
    def test_anything_else_is_a_loud_error(self, monkeypatch, value):
        with pytest.raises(ValueError, match="unknown execution mode"):
            Database(execution=value)
        monkeypatch.setenv("REPRO_EXECUTION", value)
        with pytest.raises(ValueError, match="REPRO_EXECUTION"):
            Database()

    def test_explicit_argument_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION", "row")
        assert Database(execution="compiled").execution == "compiled"


class TestRetiredKnobIsGone:
    @pytest.mark.parametrize("knob", ["batch_execution", "parallelism"])
    @pytest.mark.parametrize("value", [False, True, "auto", 1, 4])
    def test_constructors_reject_it(self, knob, value):
        retired = {knob: value}
        with pytest.raises(TypeError):
            Database(**retired)
        with pytest.raises(TypeError):
            Planner(Database().catalog, **retired)

    def test_engine_import_loads_no_vector_library(self):
        """With the vector kernels gone, importing the engine pulls in no
        numpy (checked in a fresh interpreter: this one may have loaded it
        for other tests)."""
        code = "import sys, repro.engine.database; print('numpy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert out.stdout.strip() == "False"
