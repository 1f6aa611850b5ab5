"""Shell bind variables: \\set / \\unset and :name placeholder execution."""

from __future__ import annotations

import io

import pytest

from repro.cli import (
    ShellState,
    build_demo_database,
    parse_variable_value,
    run_statement,
    statement_params,
)

TEMPLATE = (
    "SELECT * FROM hotel WHERE hotel.price <= :max_price "
    "ORDER BY cheap(hotel.price) LIMIT 3"
)


@pytest.fixture
def state():
    return ShellState(build_demo_database(seed=7))


def run(state, text):
    out = io.StringIO()
    run_statement(state, text, out)
    return out.getvalue()


class TestParseVariableValue:
    def test_numbers_booleans_strings(self):
        assert parse_variable_value("3") == 3
        assert parse_variable_value("3.5") == 3.5
        assert parse_variable_value("true") is True
        assert parse_variable_value("FALSE") is False
        assert parse_variable_value("'thai'") == "thai"
        assert parse_variable_value("bare") == "bare"


class TestStatementParams:
    def test_literal_statement_has_none(self, state):
        assert statement_params(state, "SELECT * FROM hotel LIMIT 1") is None

    def test_positional_rejected_in_shell(self, state):
        with pytest.raises(ValueError, match="positional"):
            statement_params(state, "SELECT * FROM hotel WHERE hotel.price < ?")

    def test_unset_variable_reported(self, state):
        with pytest.raises(ValueError, match="unset parameter.*max_price"):
            statement_params(state, TEMPLATE)

    def test_set_variables_supplied(self, state):
        run(state, "\\set max_price 100")
        assert statement_params(state, TEMPLATE) == {"max_price": 100}


class TestShellExecution:
    def test_set_then_query_uses_binding(self, state):
        run(state, "\\set max_price 60")
        output = run(state, TEMPLATE)
        assert "(3 rows)" in output

    def test_reset_variable_reuses_plan(self, state):
        run(state, "\\set max_price 60")
        run(state, TEMPLATE)
        run(state, "\\set max_price 300")
        run(state, TEMPLATE)
        assert state.db.planner.metrics.plans_built == 1
        assert state.session.plan_cache_hits == 1

    def test_set_lists_and_unset_removes(self, state):
        run(state, "\\set max_price 60")
        listing = run(state, "\\set")
        assert "max_price = 60" in listing
        assert "unset max_price" in run(state, "\\unset max_price")
        assert "not set" in run(state, "\\unset max_price")

    def test_explain_with_variables(self, state):
        run(state, "\\set max_price 60")
        output = run(state, f"\\explain {TEMPLATE}")
        assert "limit" in output


class TestInteractiveLoopErrors:
    def _run_interactive(self, monkeypatch, lines):
        from repro.cli import main

        inputs = iter(lines)

        def fake_input(prompt=""):
            try:
                return next(inputs)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr("builtins.input", fake_input)
        out = io.StringIO()
        code = main(["--demo"], out=out)
        return code, out.getvalue()

    def test_meta_command_error_keeps_shell_alive(self, monkeypatch):
        # \explain with an unset :name must print the friendly message and
        # keep the REPL running, not kill it with a traceback.
        code, output = self._run_interactive(
            monkeypatch,
            [
                f"\\explain {TEMPLATE}",
                "\\set max_price 60",
                f"\\explain {TEMPLATE}",
                "\\quit",
            ],
        )
        assert code == 0
        assert "unset parameter(s): max_price" in output
        assert "limit" in output  # the second \explain succeeded
