"""The one ``--set`` grammar, shared across CLIs.

``repro.params`` owns value typing and pair parsing for the sweep CLI
(``--set path=v1,v2``), the fleet CLI (same grid form), and the serve
CLI (``--set path=value`` query overrides).  The parity tests pin
that a value spells the same typed thing in every CLI — the historical
bug class this kills is a boolean like ``recovery.election=true``
parsing as a (truthy) *string* in one CLI and a bool in another.
"""

import argparse

import pytest

from repro.params import parse_grid_sets, parse_scalar_set, parse_value
from repro.scenarios.cli import _parse_sets, _parse_value
from repro.serve.cli import _build_query


class TestParseValue:
    @pytest.mark.parametrize("text,expected", [
        ("true", True), ("True", True), ("FALSE", False),
        ("8", 8), ("-3", -3), ("0.25", 0.25), ("1e3", 1000.0),
        ("O3", "O3"), ("heat", "heat"), ("", ""),
    ])
    def test_typing(self, text, expected):
        value = parse_value(text)
        assert value == expected
        assert type(value) is type(expected)

    def test_scenarios_cli_uses_the_shared_parser(self):
        # the historical private name is the shared function itself
        assert _parse_value is parse_value


class TestPairForms:
    def test_grid_form(self):
        grid = parse_grid_sets(["n_peers=4,6,8", "recovery.election=true"])
        assert grid == {"n_peers": (4, 6, 8),
                        "recovery.election": (True,)}

    def test_grid_form_rejects_malformed(self):
        for bad in ("n_peers", "n_peers=", "=4"):
            with pytest.raises(ValueError, match="--set expects"):
                parse_grid_sets([bad])

    def test_scenarios_wrapper_keeps_systemexit(self):
        assert _parse_sets(["n_peers=4"]) == {"n_peers": (4,)}
        with pytest.raises(SystemExit, match="--set expects"):
            _parse_sets(["n_peers"])

    def test_scalar_form(self):
        assert parse_scalar_set("workload.level=O3") \
            == ("workload.level", "O3")
        assert parse_scalar_set("n_peers=8") == ("n_peers", 8)
        with pytest.raises(ValueError, match="--set expects"):
            parse_scalar_set("n_peers")

    @pytest.mark.parametrize("pair", [
        "n_peers=8", "workload.level=O3", "time_limit=2.5",
        "recovery.election=true", "selection_policy=random",
    ])
    def test_scalar_and_grid_forms_agree(self, pair):
        """Cross-CLI parity: one --set pair types identically whether
        it shapes a sweep grid or a serve query override."""
        path, scalar = parse_scalar_set(pair)
        grid = parse_grid_sets([pair])
        assert grid[path] == (scalar,)
        assert type(grid[path][0]) is type(scalar)


class TestServeQueryParity:
    def _query(self, *sets):
        return _build_query(argparse.Namespace(
            deadline=1.0, percentile=90.0, pool=3, seed_base=2011,
            set=list(sets),
        ))

    def test_overrides_arrive_typed(self):
        query = self._query("n_peers=8", "workload.level=O3",
                            "time_limit=2.5")
        spec = query.scenario
        assert spec.n_peers == 8 and type(spec.n_peers) is int
        assert spec.workload.level == "O3"
        assert spec.time_limit == 2.5

    def test_boolean_override_is_a_real_bool(self):
        # the spec rejects non-bool election values outright, so this
        # passing proves "true" reached it as True, not as the truthy
        # string "true" (election also needs rejoin_rate > 0 — the
        # cross-field guard)
        query = self._query("churn_profile.rejoin_rate=0.5",
                            "recovery.election=true")
        assert query.scenario.recovery.election is True

    def test_malformed_set_is_a_clean_usage_error(self):
        from repro.serve.cli import _UsageError

        with pytest.raises(_UsageError, match="--set expects"):
            self._query("n_peers")
