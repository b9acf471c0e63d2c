"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the pass/fail lines;
the same checks back the `kpzlab verify` subcommand.
"""

import os
import time

import pytest

from kpzlab import acceptance



def _quick() -> bool:
    """KPZLAB_ACCEPTANCE_QUICK: 1 runs the criteria in quick mode, 0 (the default) in full mode."""
    value = os.environ.get("KPZLAB_ACCEPTANCE_QUICK", "0")
    if value not in ("0", "1"):
        pytest.fail(f"KPZLAB_ACCEPTANCE_QUICK must be 0 (full mode) or 1 (quick mode), got {value!r}")
    return value == "1"


@pytest.mark.parametrize("cid", sorted(acceptance.CRITERIA))
def test_criterion(cid):
    result = acceptance.CRITERIA[cid](quick=_quick())
    print(result.line())
    assert result.passed, result.line()


def test_each_config_has_one_criterion():
    ids = [int(path.name[1:3]) for path in acceptance.CONFIG_DIR.glob("c*.ini")]
    assert sorted(ids) == sorted(acceptance.CRITERIA)


@pytest.fixture
def scratch_criteria(tmp_path, monkeypatch):
    """Criteria registered from here read their configs from tmp_path and stay out of CRITERIA."""
    monkeypatch.setattr(acceptance, "CONFIG_DIR", tmp_path)
    monkeypatch.setattr(acceptance, "CRITERIA", {})
    return tmp_path


def test_runner_parses_params_and_registers(scratch_criteria):
    (scratch_criteria / "c98_parse.ini").write_text("[params]\nn = 3\ntol = 1e-6\nm = 2.0\ngrid = 1;2\n")
    seen = {}

    @acceptance._criterion(98, "parse")
    def crit98_parse(c, quick):
        seen.update(c, quick=quick)
        return True, "parsed"

    result = crit98_parse(quick=True)
    assert acceptance.CRITERIA == {98: crit98_parse} and crit98_parse.__name__ == "crit98_parse"
    assert seen == {"n": 3, "tol": 1e-6, "m": 2.0, "grid": "1;2", "quick": True}
    assert type(seen["n"]) is int and type(seen["m"]) is float
    assert (result.cid, result.name, result.passed, result.detail, result.max_seconds) == (98, "parse", True, "parsed", None)


def test_body_over_budget_fails_with_detail_unchanged(scratch_criteria):
    (scratch_criteria / "c99_slow.ini").write_text("[params]\nmax_seconds = 0.01\n")

    @acceptance._criterion(99, "slow")
    def crit99_slow(c, quick):
        time.sleep(0.02)
        return True, "the body's own detail"

    result = crit99_slow()
    assert not result.passed and result.elapsed >= 0.01
    assert result.detail == "the body's own detail"
    assert result.line().startswith("[FAIL] criterion 99: slow (0.0s of 0.01s) ")


def test_line_shows_elapsed_against_budget():
    line = acceptance.CriterionResult(6, "splitting order", True, 1.26, "fitted", 60).line()
    assert line == "[PASS] criterion 6: splitting order (1.3s of 60s) fitted"
    assert acceptance.CriterionResult(4, "comparison", False, 0.04, "gap").line() == "[FAIL] criterion 4: comparison (0.0s) gap"
