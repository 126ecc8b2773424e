"""Each fleet case's g2t text, `audit --json` and `spectrum --json` output
against the SHA-256 digests pinned in tests/golden_fleet.json, and for the
cases with n <= TIER1_MAX_N also `alpha --json` under a node budget, both loop
semantics.

The cases with n <= TIER1_MAX_N run here; the larger ones run in CI through
``scripts/golden_fleet.py check``.  The g2t, audit and spectrum digests were
written before the table-driven builders replaced the scalar loops, and the
alpha digests before the reports' ``to_dict`` moved to ``dataclasses.asdict``,
each with the command the file records.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import ALL_CASES

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_fleet", ROOT / "scripts" / "golden_fleet.py")
golden_fleet = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_fleet)

GOLDEN = json.loads((ROOT / "tests" / "golden_fleet.json").read_text())["cases"]


def test_golden_file_covers_the_fleet():
    assert set(GOLDEN) == {golden_fleet.case_key(*c) for c in ALL_CASES}


@pytest.mark.parametrize("variant,q,t", [
    c for c in ALL_CASES if GOLDEN[golden_fleet.case_key(*c)]["n"] <= golden_fleet.TIER1_MAX_N])
def test_fleet_outputs_match_golden_digests(variant, q, t):
    key = golden_fleet.case_key(variant, q, t)
    assert golden_fleet.digests(variant, q, t) == GOLDEN[key]
