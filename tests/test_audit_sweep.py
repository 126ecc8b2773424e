"""``scripts/run_audit_sweep.py``, run in-process on the fleet cases with q <= 9."""

import importlib.util
import json
from pathlib import Path

from ramseycert.graphs import fleet

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "run_audit_sweep", ROOT / "scripts" / "run_audit_sweep.py")
run_audit_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_audit_sweep)


def test_audit_sweep_json_passes_every_case_up_to_q_9(capsys):
    assert run_audit_sweep.main(["--q-max", "9", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == 0
    rows = doc["rows"]
    assert [(r["variant"], r["q"], r["t"]) for r in rows] == list(fleet(9))
    for r in rows:
        assert r["audit_passed"] is True, r
        assert r["annihilator"] is True, r
        assert r["identities"] is True, r
