"""`certify --json` and `bounds-table --json` against the SHA-256 digests
pinned in tests/bounds_pins.json, with their exit codes.

The queries cover certified runs (n past 2^53 among them), the
``inequality`` and ``no-prime-power-in-window`` failures, and the refusals
with exit 2: a violated entry hypothesis and k = 1.  No query reaches the
``step1`` failure: the window caps q/t at m / (L log^s(mt)) and n below
(mt)^2, so m' stays below m for every query (the replay tamper tests cover
that check).  Regenerate the file only at a commit whose outputs are the
intended ones:

    PYTHONPATH=src python tests/test_bounds_pins.py > tests/bounds_pins.json
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ramseycert import cli

PINS = Path(__file__).resolve().parent / "bounds_pins.json"

CERTIFY_QUERIES = [
    # certified
    (2, 10, 10**6), (2, 2, 10**6), (2, 25, 2 * 10**6), (2, 4, 10**9), (2, 3, 10**12),
    (4, 2, 10**6), (5, 16, 10**12), (6, 3, 10**5), (5, 40, 10**4),
    # failure "inequality"
    (3, 10, 10**6), (2, 2, 679), (3, 16, 10**9), (2, 3, 3 * 10**4),
    # failure "no-prime-power-in-window"
    (2, 2, 62), (2, 2, 100), (3, 2, 60), (2, 25, 3000),
    # refused with exit 2: the entry hypothesis, then k below the recipe
    (2, 10, 678), (3, 10, 110), (2, 5, 300), (1, 10, 1000),
]
TABLE_GRIDS = [
    ["--k", "1", "2", "3", "4", "--t", "2", "10", "--m", "100", "10000", "1000000"],
    ["--k", "2", "5", "--t", "3", "16", "25", "--m", "679", "3000", "10000000", "--c1", "0.25"],
]


def _argvs() -> dict[str, list[str]]:
    argvs = {f"certify {k} {t} {m}": ["certify", "--k", str(k), "--t", str(t), "--m", str(m)]
             for k, t, m in CERTIFY_QUERIES}
    argvs.update({"bounds-table " + " ".join(g): ["bounds-table", *g] for g in TABLE_GRIDS})
    return argvs


def _digest(argv: list[str]) -> dict:
    """Exit code and the SHA-256 of stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def test_pins_cover_the_queries():
    assert set(json.loads(PINS.read_text())) == set(_argvs())


@pytest.mark.parametrize("key", list(_argvs()))
def test_output_matches_pinned_digest(key):
    assert _digest(_argvs()[key]) == json.loads(PINS.read_text())[key]


if __name__ == "__main__":
    print(json.dumps({key: _digest(argv) for key, argv in _argvs().items()}, indent=1))
