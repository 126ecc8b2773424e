#!/usr/bin/env python3
"""SHA-256 digests of each fleet case's g2t text, `audit --json`, `spectrum --json`
and `alpha --json`.

``tests/golden_fleet.json`` pins these digests, with the exit codes, for all
94 fleet cases, so a refactor that changes one output byte fails.  The cases
with n <= TIER1_MAX_N also pin `alpha --json --budget-nodes ALPHA_NODE_BUDGET`
under both loop semantics, without its wall-time ``seconds`` line: the node
budget makes the bracket, the node count and the witness deterministic.  The
Tier-1 suite checks the cases with n <= TIER1_MAX_N; ``check`` checks the
larger ones.  Write the file only at a commit whose outputs are the intended
ones, and say so when an output change is intended.

    PYTHONPATH=src python scripts/golden_fleet.py write tests/golden_fleet.json
    PYTHONPATH=src python scripts/golden_fleet.py check tests/golden_fleet.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from ramseycert import cli
from ramseycert.graphs import build_g_plus, build_g_times, fleet, to_g2t
from ramseycert.independence import SEMANTICS

WRITE_COMMAND = "PYTHONPATH=src python scripts/golden_fleet.py write tests/golden_fleet.json"

# the cases up to this size are cheap enough for Tier-1 (about 8 s for 75)
TIER1_MAX_N = 1000

# the alpha digests' node budget: 150 searches take about 2 s, and 91 close
ALPHA_NODE_BUDGET = 2000


def case_key(variant: str, q: int, t: int) -> str:
    return f"{variant} {q} {t}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list[str]) -> tuple[str, int]:
    """stdout and exit code of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


def digests(variant: str, q: int, t: int) -> dict:
    """n, the g2t digest, and the stdout digest and exit code of `audit --json`
    and `spectrum --json` run in-process on that file; for n <= TIER1_MAX_N
    also of `alpha --json` under each loop semantics, ``seconds`` line removed."""
    g = (build_g_plus if variant == "plus" else build_g_times)(q, t)
    text = to_g2t(g)
    out = {"n": g.n, "g2t": _sha256(text)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.g2t")
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        for cmd in ("audit", "spectrum"):
            stdout, out[f"{cmd}_exit"] = _run([cmd, path, "--json"])
            out[cmd] = _sha256(stdout)
        if g.n <= TIER1_MAX_N:
            for sem in SEMANTICS:
                stdout, out[f"alpha_{sem}_exit"] = _run(
                    ["alpha", path, "--json", "--semantics", sem,
                     "--budget-nodes", str(ALPHA_NODE_BUDGET)])
                lines = stdout.splitlines(keepends=True)
                out[f"alpha_{sem}"] = _sha256("".join(
                    ln for ln in lines if not ln.startswith('  "seconds": ')))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["write", "check"])
    ap.add_argument("path")
    args = ap.parse_args(argv)

    if args.mode == "write":
        doc = {"command": WRITE_COMMAND,
               "cases": {case_key(*c): digests(*c) for c in fleet()}}
        with open(args.path, "w", newline="\n") as fh:
            fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return 0

    with open(args.path) as fh:
        golden = json.load(fh)["cases"]
    bad = 0
    for c in fleet():
        want = golden[case_key(*c)]
        if want["n"] <= TIER1_MAX_N:
            continue
        got = digests(*c)
        ok = got == want
        bad += not ok
        print(f"{case_key(*c):16s} n={got['n']:<6d} {'ok' if ok else 'CHANGED'}", flush=True)
    print(f"{bad} changed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
