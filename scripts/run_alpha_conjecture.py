#!/usr/bin/env python3
"""Measure independence numbers across the two conjecture families.

Families (q = field size, t = subgroup order):
  even-char   q = 2^a, t = 2^(a-1): conjectured alpha = 2^(a/2) for even a,
              2^((a-1)/2) + 1 for odd a (in scope for a >= 6)
  odd-square  q = p^2, t = p: conjectured alpha = p^2 - 1

Defaults cover the desk-scale members.  a = 7 and a = 8 (both semantics) take
about 0.6 s and 3 s on a 2-core VM; a = 9 and 10 are overnight runs — pass
them explicitly and raise the budgets:

    python scripts/run_alpha_conjecture.py --a 9 --budget-secs 43200 --budget-nodes 0
"""

import argparse
import json
import sys
import time

from ramseycert.independence import DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET, conjecture_check


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=int, nargs="*", default=[4, 5, 6],
                    help="even-characteristic members q=2^a, t=2^(a-1)")
    ap.add_argument("--p", type=int, nargs="*", default=[3, 5],
                    help="odd members q=p^2, t=p")
    ap.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET,
                    help="0 = unlimited")
    ap.add_argument("--budget-secs", type=float, default=DEFAULT_TIME_BUDGET,
                    help="per search, per semantics")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    node_budget = args.budget_nodes or (1 << 62)

    reports, bad = [], 0
    for kind, values in (("a", args.a), ("p", args.p)):
        for v in values:
            t0 = time.time()
            rep = conjecture_check(**{kind: v}, node_budget=node_budget,
                                   time_budget=args.budget_secs)
            rep["seconds"] = round(time.time() - t0, 2)
            reports.append(rep)
            if rep["status"] == "mismatch" and rep["in_conjecture_scope"]:
                bad += 1
            if not args.json:
                meas = {s: r["lower"] if r["exact"] else f"[{r['lower']},{r['upper']}]"
                        for s, r in rep["results"].items()}
                scope = "" if rep["in_conjecture_scope"] else " (out of conjecture scope)"
                print(f"{rep['family']:10s} {kind}={v:<3d} q={rep['q']:<5d} "
                      f"conjectured={rep['conjectured_alpha']:<5d} measured={meas} "
                      f"{rep['status']}{scope}  ({rep['seconds']}s)")

    if args.json:
        print(json.dumps({"reports": reports, "mismatches": bad}, indent=2, sort_keys=True))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
