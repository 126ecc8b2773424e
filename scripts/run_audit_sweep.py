#!/usr/bin/env python3
"""Audit + spectrum sweep over every construction with q <= q-max.

For each valid (variant, q, t) pair this builds the graph, runs the full
structural audit (regularity, loops, common-neighborhood histogram) and the
exact spectrum certification, and prints one row per graph.  A nonzero exit
means at least one check failed.

Typical run (about a minute at the default q-max 128):

    python scripts/run_audit_sweep.py
    python scripts/run_audit_sweep.py --q-max 64 --skip-spectrum
"""

import argparse
import json
import sys
import time

from ramseycert import build_g_plus, build_g_times, structural_audit, verify_spectrum
from ramseycert.graphs import fleet


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q-max", type=int, default=128)
    ap.add_argument("--skip-spectrum", action="store_true",
                    help="structural audit only (much faster on the big graphs)")
    ap.add_argument("--json", action="store_true", help="one JSON summary on stdout")
    args = ap.parse_args(argv)

    rows, failures = [], 0
    t_start = time.time()
    for variant, q, t in fleet(args.q_max):
        build = build_g_plus if variant == "plus" else build_g_times
        t0 = time.time()
        g = build(q, t)
        audit = structural_audit(g)
        row = {"variant": variant, "q": q, "t": t, "n": g.n,
               "audit_passed": audit.passed, "max_common": audit.max_common}
        if not args.skip_spectrum:
            rep = verify_spectrum(g)
            row["annihilator"] = rep.annihilator_verified
            row["identities"] = rep.identities_ok
            row["matches_lemma"] = rep.matches_lemma
            spectrum_bad = not rep.passed
        else:
            spectrum_bad = False
        row["seconds"] = round(time.time() - t0, 2)
        rows.append(row)
        if not audit.passed or spectrum_bad:
            failures += 1
        if not args.json:
            flags = "ok" if (audit.passed and not spectrum_bad) else "FAIL"
            print(f"{variant:5s} q={q:<4d} t={t:<4d} n={g.n:<6d} "
                  f"max_common={audit.max_common:<3d} {flags}  ({row['seconds']}s)")

    total = round(time.time() - t_start, 1)
    if args.json:
        print(json.dumps({"rows": rows, "failures": failures, "seconds": total},
                         indent=2, sort_keys=True))
    else:
        print(f"{len(rows)} graphs, {failures} failures, {total}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
