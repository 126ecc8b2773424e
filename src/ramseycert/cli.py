"""Command-line front end: build/audit/spectrum/alpha/qrset/conjecture/random/
certify/bounds-table/export/import with stable JSON output.

Exit codes: 0 = success/verified, 1 = a verification check failed,
2 = invalid input, 3 = budget exhausted (inconclusive).  JSON mode prints a
single document on stdout; diagnostics go to stderr.  Human mode prints every
field the JSON document has, one dotted path per line.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import os
import sys

from . import __version__
from .bounds import (
    BoundQuery,
    HypothesisViolation,
    bounds_table,
    certify,
    replay_certificate,
)
from .fields import field_ops, make_field
from .graphs import build_g_plus, build_g_times, from_g2t, read_g2t, structural_audit, to_g2t, write_g2t
from .independence import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    SEMANTICS,
    conjecture_check,
    explicit_qr_set,
    max_independent_set_exact,
    verify_independent,
)
from .random_model import DegenerateRecipeError, lemma_parameters, monte_carlo_check
from .spectral import SpectralSolveError, verify_spectrum

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _sanitize(obj):
    """JSON-safe copy: non-finite floats become strings, tuples become lists."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]} = {obj}"


def _emit(doc: dict, as_json: bool) -> None:
    doc = _sanitize(doc)
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in _flatten(doc):
            print(line)


def load_schema(subcommand: str) -> dict:
    """The shipped JSON schema for a subcommand's --json output document."""
    ref = importlib.resources.files("ramseycert") / "schemas" / f"{subcommand}.json"
    try:
        return json.loads(ref.read_text())
    except FileNotFoundError:
        raise ValueError(f"no schema shipped for subcommand {subcommand!r}") from None


def _build_from_flags(variant: str, q: int, t: int):
    if variant == "plus":
        return build_g_plus(q, t)
    if variant == "times":
        return build_g_times(q, t)
    raise ValueError("variant must be 'plus' or 'times'")


# -- handlers ---------------------------------------------------------------------


def _cmd_field(args) -> int:
    F = make_field(args.p, args.a)
    doc = {
        "p": F.p, "a": F.a, "q": F.q,
        "modulus_coeffs_little_endian": list(F.modulus),
        "generator": F.generator,
    }
    if args.op:
        if args.x is None:
            raise ValueError("--op needs --x (and --y for binary ops)")
        doc["op"] = {"name": args.op, "x": args.x, "y": args.y,
                     "result": field_ops(F, args.op, args.x, args.y)}
    _emit(doc, args.json)
    return EXIT_OK


def _cmd_build(args) -> int:
    g = _build_from_flags(args.variant, args.q, args.t)
    if not args.out:
        raise ValueError("--out is required for build")
    write_g2t(g, args.out)
    _emit({"written": args.out, "variant": args.variant, "q": args.q, "t": args.t,
           "n": g.n, "edges": g.edge_count(), "loops": g.loop_count()}, args.json)
    return EXIT_OK


def _cmd_audit(args) -> int:
    g = read_g2t(args.file)
    report = structural_audit(g)
    _emit(report.to_dict(), args.json)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_spectrum(args) -> int:
    g = read_g2t(args.file)
    report = verify_spectrum(g)
    _emit(report.to_dict(), args.json)
    ok = report.annihilator_verified and report.identities_ok and report.matches_lemma is not False
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_alpha(args) -> int:
    g = read_g2t(args.file)
    res = max_independent_set_exact(
        g, semantics=args.semantics,
        node_budget=args.budget_nodes, time_budget=args.budget_secs)
    _emit(res.to_dict(), args.json)
    return EXIT_OK if res.exact else EXIT_BUDGET


def _cmd_qrset(args) -> int:
    g = build_g_plus(args.p * args.p, args.p)
    vs = explicit_qr_set(args.p, g)
    ok = verify_independent(g, vs, "ignore-loops")
    _emit({"p": args.p, "q": args.p * args.p, "t": args.p, "n": g.n,
           "size": len(vs), "expected_size": (args.p * args.p - 1) // 2,
           "vertices": list(vs), "verified_independent": ok}, args.json)
    return EXIT_OK if ok and len(vs) == (args.p * args.p - 1) // 2 else EXIT_CHECK_FAILED


def _cmd_conjecture(args) -> int:
    report = conjecture_check(a=args.a, p=args.p,
                              node_budget=args.budget_nodes, time_budget=args.budget_secs)
    _emit(report, args.json)
    if report["status"] == "match":
        return EXIT_OK
    if report["status"] == "inconclusive-budget":
        return EXIT_BUDGET
    return EXIT_CHECK_FAILED


def _cmd_random(args) -> int:
    recipe = lemma_parameters(args.m, args.t, args.c3, seed=args.seed)
    report = monte_carlo_check(recipe, args.samples, threads=args.threads)
    _emit(report, args.json)
    s = report["summary"]
    ok = (s["edge_within_4sigma"] and s["witness_within_3x"]
          and s["free_rule_ok"] is not False and s["frieze_ok"] is not False)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_certify(args) -> int:
    query = BoundQuery(k=args.k, t=args.t, m=args.m)
    cert = certify(query, args.variant)
    doc = cert.to_dict()
    doc["replay"] = replay_certificate(doc)
    _emit(doc, args.json)
    return EXIT_OK if cert.certified_n is not None and doc["replay"]["ok"] else EXIT_CHECK_FAILED


def _cmd_bounds_table(args) -> int:
    rows = bounds_table(args.k, args.t, args.m, c1=args.c1)
    _emit({"rows": rows}, args.json)
    return EXIT_OK


def _cmd_export(args) -> int:
    g = read_g2t(args.file)
    if not args.out:
        raise ValueError("--out is required for export")
    write_g2t(g, args.out)
    _emit({"written": args.out, "n": g.n, "edges": g.edge_count()}, args.json)
    return EXIT_OK


def _cmd_import(args) -> int:
    with open(args.file) as fh:
        text = fh.read()
    g = from_g2t(text)
    roundtrip = to_g2t(g) == text
    _emit({"file": args.file, "variant": g.meta.variant, "q": g.meta.q, "t": g.meta.t,
           "n": g.n, "edges": g.edge_count(), "loops": g.loop_count(),
           "canonical_form": roundtrip}, args.json)
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


def _add_common(sp) -> None:
    sp.add_argument("--json", action="store_true", help="emit one JSON document on stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ramseycert",
        description="Audit K_{2,t+1}-free constructions and certify Ramsey lower bounds.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("field", help="field parameters and single operations")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--op", choices=["add", "sub", "mul", "pow", "neg", "inv", "trace"])
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    _add_common(p)
    p.set_defaults(fn=_cmd_field)

    p = sub.add_parser("build", help="build a construction and write a g2t file")
    p.add_argument("--variant", choices=["plus", "times"], required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("audit", help="structural audit of a g2t graph")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("spectrum", help="exact spectrum certification of a construction")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("alpha", help="exact independence number under budgets")
    p.add_argument("file")
    p.add_argument("--semantics", choices=list(SEMANTICS), default="ignore-loops")
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--budget-secs", type=float, default=DEFAULT_TIME_BUDGET)
    _add_common(p)
    p.set_defaults(fn=_cmd_alpha)

    p = sub.add_parser("qrset", help="the explicit residue independent set in plus(p^2, p)")
    p.add_argument("--p", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_qrset)

    p = sub.add_parser("conjecture", help="measure alpha for a conjecture family member")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--a", type=int, help="even-characteristic family: q=2^a, t=2^(a-1)")
    g.add_argument("--p", type=int, help="odd family: q=p^2, t=p")
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--budget-secs", type=float, default=DEFAULT_TIME_BUDGET)
    _add_common(p)
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("random", help="recipe parameters and Monte-Carlo checks")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--c3", type=float, default=None,
                   help="recipe constant (default: the asymptotic constant, often degenerate)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="parallel sampling workers (samples are stream-keyed, so results are identical)")
    _add_common(p)
    p.set_defaults(fn=_cmd_random)

    p = sub.add_parser("certify", help="run the certification pipeline for r_k(K_{2,t}; K_m)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--variant", choices=["k2", "k3plus"], default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("bounds-table", help="bound table over a (k, t, m) grid")
    p.add_argument("--k", type=int, nargs="+", required=True)
    p.add_argument("--t", type=int, nargs="+", required=True)
    p.add_argument("--m", type=int, nargs="+", required=True)
    p.add_argument("--c1", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(fn=_cmd_bounds_table)

    p = sub.add_parser("export", help="re-serialize a g2t file in canonical form")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("import", help="parse and validate a g2t file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=_cmd_import)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HypothesisViolation as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateRecipeError as exc:
        print(f"degenerate recipe: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SpectralSolveError as exc:
        print(f"spectrum check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
