"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed N --work-dir D [--trace]
                                [--setup-only | --record]

Set-up is the interpreter start, the imports and the input generation of
``workloads.make_tasks``; ``first`` is the clock reading when it ends.  The
pass then runs the tasks one after another, timing each ``run``; canonical
digests are taken between tasks and oracles after the pass, outside every
task's time.  Clock readings are ``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so the parent can subtract its own readings.
``--record`` runs every task the reference covers instead of a seeded pass.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer


def blas_stamp() -> dict:
    """numpy version, BLAS name/version and the BLAS thread count in use."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        name = version = None
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": name, "blas_version": version,
            "blas_threads": threads, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def run_pass(tasks, tracer) -> dict:
    results, kept = [], []
    if tracer is not None:
        tracer.active = True
    for task in tasks:
        if tracer is not None:
            tracer.task = task.id
        rec = {"id": task.id, "digest": None, "exit": None, "error": None, "oracle": None}
        t0 = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a raising task is a failed task, not a failed pass
            out, rec["error"] = None, f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - t0
        if rec["error"] is None:
            try:
                rec["digest"] = workloads.digest(task.canon(out))
                rec["exit"] = task.exit_code(out)
            except Exception as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
        if task.trace_file is not None:  # a traced CLI process: span it from outside
            parent = len(tracer.spans)
            tracer.add_span("cli.process", t0, t0 + rec["seconds"])
            if task.trace_file.exists():
                tracer.merge(json.loads(task.trace_file.read_text()), task.id, parent)
                task.trace_file.unlink()
        results.append(rec)
        kept.append(out if task.oracle is not None else None)
    end = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    # the largest process of the pass: this worker or one of its CLI processes
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    for rec, task, out in zip(results, tasks, kept):
        if task.oracle is not None and rec["error"] is None:
            try:
                rec["oracle"] = bool(task.oracle(out))
            except Exception as exc:
                rec["oracle"], rec["error"] = False, f"oracle {type(exc).__name__}: {exc}"
    return {"end": end, "peak_rss_kb": peak_kb, "tasks": results}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    work_dir = Path(args.work_dir)
    tasks = workloads.make_tasks(args.workload, None if args.record else args.seed,
                                 work_dir, args.trace)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    first = time.perf_counter()
    if args.setup_only:
        doc = {"first": first}
    else:
        doc = {"first": first, **run_pass(tasks, tracer), **blas_stamp()}
        if tracer is not None:
            doc["spans"] = tracer.spans
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
