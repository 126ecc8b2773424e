"""ramseycert benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload {pipeline,search} --seed N
                             --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

Run from the root of a checkout.  Each pass runs in a fresh worker process
(perfbench/worker.py), one task at a time.  --trace 0 first starts SETUP_RUNS
set-up-only workers, then runs passes until the next one would end after S
seconds (at least MIN_PASSES), and reports the end-to-end metrics.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead.  Every task's output digest is compared with the
reference recorded on the seed commit.  The last stdout line is the result
JSON; the lines before it give each metric with its unit and the stamp.
``--workload all`` prints that block for every workload, untraced then traced.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("pipeline", "search")

SETUP_RUNS = 4
MIN_PASSES = 2
WORKER_TIMEOUT = 170.0
TAIL_BEYOND = 10  # task_tail_s: the highest percentile with this many samples above it

UNITS = {"setup_s": "s", "run_s": "s", "task_p50_s": "s", "task_tail_s": "s",
         "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, work_dir: Path, *flags: str) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON line and its spawn time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", str(work_dir), *flags]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {workload} {' '.join(flags)} timed out") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {workload} {' '.join(flags)} exited {proc.returncode}:\n"
                         f"{err.strip()[-3000:]}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and its rank
    as a percentage; the median when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def judge(passes: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """Tasks attempted and failed; a task fails when it raised, its oracle
    failed, or its digest or exit code differs from the reference."""
    attempted, bad = 0, []
    for p in passes:
        for t in p["tasks"]:
            attempted += 1
            ref = reference.get(t["id"])
            if t["error"] is not None or t["oracle"] is False:
                bad.append(f"{t['id']}: {t['error'] or 'oracle failed'}")
            elif ref is None:
                bad.append(f"{t['id']}: no reference output")
            elif (t["digest"], t["exit"]) != (ref["digest"], ref["exit"]):
                bad.append(f"{t['id']}: output differs from the reference")
    return attempted, len(bad), bad


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def measure(args, work_dir: Path) -> tuple[dict, list[dict], dict]:
    """Run the passes; returns (metrics, every pass, stamp extras)."""
    deadline = time.perf_counter() + args.seconds
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            doc, spawned = spawn(args.workload, args.seed, work_dir, "--setup-only")
            setups.append(doc["first"] - spawned)

    untraced, traced = [], []
    last = 0.0
    while True:
        done = len(untraced) + len(traced)
        if done >= MIN_PASSES and time.perf_counter() + last > deadline:
            break
        use_trace = args.trace and done % 2 == 1
        started = time.perf_counter()
        doc, spawned = spawn(args.workload, args.seed, work_dir,
                             *(["--trace"] if use_trace else []))
        last = time.perf_counter() - started
        doc["setup_s"] = doc["first"] - spawned
        doc["run_s"] = doc["end"] - doc["first"]
        (traced if use_trace else untraced).append(doc)

    run_s = statistics.median(p["run_s"] for p in untraced)
    extras = {"passes": len(untraced), "traced_passes": len(traced)}
    if args.trace:
        per_pass = [spans.layer_metrics(p["spans"], p["run_s"]) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_ratio"] = statistics.median(p["run_s"] for p in traced) / run_s
        return metrics, untraced + traced, extras

    latencies = [t["seconds"] for p in untraced for t in p["tasks"]]
    tail_s, tail_pct = tail(latencies)
    setups += [p["setup_s"] for p in untraced]
    extras.update(task_samples=len(latencies), tail_percentile=round(tail_pct, 1),
                  setup_samples=len(setups))
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in untraced) / 1024,
    }
    return metrics, untraced, extras


def record(work_dir: Path) -> int:
    reference = {}
    for workload in WORKLOADS:
        doc, _ = spawn(workload, 0, work_dir, "--record")
        _, failed, bad = judge([doc], {t["id"]: t for t in doc["tasks"]})
        if failed:
            raise BenchError("refusing to record failing tasks:\n" + "\n".join(bad))
        reference.update({t["id"]: {"digest": t["digest"], "exit": t["exit"]}
                          for t in doc["tasks"]})
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} task outputs in {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return max(main(["--workload", w, "--seed", str(args.seed), "--seconds",
                         str(args.seconds), "--trace", str(trace)])
                   for w in WORKLOADS for trace in (0, 1))

    for needed in (ROOT / "src" / "ramseycert" / "__init__.py",
                   ROOT / "scripts" / "run_audit_sweep.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a ramseycert "
                  "checkout", file=sys.stderr)
            return 2
    if not args.record and not REFERENCE.is_file():
        print("error: no reference outputs; run with --record on the seed commit",
              file=sys.stderr)
        return 2

    # byte-compile before timing, so no pass pays for writing .pyc files
    for tree in ("src", "scripts", "perfbench"):
        compileall.compile_dir(str(ROOT / tree), quiet=1)
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        if args.record:
            return record(work_dir)
        metrics, passes, extras = measure(args, work_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted, failed, bad = judge(passes, json.loads(REFERENCE.read_text()))
    for line in bad:
        print(f"FAILED {line}", file=sys.stderr)
    first = passes[0]
    stamp = {k: first[k] for k in ("nproc", "python", "numpy", "blas", "blas_version",
                                   "blas_threads")}
    stamp.update(commit=git_commit(), workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, **extras)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    out = {}
    for name, value in metrics.items():
        unit = UNITS.get(name) or spans.LAYER_UNITS[name]
        print(f"{name} = {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    print(f"failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} tasks)")
    if not args.trace:
        print(f"task_tail_s is the p{extras['tail_percentile']} of "
              f"{extras['task_samples']} task latencies")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
