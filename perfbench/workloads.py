"""The benchmark's two workloads: seeded task lists, canonical outputs, oracles.

Every task is one closed-loop unit of work.  ``run`` is the timed call;
``canon`` turns its output into the JSON whose digest is compared with the
reference recorded on the seed commit, and ``oracle`` is an independent check
run after the pass.  Neither is timed.  Library calls go through module
attributes (``graphs.build_g_plus``...) so the traced run sees them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIM = Path(__file__).resolve().parent / "clishim.py"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
from ramseycert import graphs, independence, random_model, spectral  # noqa: E402

if not Path(graphs.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"ramseycert was imported from {graphs.__file__}, not from {SRC}")

# fleet: the audit-sweep fleet minus the 19 cases with n above this.  Together
# they take about 80 s (plus(128,2)'s dense spectrum alone about 23 s); a pass
# of the rest takes about 3 s, so a run holds enough passes for steady medians
# on a noisy shared 2-core box.
FLEET_N_MAX = 1000

# alpha: the conjecture families under both loop semantics, except a = 8 under
# ignore-loops (289k nodes, about 6 s: one task that long leaves a run too few
# passes for steady medians), plus sparse G(n, p) draws with fixed seeds (their
# search cost is heavy-tailed, so drawing them from the workload seed would make
# run_s depend on the seed).
ALPHA_FAMILIES = [(2**a, 2**(a - 1)) for a in range(3, 9)] + [(p * p, p) for p in (3, 5)]
ALPHA_LEFT_OUT = {(256, 128, "ignore-loops")}
ALPHA_GNP = ((100, 0.05, 1), (100, 0.1, 2), (100, 0.3, 0), (100, 0.3, 1),
             (100, 0.3, 2), (100, 0.3, 3))
ALPHA_NODE_BUDGET = 10**7
ALPHA_TIME_BUDGET = 120.0

# random: the acceptance-07 recipe, one Monte-Carlo sample per task; the
# workload seed draws RANDOM_TASKS recipe seeds out of RANDOM_POOL.
RANDOM_POOL = range(1, 33)
RANDOM_TASKS = 3

# cli: the README quick-start lines except `random`, each with --json.
CLI_LINES = (
    ("build", ["build", "--variant", "plus", "--q", "9", "--t", "3", "--out", "plus_9_3.g2t"]),
    ("audit", ["audit", "plus_9_3.g2t"]),
    ("spectrum", ["spectrum", "plus_9_3.g2t"]),
    ("alpha", ["alpha", "plus_9_3.g2t", "--semantics", "ignore-loops"]),
    ("qrset", ["qrset", "--p", "5"]),
    ("conjecture", ["conjecture", "--a", "6"]),
    ("certify", ["certify", "--k", "2", "--t", "10", "--m", "1000000"]),
    ("bounds-table", ["bounds-table", "--k", "2", "3", "--t", "10", "20",
                      "--m", "100000", "1000000"]),
)
CLI_TIMEOUT = 120.0
CLI_SCHEMA = {"certify": "certificate"}  # subcommands whose schema has another name

# keys that may change while outputs stay correct: timings, and the B&B's
# search path (its witness is checked by the oracle instead)
VOLATILE = frozenset({"seconds", "nodes_explored", "witness"})


@dataclass
class Task:
    id: str
    run: Callable[[], Any]
    canon: Callable[[Any], Any]
    oracle: Callable[[Any], bool] | None = None
    trace_file: Path | None = None  # spans a traced CLI process writes
    exit_code: Callable[[Any], int] = lambda out: 0


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def scrub(obj):
    """Copy of a JSON document without the VOLATILE keys."""
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items() if k not in VOLATILE}
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


def fleet_cases() -> list[tuple[str, int, int]]:
    """The 94 (variant, q, t) cases, taken from scripts/run_audit_sweep.py."""
    mod = sys.modules.get("run_audit_sweep")
    if mod is None:
        spec = importlib.util.spec_from_file_location(
            "run_audit_sweep", ROOT / "scripts" / "run_audit_sweep.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules["run_audit_sweep"] = mod
        spec.loader.exec_module(mod)
    return list(mod.fleet(128))


# -- fleet ----------------------------------------------------------------------


def _fleet_run(variant: str, q: int, t: int):
    build = graphs.build_g_plus if variant == "plus" else graphs.build_g_times
    g = build(q, t)
    text = graphs.to_g2t(g)
    g2 = graphs.from_g2t(text)
    return g, text, g2, graphs.structural_audit(g2), spectral.verify_spectrum(g2)


def _fleet_canon(out) -> dict:
    g, text, g2, audit, rep = out
    return {
        "g2t_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "roundtrip": g2.rows == g.rows and g2.labels == g.labels and g2.meta == g.meta,
        "audit": audit.to_dict(),
        "spectrum": rep.to_dict(),
    }


def _fleet_tasks() -> list[Task]:
    return [Task(f"fleet/{v}/{q}/{t}", lambda v=v, q=q, t=t: _fleet_run(v, q, t), _fleet_canon)
            for v, q, t in fleet_cases() if q * (q - 1) // t <= FLEET_N_MAX]


# -- alpha ----------------------------------------------------------------------


def _alpha_canon(r) -> dict:
    return scrub(r.to_dict())


def _alpha_oracle(g, sem: str, lower: int, witness, exhaustive: bool) -> bool:
    """The witness is an independent set of size ``lower``; when recording, the
    2^n scan also confirms ``lower`` is the maximum.  A pass need not repeat
    that scan (seconds at n = 24): matching the recorded digest implies it."""
    ok = len(set(witness)) == lower and independence.verify_independent(g, witness, sem)
    if exhaustive and g.n <= 26:
        ok = ok and independence.alpha_bruteforce(g, sem) == lower
    return ok


def _alpha_task(tid: str, g, sem: str, exhaustive: bool) -> Task:
    def run():
        return independence.max_independent_set_exact(
            g, semantics=sem, node_budget=ALPHA_NODE_BUDGET, time_budget=ALPHA_TIME_BUDGET)
    return Task(tid, run, _alpha_canon,
                lambda r: _alpha_oracle(g, sem, r.lower, r.witness, exhaustive))


def _alpha_tasks(exhaustive: bool) -> list[Task]:
    tasks = []
    for q, t in ALPHA_FAMILIES:
        g = graphs.build_g_plus(q, t)
        for sem in independence.SEMANTICS:
            if (q, t, sem) not in ALPHA_LEFT_OUT:
                tasks.append(_alpha_task(f"alpha/plus/{q}/{t}/{sem}", g, sem, exhaustive))
    for n, p, s in ALPHA_GNP:
        g = random_model.sample_gnp(n, p, seed=s)
        tasks.append(_alpha_task(f"alpha/gnp/{n}/{p}/{s}/ignore-loops", g, "ignore-loops",
                                 exhaustive))
    return tasks


# -- random ---------------------------------------------------------------------


def _random_run(seed: int) -> dict:
    recipe = random_model.lemma_parameters(100, 10, 1.0, seed=seed)
    return random_model.monte_carlo_check(recipe, samples=1, threads=1)


def _random_tasks(seeds) -> list[Task]:
    return [Task(f"random/{s}", lambda s=s: _random_run(s), scrub) for s in seeds]


# -- cli ------------------------------------------------------------------------


def _cli_oracle(sub: str, work_dir: Path, doc: dict, exhaustive: bool) -> bool:
    import jsonschema
    from ramseycert.cli import load_schema

    jsonschema.validate(doc, load_schema(CLI_SCHEMA.get(sub, sub)))
    if sub == "alpha":
        g = graphs.read_g2t(str(work_dir / "plus_9_3.g2t"))
        return _alpha_oracle(g, doc["loop_semantics"], doc["lower"], doc["witness"],
                             exhaustive)
    if sub == "conjecture":
        g = graphs.build_g_plus(doc["q"], doc["t"])
        return all(_alpha_oracle(g, sem, r["lower"], r["witness"], exhaustive)
                   for sem, r in doc["results"].items())
    return True


def _cli_task(sub: str, argv: list[str], work_dir: Path, traced: bool,
              exhaustive: bool) -> Task:
    trace_out = work_dir / f"spans-{sub}.json"

    def run():
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if traced:
            cmd = [sys.executable, str(SHIM), *argv, "--json"]
            env["PERFBENCH_TRACE_OUT"] = str(trace_out)
        else:
            cmd = [sys.executable, "-m", "ramseycert.cli", *argv, "--json"]
        proc = subprocess.run(cmd, cwd=work_dir, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT)
        return proc.returncode, proc.stdout

    def canon(out):
        rc, stdout = out
        return {"exit": rc, "doc": scrub(json.loads(stdout))}

    return Task(f"cli/{sub}", run, canon,
                lambda out: _cli_oracle(sub, work_dir, json.loads(out[1]), exhaustive),
                trace_out if traced else None, lambda out: out[0])


# -- selection ------------------------------------------------------------------


def make_tasks(workload: str, seed: int | None, work_dir: Path, traced: bool = False) -> list[Task]:
    """The tasks of one pass, in the order the seed gives; seed None gives
    every task the reference covers, in a fixed order, with exhaustive oracles.

    ``pipeline`` is the fleet plus the CLI quick-start lines; ``search`` is the
    exact alpha searches plus the Monte-Carlo samples.
    """
    rng = random.Random(f"{workload}:{seed}")
    exhaustive = seed is None
    if workload == "pipeline":
        tasks = _fleet_tasks() + [_cli_task(sub, argv, work_dir, traced, exhaustive)
                                  for sub, argv in CLI_LINES]
    elif workload == "search":
        pool = list(RANDOM_POOL)
        tasks = _alpha_tasks(exhaustive) + _random_tasks(
            pool if exhaustive else rng.sample(pool, RANDOM_TASKS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if exhaustive:
        return tasks
    rng.shuffle(tasks)
    if workload == "pipeline":  # `build` writes the file the other CLI lines read
        build = next(i for i, t in enumerate(tasks) if t.id == "cli/build")
        first = next(i for i, t in enumerate(tasks) if t.id.startswith("cli/"))
        tasks.insert(first, tasks.pop(build))
    return tasks
