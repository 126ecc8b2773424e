"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import run
import spans
import workloads
from worker import run_pass

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def _subset(workload: str, tmp_path, keep, traced: bool = False):
    return [t for t in workloads.make_tasks(workload, 3, tmp_path, traced) if keep(t.id)]


def _small_fleet(tid: str) -> bool:
    parts = tid.split("/")
    return parts[0] == "fleet" and int(parts[2]) <= 16


def _small_alpha(tid: str) -> bool:
    parts = tid.split("/")
    return parts[:2] == ["alpha", "plus"] and int(parts[2]) <= 64


def _is_random(tid: str) -> bool:
    return tid.startswith("random/")


def _traced_pass(tasks):
    tracer = spans.Tracer()
    tracer.install()
    try:
        doc = run_pass(tasks, tracer)
    finally:
        tracer.uninstall()
    return doc, tracer.spans


def test_fleet_is_the_conftest_fleet():
    spec = importlib.util.spec_from_file_location("perfbench_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert workloads.fleet_cases() == conftest.ALL_CASES
    assert len(conftest.ALL_CASES) == 94


def test_reference_covers_exactly_the_task_pool(tmp_path):
    pool = {t.id for w in run.WORKLOADS for t in workloads.make_tasks(w, None, tmp_path)}
    assert pool == set(REFERENCE)
    for seed in (0, 1, 12345):
        for w in run.WORKLOADS:
            ids = [t.id for t in workloads.make_tasks(w, seed, tmp_path)]
            assert set(ids) <= pool and len(ids) == len(set(ids))
            assert ids == [t.id for t in workloads.make_tasks(w, seed, tmp_path)]
            cli = [i for i, tid in enumerate(ids) if tid.startswith("cli/")]
            assert not cli or ids[cli[0]] == "cli/build"


def test_tracer_patches_every_namespace():
    import ramseycert
    from ramseycert import cli, graphs, independence, random_model

    workloads.fleet_cases()  # loads scripts/run_audit_sweep.py
    sweep = sys.modules["run_audit_sweep"]
    originals = (random_model.greedy_alpha, random_model.max_independent_set_exact,
                 independence.build_g_plus, ramseycert.build_g_plus, sweep.build_g_plus,
                 cli.read_g2t, cli.max_independent_set_exact)
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = (random_model.greedy_alpha, random_model.max_independent_set_exact,
                   independence.build_g_plus, ramseycert.build_g_plus, sweep.build_g_plus,
                   cli.read_g2t, cli.max_independent_set_exact)
        for orig, new in zip(originals, patched):
            assert new is not orig and new.__wrapped__ is orig
        assert graphs.build_g_plus is independence.build_g_plus
    finally:
        tracer.uninstall()
    assert independence.build_g_plus is originals[2]
    assert random_model.greedy_alpha is originals[0]


def test_nested_calls_through_imported_names_are_spans():
    from ramseycert import independence

    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        independence.conjecture_check(a=4)
    finally:
        tracer.uninstall()
    names = [s[spans.NAME] for s in tracer.spans]
    root = names.index("independence.conjecture_check")
    build = names.index("graphs.build_g_plus")
    assert tracer.spans[build][spans.PARENT] == root
    assert names.count("independence.max_independent_set_exact") == 2


def test_span_counts_match_call_counts(tmp_path):
    fleet = _subset("pipeline", tmp_path, _small_fleet)
    doc, recorded = _traced_pass(fleet)
    count = Counter(s[spans.NAME] for s in recorded)
    builds = count["graphs.build_g_plus"] + count["graphs.build_g_times"]
    for name in ("graphs.to_g2t", "graphs.from_g2t", "graphs.structural_audit",
                 "spectral.verify_spectrum"):
        assert count[name] == len(fleet)
    assert builds == len(fleet)

    rand = _subset("search", tmp_path, _is_random)[:2]
    doc, recorded = _traced_pass(rand)
    count = Counter(s[spans.NAME] for s in recorded)
    samples = len(rand)  # one Monte-Carlo sample per task
    assert count["random_model.monte_carlo_check"] == len(rand)
    for name in ("independence.greedy_alpha", "random_model.sample_gnp",
                 "random_model.k2t_witness_count"):
        assert count[name] == samples
    mc = {i for i, s in enumerate(recorded) if s[spans.NAME] == "random_model.monte_carlo_check"}
    assert all(s[spans.PARENT] in mc for s in recorded
               if s[spans.NAME] == "independence.greedy_alpha")
    metrics = spans.layer_metrics(recorded, doc["end"] - min(s[spans.START] for s in recorded))
    assert metrics["independence.greedy_calls"] == samples

    cli = _subset("pipeline", tmp_path, lambda tid: tid.startswith("cli/"), traced=True)
    doc, recorded = _traced_pass(cli)
    processes = {i for i, s in enumerate(recorded) if s[spans.NAME] == "cli.process"}
    mains = [s for s in recorded if s[spans.NAME] == "cli.main"]
    assert len(processes) == len(mains) == len(cli)
    assert all(s[spans.PARENT] in processes for s in mains)
    run_s = doc["end"] - min(s[spans.START] for s in recorded)
    assert spans.layer_metrics(recorded, run_s)["trace.uncovered_ratio"] < 0.1


def test_traced_and_untraced_outputs_match_the_reference(tmp_path):
    tasks = (_subset("pipeline", tmp_path, _small_fleet)
             + _subset("search", tmp_path, _small_alpha)
             + _subset("search", tmp_path, _is_random)[:1])
    plain = run_pass(tasks, None)
    traced, _ = _traced_pass(tasks)
    for doc in (plain, traced):
        attempted, failed, bad = run.judge([doc], REFERENCE)
        assert attempted == len(tasks) and failed == 0, bad
    assert [t["digest"] for t in plain["tasks"]] == [t["digest"] for t in traced["tasks"]]


def test_counts_repeat_exactly(tmp_path):
    keys = ("graphs.build_entries", "graphs.audit_pairs", "graphs.g2t_bytes",
            "spectral.gemm_flops", "spectral.dense_bytes", "independence.bnb_nodes",
            "independence.exact_ratio")
    seen = []
    for _ in range(2):
        tasks = (_subset("pipeline", tmp_path, _small_fleet)
                 + _subset("search", tmp_path, _small_alpha))
        doc, recorded = _traced_pass(tasks)
        metrics = spans.layer_metrics(recorded, 1.0)
        seen.append({k: metrics[k] for k in keys})
    assert seen[0] == seen[1]
    assert seen[0]["independence.bnb_nodes"] > 0 and seen[0]["spectral.gemm_flops"] > 0


def test_self_time_and_coverage():
    recorded = [["a", 0.0, 10.0, -1, "t", None], ["b", 1.0, 4.0, 0, "t", None],
                ["c", 5.0, 6.0, 0, "t", None], ["d", 12.0, 13.0, -1, "t", None],
                ["e", 12.5, 14.0, -1, "t", None]]
    assert spans.self_times(recorded) == [6.0, 3.0, 1.0, 1.0, 1.5]
    assert spans.covered_seconds(recorded) == 12.0
    assert set(spans.layer_metrics(recorded, 20.0)) | {"trace.overhead_ratio"} == set(spans.LAYER_UNITS)


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_end_to_end_result_line():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "5",
                           "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2 * 83
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

