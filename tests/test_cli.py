"""CLI surface: exit codes, JSON schema conformance, human/JSON consistency."""

import json
import os
import shutil
import subprocess
import sys

import jsonschema
import pytest

import ramseycert
from ramseycert import cli
from ramseycert.cli import load_schema, main
from ramseycert.graphs import write_g2t
from conftest import cached_graph


@pytest.fixture(scope="module")
def plus93_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("g2t") / "plus_9_3.g2t"
    write_g2t(cached_graph("plus", 9, 3), str(path))
    return str(path)


@pytest.fixture(scope="module")
def plus6432_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("g2t") / "plus_64_32.g2t"
    write_g2t(cached_graph("plus", 64, 32), str(path))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(argv, capsys):
    code, out = run_cli(argv + ["--json"], capsys)
    return code, json.loads(out)


# -- schema conformance over every subcommand ---------------------------------------


def _invocations(plus93, plus6432, tmp_path):
    return [
        ("field", ["field", "--p", "3", "--a", "2", "--op", "mul", "--x", "4", "--y", "5"], 0),
        ("build", ["build", "--variant", "times", "--q", "7", "--t", "3",
                   "--out", str(tmp_path / "t73.g2t")], 0),
        ("audit", ["audit", plus93], 0),
        ("spectrum", ["spectrum", plus93], 0),
        ("alpha", ["alpha", plus93], 0),
        ("alpha", ["alpha", plus6432, "--budget-nodes", "5"], 3),
        ("qrset", ["qrset", "--p", "5"], 0),
        ("conjecture", ["conjecture", "--p", "3"], 0),
        ("random", ["random", "--m", "20", "--t", "3", "--c3", "1.0",
                    "--samples", "4", "--threads", "1"], 0),
        ("certificate", ["certify", "--k", "2", "--t", "10", "--m", "1000000"], 0),
        ("certificate", ["certify", "--k", "3", "--t", "10", "--m", "1000000"], 1),
        ("bounds-table", ["bounds-table", "--k", "2", "3", "--t", "10", "--m", "1000000"], 0),
        ("export", ["export", plus93, "--out", str(tmp_path / "copy.g2t")], 0),
        ("import", ["import", plus93], 0),
    ]


def test_every_subcommand_emits_schema_valid_json(plus93_file, plus6432_file,
                                                  tmp_path, capsys):
    seen = set()
    for schema_name, argv, want in _invocations(plus93_file, plus6432_file, tmp_path):
        code, doc = run_json(argv, capsys)
        assert code == want, f"{argv}: exit {code}, wanted {want}"
        jsonschema.validate(doc, load_schema(schema_name))
        seen.add(schema_name)
    assert seen == {"field", "build", "audit", "spectrum", "alpha", "qrset",
                    "conjecture", "random", "certificate", "bounds-table",
                    "export", "import"}


def test_load_schema_unknown():
    with pytest.raises(ValueError):
        load_schema("frobnicate")


# -- exit codes ---------------------------------------------------------------------


def test_exit_1_on_failed_audit(plus93_file, tmp_path, capsys):
    lines = open(plus93_file).read().splitlines(keepends=True)
    cut = next(i for i, ln in enumerate(lines) if ln.startswith("e "))
    tampered = tmp_path / "tampered.g2t"
    tampered.write_text("".join(lines[:cut] + lines[cut + 1:]))
    code, doc = run_json(["audit", str(tampered)], capsys)
    assert code == 1
    assert doc["passed"] is False and doc["is_regular"] is False


def test_exit_3_on_alpha_budget(plus6432_file, capsys):
    code, doc = run_json(["alpha", plus6432_file, "--budget-nodes", "5"], capsys)
    assert code == 3
    assert not doc["exact"] and doc["budget_hit"] == "nodes"
    assert doc["lower"] <= 8 <= doc["upper"]


def test_conjecture_exit_codes(capsys):
    assert run_cli(["conjecture", "--p", "3"], capsys)[0] == 0
    assert run_cli(["conjecture", "--a", "5"], capsys)[0] == 1  # measured 6 vs formula 5
    assert run_cli(["conjecture", "--a", "6", "--budget-nodes", "5"], capsys)[0] == 3


@pytest.mark.parametrize("argv", [
    ["build", "--variant", "plus", "--q", "6", "--t", "2", "--out", "/tmp/never.g2t"],
    ["audit", "/nonexistent/path.g2t"],
    ["field", "--p", "6"],
    ["field", "--p", "3", "--op", "mul"],  # --op without --x
    ["certify", "--k", "2", "--t", "10", "--m", "100"],  # hypothesis refused
    ["random", "--m", "1000", "--t", "50", "--samples", "1"],  # degenerate default c3
    ["qrset", "--p", "4"],
])
def test_exit_2_on_invalid_input(argv, capsys):
    assert run_cli(argv, capsys)[0] == 2


def test_import_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.g2t"
    bad.write_text("g2t v1 variant=plus p=3 a=2 q=9 t=3 n=24\ne 0 999\n")
    assert run_cli(["import", str(bad)], capsys)[0] == 2


def _set_line(i, new):
    def mangle(text):
        lines = text.splitlines(keepends=True)
        lines[i] = new(lines)
        return "".join(lines)
    return mangle


@pytest.mark.parametrize("mangle", [
    lambda s: s.replace(" t=3", "", 1),                  # header without t=
    lambda s: s.replace(" t=3", " t=0", 1),              # t = 0
    lambda s: s.replace(" t=3", " t=9", 1),              # n != q(q-1)/t
    lambda s: s.replace(" p=3", " p=2", 1),              # q != p^a
    lambda s: s.replace(" n=24", " n=10000000000", 1),   # n beyond the line count
    lambda s: s.replace(" q=9", " q=9 q=9", 1),          # repeated header key
    lambda s: s.replace(" q=9", " q", 1),                # token without '='
    _set_line(1, lambda lines: "v 0\n"),                 # short v line
    _set_line(2, lambda lines: lines[1]),                # v 0 twice, no v 1
    lambda s: s + "e 0\n",                               # short e line
    _set_line(1, lambda lines: "v 0 7 99\n"),            # label not the construction's
], ids=["no-t", "t-zero", "n-formula", "q-not-p^a", "huge-n", "repeated-key",
        "bare-token", "short-v", "duplicate-v", "short-e", "foreign-label"])
@pytest.mark.parametrize("sub", ["import", "audit", "spectrum", "alpha"])
def test_malformed_g2t_exits_2(mangle, sub, plus93_file, tmp_path, capsys):
    with open(plus93_file) as fh:
        text = fh.read()
    bad = tmp_path / "bad.g2t"
    bad.write_text(mangle(text))
    assert run_cli([sub, str(bad)], capsys)[0] == 2


def test_spectrum_of_foreign_edges_exits_1_without_traceback(plus93_file, tmp_path):
    # valid header and labels, but one edge short of plus(9,3): the moment
    # solve fails, which is a failed check, not a crash
    with open(plus93_file) as fh:
        lines = fh.read().splitlines(keepends=True)
    last_e = max(i for i, ln in enumerate(lines) if ln.startswith("e "))
    bad = tmp_path / "short.g2t"
    bad.write_text("".join(lines[:last_e] + lines[last_e + 1:]))
    src = os.path.dirname(os.path.dirname(ramseycert.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "ramseycert.cli", "spectrum", str(bad)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_times_header_n_formula_exits_2(tmp_path, capsys):
    good = tmp_path / "t72.g2t"
    assert run_cli(["build", "--variant", "times", "--q", "7", "--t", "2",
                    "--out", str(good)], capsys)[0] == 0
    bad = tmp_path / "bad.g2t"
    bad.write_text(good.read_text().replace(" t=2", " t=3", 1))
    assert run_cli(["import", str(bad)], capsys)[0] == 2


def test_version_and_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -- human mode mirrors the JSON document --------------------------------------------


def test_flatten_and_sanitize_shapes():
    doc = {"b": [1, {"x": None}], "a": float("inf"), "ok": True}
    lines = list(cli._flatten(cli._sanitize(doc)))
    assert lines == ["a = inf", "b.0 = 1", "b.1.x = None", "ok = True"]


@pytest.mark.parametrize("argv", [
    ["audit"], ["spectrum"], ["alpha"], ["import"],
])
def test_human_mode_lists_every_json_field(argv, plus93_file, capsys):
    full = argv + [plus93_file]
    _, doc = run_json(full, capsys)
    _, human = run_cli(full, capsys)
    drop = lambda lines: {ln for ln in lines if not ln.startswith("seconds = ")}
    assert drop(cli._flatten(doc)) == drop(human.splitlines())


def test_output_deterministic_across_runs(plus93_file, capsys):
    _, first = run_json(["audit", plus93_file], capsys)
    _, second = run_json(["audit", plus93_file], capsys)
    assert first == second
    _, a1 = run_json(["alpha", plus93_file], capsys)
    _, a2 = run_json(["alpha", plus93_file], capsys)
    a1.pop("seconds"), a2.pop("seconds")
    assert a1 == a2


# -- files --------------------------------------------------------------------------


def test_export_round_trip_is_byte_identical(plus93_file, tmp_path, capsys):
    out = tmp_path / "roundtrip.g2t"
    code, doc = run_json(["export", plus93_file, "--out", str(out)], capsys)
    assert code == 0 and doc["written"] == str(out)
    assert out.read_bytes() == open(plus93_file, "rb").read()


def test_import_reports_canonical_form(plus93_file, capsys):
    _, doc = run_json(["import", plus93_file], capsys)
    assert doc["canonical_form"] is True
    assert (doc["variant"], doc["q"], doc["t"], doc["n"]) == ("plus", 9, 3, 24)
    assert doc["loops"] == 8


def test_build_then_audit_pipeline(tmp_path, capsys):
    out = tmp_path / "times_11_5.g2t"
    code, doc = run_json(["build", "--variant", "times", "--q", "11", "--t", "5",
                          "--out", str(out)], capsys)
    assert code == 0 and doc["n"] == 22
    assert run_cli(["audit", str(out)], capsys)[0] == 0


# -- installed entry point ----------------------------------------------------------


@pytest.mark.skipif(shutil.which("ramseycert") is None,
                    reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(
        ["ramseycert", "certify", "--k", "2", "--t", "10", "--m", "1000000", "--json"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["certified_n"] == 2304480 and doc["replay"]["ok"]
