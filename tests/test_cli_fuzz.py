"""The exit-code contract under fuzzing: every argv ends in 0, 1, 2 or 3.

Mutated g2t files (lines dropped, duplicated or swapped, tokens and header
values edited) go through every file-reading subcommand, and drawn flag values
through every other one, in-process via ``cli.main``.  argparse's
``SystemExit(2)`` counts as exit 2; any other exception fails the test.

Every input the program would accept is bounded so that it starts no large
allocation: files have n <= 30, built graphs q <= 64, node budgets at most
1000, ``random`` runs one thread on at most 2 samples.  Oversized constructions
appear only as whole argvs that the up-front memory refusal rejects first.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from ramseycert.cli import main
from ramseycert.graphs import to_g2t
from conftest import cached_graph, from_edges

EXIT_CODES = {0, 1, 2, 3}

# every base file has n <= 30
BASE_FILES = [to_g2t(cached_graph(*c)) for c in
              [("plus", 4, 2), ("plus", 8, 4), ("plus", 9, 3), ("times", 5, 2),
               ("times", 7, 3), ("times", 13, 6)]]
BASE_FILES.append(to_g2t(from_edges(7, [(0, 1), (1, 2), (2, 2), (3, 4), (5, 6)], t=2)))

HEADER_KEYS = ("variant", "p", "a", "q", "t", "n")
HEADER_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["plus", "times", "other", "random", "", "x", "1e3", "10" * 30]))
FLOATS = st.one_of(st.floats(-1, 5), st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 1e308]))
TOKENS = st.one_of(st.integers(-3, 40).map(str),
                   st.sampled_from(["v", "e", "", "x", "-0", "1.5", "g2t", "99999999999"]))

# whole argvs far beyond physical memory, refused before any allocation
OVERSIZED = [
    ["build", "--variant", "plus", "--q", "1048576", "--t", "2", "--out", "/tmp/never.g2t"],
    ["build", "--variant", "plus", "--q", "1024", "--t", "2", "--out", "/tmp/never.g2t"],
    ["conjecture", "--a", "20"],
    ["qrset", "--p", "1021"],
]


def _mutate(lines: list[str], draw) -> list[str]:
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "token", "header"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        return lines[:i] + lines[i + 1:]
    if kind == "duplicate":
        return lines[:i + 1] + [lines[i]] + lines[i + 1:]
    if kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines = list(lines)
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    if kind == "token":
        parts = lines[i].split(" ")
        parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
        return lines[:i] + [" ".join(parts)] + lines[i + 1:]
    key = draw(st.sampled_from(HEADER_KEYS))
    header = " ".join(tok if not tok.startswith(key + "=") else f"{key}={draw(HEADER_VALUES)}"
                      for tok in lines[0].split(" "))
    return [header] + lines[1:]


@st.composite
def mutated_g2t(draw) -> str:
    lines = draw(st.sampled_from(BASE_FILES)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if lines:
            lines = _mutate(lines, draw)
    return "".join(ln + "\n" for ln in lines)


def _budgets(draw) -> list[str]:
    out = ["--budget-nodes", str(draw(st.integers(-2, 1000)))]
    if draw(st.booleans()):
        out += ["--budget-secs", str(draw(FLOATS))]
    return out


@st.composite
def file_argv(draw, path: str) -> list[str]:
    sub = draw(st.sampled_from(["import", "audit", "spectrum", "alpha", "export"]))
    argv = [sub, path]
    if sub == "alpha":
        argv += ["--semantics", draw(st.sampled_from(["ignore-loops", "exclude-looped"]))]
        argv += _budgets(draw)
    if sub == "export":
        argv += ["--out", path + ".out"]
    return argv


def _ints(draw, lo, hi) -> str:
    """An int flag value; one in ten is not an int at all (argparse exits 2)."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["x", "1.5", ""]))
    return str(draw(st.integers(lo, hi)))


@st.composite
def flag_argv(draw, out: str) -> list[str]:
    sub = draw(st.sampled_from(["field", "build", "qrset", "conjecture", "random",
                                "certify", "bounds-table", "oversized"]))
    if sub == "oversized":
        return draw(st.sampled_from(OVERSIZED))
    if sub == "field":
        argv = ["field", "--p", _ints(draw, -3, 17), "--a", _ints(draw, -1, 4)]
        if draw(st.booleans()):
            argv += ["--op", draw(st.sampled_from(
                ["add", "sub", "mul", "pow", "neg", "inv", "trace"]))]
            for flag in ("--x", "--y"):
                if draw(st.booleans()):
                    argv += [flag, _ints(draw, -3, 300)]
        return argv
    if sub == "build":
        return ["build", "--variant", draw(st.sampled_from(["plus", "times"])),
                "--q", _ints(draw, -2, 64), "--t", _ints(draw, -2, 64), "--out", out]
    if sub == "qrset":
        return ["qrset", "--p", _ints(draw, -3, 8)]
    if sub == "conjecture":
        family = draw(st.sampled_from([["--a", _ints(draw, -2, 6)], ["--p", _ints(draw, -2, 8)]]))
        return ["conjecture", *family, *_budgets(draw)]
    if sub == "random":
        argv = ["random", "--m", _ints(draw, 0, 30), "--t", _ints(draw, 1, 6),
                "--seed", _ints(draw, -5, 2**70), "--samples", _ints(draw, -1, 2),
                "--threads", "1"]
        if draw(st.booleans()):
            argv += ["--c3", str(draw(FLOATS))]
        return argv
    if sub == "certify":
        return ["certify", "--k", _ints(draw, -1, 5), "--t", _ints(draw, -1, 50),
                "--m", _ints(draw, -5, 10**12)]
    lists = [draw(st.lists(st.integers(lo, hi).map(str), min_size=1, max_size=2))
             for lo, hi in ((-1, 4), (-1, 30), (-2, 10**7))]
    return ["bounds-table", "--k", *lists[0], "--t", *lists[1], "--m", *lists[2],
            "--c1", str(draw(FLOATS))]


def run_main(argv) -> int:
    """cli.main's exit code with its output swallowed; SystemExit(2) from
    argparse is exit 2, and every other exception propagates."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return 2


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_g2t_keeps_the_exit_code_contract(data, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "case.g2t")
    with open(path, "w", newline="\n") as fh:
        fh.write(data.draw(mutated_g2t()))
    argv = data.draw(file_argv(path))
    assert run_main(argv) in EXIT_CODES, argv


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_flag_values_keep_the_exit_code_contract(data, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fuzz") / "out.g2t")
    argv = data.draw(flag_argv(out))
    assert run_main(argv) in EXIT_CODES, argv
