"""In-memory spans around the public functions of ramseycert's layers.

``Tracer.install`` wraps every public module-level function of each loaded
layer module and rebinds the wrapper in every loaded namespace that holds the
original object (``random_model.greedy_alpha``, ``independence.build_g_plus``,
the package ``__init__``, the names ``cli`` imports, scripts...), so nested
calls made through an imported name are recorded too.  Spans stay in a list
until the caller writes them out; ``layer_metrics`` turns one pass's spans
into the per-layer metrics, using self time (span minus its child spans).
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

LAYERS = ("fields", "graphs", "spectral", "independence", "random_model", "bounds", "cli")

# Quick-start subcommands whose in-process time is reported as cli.<name>_s.
CLI_SUBCOMMANDS = ("build", "audit", "spectrum", "alpha", "qrset", "conjecture",
                   "certify", "bounds-table")

# Units of the metrics layer_metrics returns; "_computed" marks counts derived
# from input sizes rather than counted by the program.
LAYER_UNITS = {
    "fields.table_s": "s",
    "graphs.build_s": "s", "graphs.build_entries": "cnt_computed",
    "graphs.build_entries_per_s": "1/s",
    "graphs.g2t_write_s": "s", "graphs.g2t_parse_s": "s", "graphs.g2t_bytes": "B",
    "graphs.audit_s": "s", "graphs.audit_pairs": "cnt_computed",
    "spectral.verify_s": "s", "spectral.gemm_flops": "flop_computed",
    "spectral.gflops_per_s": "GFLOP/s", "spectral.dense_bytes": "B_computed",
    "independence.bnb_s": "s", "independence.bnb_nodes": "count",
    "independence.bnb_nodes_per_s": "1/s", "independence.exact_ratio": "ratio",
    "independence.greedy_s": "s", "independence.greedy_calls": "count",
    "random_model.sample_s": "s", "random_model.witness_s": "s",
    "random_model.mc_self_s": "s",
    "bounds.certify_s": "s", "bounds.replay_s": "s", "bounds.table_s": "s",
    "cli.startup_s": "s", "cli.import_s": "s",
    **{f"cli.{sub.replace('-', '_')}_s": "s" for sub in CLI_SUBCOMMANDS},
    "trace.spans": "count", "trace.uncovered_s": "s", "trace.uncovered_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# span index fields: [name, start, end, parent index or -1, task id, counts]
NAME, START, END, PARENT, TASK, COUNTS = range(6)


def _spectral_counts(args, kwargs, rep) -> dict:
    n, d = rep.n, rep.q - 1
    width = 4 if d ** 3 < (1 << 24) else 8  # the dtype spectral._gemm_dtype picks
    return {"spectral.gemm_flops": 6 * n ** 3,
            "spectral.dense_bytes": n * n * (3 * width + 8)}


# Counts recorded at the boundary, from a call's arguments and result.  All are
# computed from sizes except bnb_nodes, which is the program's own count.
COUNTERS = {
    "graphs.build_g_plus": lambda a, k, g: {"graphs.build_entries": g.n * (g.meta.q - 1)},
    "graphs.build_g_times": lambda a, k, g: {"graphs.build_entries": g.n * (g.meta.q - 1)},
    "graphs.to_g2t": lambda a, k, text: {"graphs.g2t_bytes": len(text)},
    "graphs.from_g2t": lambda a, k, g: {"graphs.g2t_bytes": len(a[0] if a else k["text"])},
    "graphs.structural_audit": lambda a, k, rep: {"graphs.audit_pairs": rep.n * (rep.n - 1) // 2},
    "spectral.verify_spectrum": _spectral_counts,
    "independence.max_independent_set_exact": lambda a, k, r: {
        "independence.bnb_nodes": r.nodes_explored,
        "independence.bnb_searches": 1,
        "independence.bnb_exact": int(r.exact)},
    "independence.greedy_alpha": lambda a, k, r: {"independence.greedy_calls": 1},
}


class Tracer:
    """Records spans while ``active``; ``task`` labels the spans of one task."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.task: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[COUNTS] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every loaded layer module, in every
        loaded namespace that holds them."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"ramseycert.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (for example an import)."""
        self.spans.append([name, start, end, -1, self.task, None])

    def merge(self, spans: list[list], task: str, parent: int) -> None:
        """Append spans written by another process under span ``parent``,
        relabelled with ``task``."""
        offset = len(self.spans)
        for name, start, end, up, _, counts in spans:
            self.spans.append([name, start, end, up + offset if up >= 0 else parent,
                               task, counts])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def covered_seconds(spans: list[list]) -> float:
    """Length of the union of the top-level span intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s[START], s[END]) for s in spans if s[PARENT] < 0):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list], run_s: float) -> dict[str, float]:
    """Per-layer metrics for one traced pass of wall time ``run_s``.

    Times are self times summed over the pass, except ``cli.import_s`` (mean
    per CLI process) and ``cli.<subcommand>_s`` (the in-process ``main`` call
    of that quick-start line).  ``cli.startup_s`` is the CLI processes' time
    outside the import and ``main``: interpreter start and exit.  Ratios with
    an empty base read 0.
    """
    own = self_times(spans)
    by_name: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s, t in zip(spans, own):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + t
        for key, value in (s[COUNTS] or {}).items():
            counts[key] = counts.get(key, 0) + value

    def self_s(*names: str) -> float:
        return sum(by_name.get(n, 0.0) for n in names)

    def layer_s(layer: str) -> float:
        return sum(t for n, t in by_name.items() if n.startswith(layer + "."))

    m = {
        "fields.table_s": layer_s("fields"),
        "graphs.build_s": self_s("graphs.build_g_plus", "graphs.build_g_times"),
        "graphs.build_entries": counts.get("graphs.build_entries", 0),
        "graphs.g2t_write_s": self_s("graphs.to_g2t", "graphs.write_g2t"),
        "graphs.g2t_parse_s": self_s("graphs.from_g2t", "graphs.read_g2t"),
        "graphs.g2t_bytes": counts.get("graphs.g2t_bytes", 0),
        "graphs.audit_s": self_s("graphs.structural_audit", "graphs.codegree_histogram"),
        "graphs.audit_pairs": counts.get("graphs.audit_pairs", 0),
        "spectral.verify_s": layer_s("spectral"),
        "spectral.gemm_flops": counts.get("spectral.gemm_flops", 0),
        "spectral.dense_bytes": counts.get("spectral.dense_bytes", 0),
        "independence.bnb_s": self_s("independence.max_independent_set_exact"),
        "independence.bnb_nodes": counts.get("independence.bnb_nodes", 0),
        "independence.exact_ratio": _ratio(counts.get("independence.bnb_exact", 0),
                                           counts.get("independence.bnb_searches", 0)),
        "independence.greedy_s": self_s("independence.greedy_alpha"),
        "independence.greedy_calls": counts.get("independence.greedy_calls", 0),
        "random_model.sample_s": self_s("random_model.sample_gnp"),
        "random_model.witness_s": self_s("random_model.k2t_witness_count",
                                         "random_model.find_k2t"),
        "random_model.mc_self_s": self_s("random_model.monte_carlo_check"),
        "bounds.certify_s": self_s("bounds.certify"),
        "bounds.replay_s": self_s("bounds.replay_certificate"),
        "bounds.table_s": self_s("bounds.bounds_table"),
    }
    m["graphs.build_entries_per_s"] = _ratio(m["graphs.build_entries"], m["graphs.build_s"])
    m["spectral.gflops_per_s"] = _ratio(m["spectral.gemm_flops"], m["spectral.verify_s"]) / 1e9
    m["independence.bnb_nodes_per_s"] = _ratio(m["independence.bnb_nodes"],
                                               m["independence.bnb_s"])

    m["cli.startup_s"] = self_s("cli.process")
    imports = [s[END] - s[START] for s in spans if s[NAME] == "cli.import"]
    m["cli.import_s"] = statistics.fmean(imports) if imports else 0.0
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub.replace('-', '_')}_s"] = sum(
            s[END] - s[START] for s in spans
            if s[NAME] == "cli.main" and s[TASK] == f"cli/{sub}")

    uncovered = max(run_s - covered_seconds(spans), 0.0)
    m["trace.spans"] = len(spans)
    m["trace.uncovered_s"] = uncovered
    m["trace.uncovered_ratio"] = _ratio(uncovered, run_s)
    return m
