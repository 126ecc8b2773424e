"""Coset graphs over GF(q) that are K_{2,t+1}-free, their audits, and g2t files.

Two constructions, both n = q(q-1)/t vertices and (q-1)-regular counting a loop
once:

- ``plus``:  vertices (GF(q)/H) x GF(q)^* with H an additive subgroup of order
  t = p^b; (a,x) ~ (b,y)  iff  x*y lies in a + b + H.
- ``times``: vertices (GF(q)^*/H) x GF(q) with H a multiplicative subgroup of
  order t | q-1; (a,x) ~ (b,y)  iff  x + y lies in a*b*H.

Common neighborhoods are counted inclusively (a looped endpoint adjacent to the
other endpoint counts itself), which matches walk counting: the number of
common neighbors of u, v is (M^2)_{uv} for the 0/1 adjacency matrix M.  The
audit records the full codegree histogram; the load-bearing property is that
the maximum codegree is at most t, i.e. the graph contains no K_{2,t+1}.

Graphs serialize to a line-oriented ``g2t`` text format (see ``to_g2t``) that
round-trips byte-identically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator

import numpy as np

from .fields import Field, Subgroup, make_field, subgroup, factorize

_MATMUL_HISTOGRAM_MIN_N = 1500  # below this, pure-python popcounts win


@dataclass(frozen=True)
class GraphMeta:
    """Construction parameters; q = 0 marks graphs with no field structure."""

    variant: str  # "plus" | "times" | "random" | "other"
    p: int = 0
    a: int = 0
    q: int = 0
    t: int = 0


@dataclass(frozen=True)
class Graph:
    """Undirected graph as one int bitset per row (bit j of rows[i] = {i,j} edge).

    ``labels[i]`` is the (coset id, field element) pair behind vertex i for the
    algebraic variants; synthetic graphs carry (0, i).  Loops are diagonal bits
    and contribute 1 to the degree.
    """

    rows: tuple[int, ...]
    labels: tuple[tuple[int, int], ...]
    meta: GraphMeta

    @property
    def n(self) -> int:
        return len(self.rows)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def has_loop(self, i: int) -> bool:
        return bool(self.rows[i] >> i & 1)

    def loop_count(self) -> int:
        return sum(r >> i & 1 for i, r in enumerate(self.rows))

    def edge_count(self) -> int:
        """Unordered edge count; a loop counts as one edge."""
        twice = sum(r.bit_count() for r in self.rows) + self.loop_count()
        return twice // 2

    def neighbors(self, i: int) -> list[int]:
        return _bits(self.rows[i])

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        n = self.n
        nbytes = (n + 7) // 8
        buf = bytearray(nbytes * n)
        for i, r in enumerate(self.rows):
            buf[i * nbytes:(i + 1) * nbytes] = r.to_bytes(nbytes, "little")
        bits = np.unpackbits(
            np.frombuffer(bytes(buf), dtype=np.uint8).reshape(n, nbytes),
            axis=1, bitorder="little",
        )[:, : n]
        return bits.astype(dtype)


def _bits(x: int) -> list[int]:
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def common_neighbors(g: Graph, u: int, v: int) -> list[int]:
    """Vertices adjacent to both u and v (inclusive: loops let u or v qualify)."""
    return _bits(g.rows[u] & g.rows[v])


# -- constructions -------------------------------------------------------------


def _prime_power(q: int) -> tuple[int, int]:
    f = factorize(q)
    if len(f) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    ((p, a),) = f.items()
    return p, a


def build_g_plus(q: int, t: int) -> Graph:
    """Additive-coset graph on (GF(q)/H) x GF(q)^*, H additive of order t.

    Requires t = p^b >= 2 dividing q.  (a,x) ~ (b,y) iff x*y in a + b + H.
    """
    p, a = _prime_power(q)
    if t < 2 or q % t != 0:
        raise ValueError(f"t = {t} must be a power of p = {p} with 2 <= t <= q")
    F = make_field(p, a)
    H = subgroup(F, "additive", t)
    ncos = H.num_cosets
    units = list(F.units())
    n = ncos * len(units)

    # vertex index: lexicographic in (coset id, element); elements are units 1..q-1
    def vid(cid: int, x: int) -> int:
        return cid * (q - 1) + (x - 1)

    rows = [0] * n
    reps = H.reps
    cid_of = H.coset_id
    mul = F.mul
    sub_ = F.sub
    for ca in range(ncos):
        arep = reps[ca]
        for x in units:
            u = vid(ca, x)
            ru = rows[u]
            for y in units:
                cb = cid_of[sub_(mul(x, y), arep)]
                v = vid(cb, y)
                ru |= 1 << v
                rows[v] |= 1 << u
            rows[u] = ru
    labels = tuple((cid, x) for cid in range(ncos) for x in units)
    return Graph(rows=tuple(rows), labels=labels,
                 meta=GraphMeta(variant="plus", p=p, a=a, q=q, t=t))


def build_g_times(q: int, t: int) -> Graph:
    """Multiplicative-coset graph on (GF(q)^*/H) x GF(q), H multiplicative of order t.

    Requires t >= 2 dividing q - 1.  (a,x) ~ (b,y) iff x + y in a*b*H.
    """
    p, a = _prime_power(q)
    if t < 2 or (q - 1) % t != 0:
        raise ValueError(f"t = {t} must divide q - 1 = {q - 1}")
    F = make_field(p, a)
    H = subgroup(F, "multiplicative", t)
    ncos = H.num_cosets
    n = ncos * q

    def vid(cid: int, x: int) -> int:
        return cid * q + x

    rows = [0] * n
    reps = H.reps
    cid_of = H.coset_id
    add = F.add
    mul = F.mul
    inv = F.inv
    for ca in range(ncos):
        ainv = inv(reps[ca])
        for x in range(q):
            u = vid(ca, x)
            ru = rows[u]
            for y in range(q):
                s = add(x, y)
                if s == 0:
                    continue  # 0 lies in no unit coset
                cb = cid_of[mul(s, ainv)]
                v = vid(cb, y)
                ru |= 1 << v
                rows[v] |= 1 << u
            rows[u] = ru
    labels = tuple((cid, x) for cid in range(ncos) for x in range(q))
    return Graph(rows=tuple(rows), labels=labels,
                 meta=GraphMeta(variant="times", p=p, a=a, q=q, t=t))


# the desk-scale fleet: every valid (q, t) with q <= 128 for the sum
# construction and q <= 121 for the product construction
PLUS_Q = (4, 8, 9, 16, 25, 27, 32, 64, 81, 128)
TIMES_Q = (5, 7, 9, 11, 13, 25, 49, 81, 121)


def fleet(q_max: int = 128) -> Iterator[tuple[str, int, int]]:
    """Every (variant, q, t) of the fleet with q <= q_max: plus cases with t
    running over the powers p, p^2, ..., q, then times cases with t | q-1."""
    for q in PLUS_Q:
        if q > q_max:
            continue
        (p, _), = factorize(q).items()
        t = p
        while t <= q:
            yield "plus", q, t
            t *= p
    for q in TIMES_Q:
        if q > q_max:
            continue
        for t in range(2, q):
            if (q - 1) % t == 0:
                yield "times", q, t


def from_edges(n: int, edges: Iterable[tuple[int, int]], variant: str = "other",
               t: int = 0, labels: tuple[tuple[int, int], ...] | None = None,
               meta: GraphMeta | None = None) -> Graph:
    """Assemble a Graph from an edge list; (i, i) pairs become loops."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n = {n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if labels is None:
        labels = tuple((0, i) for i in range(n))
    if meta is None:
        meta = GraphMeta(variant=variant, t=t)
    return Graph(rows=tuple(rows), labels=labels, meta=meta)


# -- structural audit ----------------------------------------------------------


@dataclass(frozen=True)
class StructuralReport:
    """Everything the audit measured, plus pass/fail flags for each claim.

    ``exactly_t_all_pairs`` is recorded for completeness but is *not* what the
    constructions guarantee: pairs sharing a field element but not a coset have
    0 common neighbors and same-coset pairs have t-1, so the honest histogram
    has up to three bins.  The guarantee that matters is ``k2t1_free``
    (max codegree <= t).
    """

    variant: str
    q: int
    t: int
    n: int
    degree_histogram: dict[int, int]
    is_regular: bool
    degree_claim_ok: bool | None
    loop_count: int
    loop_claim_ok: bool | None
    common_nbhd_histogram: dict[int, int]
    max_common: int
    k2t1_free: bool | None
    exactly_t_all_pairs: bool | None
    n_formula_ok: bool | None

    @property
    def passed(self) -> bool:
        """The construction-level guarantees: size, regularity, K_{2,t+1}-freeness."""
        core = [self.n_formula_ok, self.degree_claim_ok, self.k2t1_free]
        return all(c is not False for c in core)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "q": self.q,
            "t": self.t,
            "n": self.n,
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "is_regular": self.is_regular,
            "degree_claim_ok": self.degree_claim_ok,
            "loop_count": self.loop_count,
            "loop_claim_ok": self.loop_claim_ok,
            "common_nbhd_histogram": {str(k): v for k, v in sorted(self.common_nbhd_histogram.items())},
            "max_common": self.max_common,
            "k2t1_free": self.k2t1_free,
            "exactly_t_all_pairs": self.exactly_t_all_pairs,
            "n_formula_ok": self.n_formula_ok,
            "passed": self.passed,
        }


def codegree_histogram(g: Graph) -> dict[int, int]:
    """Histogram of |N(u) ∩ N(v)| over unordered pairs u < v (inclusive counts)."""
    n = g.n
    if n < _MATMUL_HISTOGRAM_MIN_N:
        hist: Counter[int] = Counter()
        rows = g.rows
        for u in range(n):
            ru = rows[u]
            for v in range(u + 1, n):
                hist[(ru & rows[v]).bit_count()] += 1
        return dict(hist)
    # Large graphs: single float32 GEMM.  Entries of M @ M are codegrees; the
    # partial sums are bounded by the degree < 2^24, so float32 is exact.
    m = g.adjacency_matrix(dtype=np.float32)
    m2 = m @ m
    codeg = m2.astype(np.int64)
    total = np.bincount(codeg.ravel())
    diag = np.bincount(np.diagonal(codeg), minlength=len(total))
    pair_counts = (total - diag) // 2
    return {int(c): int(k) for c, k in enumerate(pair_counts) if k}


def structural_audit(g: Graph) -> StructuralReport:
    """Measure size, degrees, loops, and the codegree histogram; flag each claim.

    For the algebraic variants the claims are: n = q(q-1)/t, (q-1)-regular,
    q-1 loops, and codegree exactly t for every pair.  Loop counts actually
    concentrate differently in even characteristic, and the codegree histogram
    is not a single bin (see class docstring); the flags record the truth.
    """
    n = g.n
    degs = Counter(g.degree(i) for i in range(n))
    is_regular = len(degs) == 1
    loops = g.loop_count()
    hist = codegree_histogram(g)
    max_common = max(hist) if hist else 0

    q, t = g.meta.q, g.meta.t
    algebraic = g.meta.variant in ("plus", "times") and q > 0
    if algebraic:
        n_ok = n == q * (q - 1) // t
        deg_ok = is_regular and next(iter(degs)) == q - 1
        loop_ok = loops == q - 1
        exactly_t = set(hist) == {t}
    else:
        n_ok = deg_ok = loop_ok = exactly_t = None
    free = (max_common <= t) if t >= 1 else None

    return StructuralReport(
        variant=g.meta.variant, q=q, t=t, n=n,
        degree_histogram=dict(degs), is_regular=is_regular, degree_claim_ok=deg_ok,
        loop_count=loops, loop_claim_ok=loop_ok,
        common_nbhd_histogram=hist, max_common=max_common,
        k2t1_free=free, exactly_t_all_pairs=exactly_t, n_formula_ok=n_ok,
    )


# -- g2t serialization ----------------------------------------------------------


def to_g2t(g: Graph) -> str:
    """Serialize deterministically: header, vertex labels, sorted edges, LF only.

    Header: ``g2t v1 variant=<v> p=<p> a=<a> q=<q> t=<t> n=<n>``; one
    ``v <index> <coset_id> <element>`` line per vertex in index order; one
    ``e <u> <v>`` line (u <= v) per edge in lexicographic order.
    """
    m = g.meta
    lines = [f"g2t v1 variant={m.variant} p={m.p} a={m.a} q={m.q} t={m.t} n={g.n}"]
    for i, (cid, x) in enumerate(g.labels):
        lines.append(f"v {i} {cid} {x}")
    for u in range(g.n):
        r = g.rows[u] >> u  # only v >= u
        v = u
        while r:
            low = r & -r
            v_off = low.bit_length() - 1
            lines.append(f"e {u} {u + v_off}")
            r ^= low
    return "\n".join(lines) + "\n"


_G2T_HEADER_KEYS = ("variant", "p", "a", "q", "t", "n")


def _g2t_header(line: str, max_n: int) -> tuple[GraphMeta, int]:
    """Parse and cross-check a g2t header; every defect is a ValueError.

    ``max_n`` is the number of lines after the header: n may not exceed it,
    which is checked before anything of size n (or q <= n + 1) is touched.
    """
    fields = {}
    for tok in line.split()[2:]:
        key, eq, value = tok.partition("=")
        if not eq or key in fields:
            raise ValueError(f"g2t header token {tok!r} is not a new key=value")
        fields[key] = value
    missing = [k for k in _G2T_HEADER_KEYS if k not in fields]
    if missing:
        raise ValueError(f"g2t header lacks {', '.join(k + '=' for k in missing)}")
    p, a, q, t, n = (int(fields[k]) for k in _G2T_HEADER_KEYS[1:])
    if min(p, a, q, t, n) < 0:
        raise ValueError("g2t header counts must be non-negative")
    if n > max_n:
        raise ValueError(f"header says n = {n} but only {max_n} lines follow it")
    variant = fields["variant"]
    if variant in ("plus", "times"):
        if not 2 <= t <= q or n * t != q * (q - 1):
            raise ValueError(f"g2t header: n = {n} is not q(q-1)/t for q = {q}, t = {t}")
        if factorize(q) != {p: a}:
            raise ValueError(f"g2t header: q = {q} is not p^a = {p}^{a}")
        if (q if variant == "plus" else q - 1) % t != 0:
            raise ValueError(f"g2t header: t = {t} is not a {variant} subgroup order "
                             f"for q = {q}")
    return GraphMeta(variant=variant, p=p, a=a, q=q, t=t), n


def from_g2t(text: str) -> Graph:
    """Parse ``to_g2t`` output; every malformed input raises ValueError.

    The header must carry all of variant, p, a, q, t, n; for ``plus``/``times``
    they must describe a valid construction (q = p^a, t a subgroup order,
    n = q(q-1)/t), and each vertex label must be the one the construction
    gives that index.  Each vertex needs exactly one ``v`` line, and every
    record must have its full field count with indices in range.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("g2t v1 "):
        raise ValueError("not a g2t v1 file")
    meta, n = _g2t_header(lines[0], len(lines) - 1)
    labels: list[tuple[int, int] | None] = [None] * n
    rows = [0] * n
    seen_v = 0
    for ln in lines[1:]:
        parts = ln.split()
        if not parts:
            continue
        if parts[0] == "e" and len(parts) == 3:  # edge lines dominate; test them first
            u, v = int(parts[1]), int(parts[2])
            if not (0 <= u <= v < n):
                raise ValueError(f"edge ({u}, {v}) malformed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        elif parts[0] == "v" and len(parts) == 4:
            i, cid, x = int(parts[1]), int(parts[2]), int(parts[3])
            if not 0 <= i < n:
                raise ValueError(f"vertex index {i} out of range")
            if labels[i] is not None:
                raise ValueError(f"vertex {i} has more than one v line")
            labels[i] = (cid, x)
            seen_v += 1
        else:
            raise ValueError(f"malformed g2t line {ln!r}")
    if seen_v != n:
        raise ValueError(f"expected {n} vertex lines, saw {seen_v}")
    if meta.variant in ("plus", "times"):
        # the labels build_g_plus / build_g_times give: plus vertices pair a
        # coset with a unit 1..q-1, times vertices with an element 0..q-1
        width, first = (meta.q - 1, 1) if meta.variant == "plus" else (meta.q, 0)
        for i, label in enumerate(labels):
            want = (i // width, i % width + first)
            if label != want:
                raise ValueError(f"vertex {i} has label {label}, not the {meta.variant} "
                                 f"construction's {want}")
    return Graph(rows=tuple(rows), labels=tuple(labels), meta=meta)


def write_g2t(g: Graph, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_g2t(g))


def read_g2t(path: str) -> Graph:
    with open(path, "r") as fh:
        return from_g2t(fh.read())
