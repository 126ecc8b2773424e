"""Coset graphs over GF(q) that are K_{2,t+1}-free, their audits, and g2t files.

Two constructions, both n = q(q-1)/t vertices and (q-1)-regular counting a loop
once:

- ``plus``:  vertices (GF(q)/H) x GF(q)^* with H an additive subgroup of order
  t = p^b; (a,x) ~ (b,y)  iff  x*y lies in a + b + H.
- ``times``: vertices (GF(q)^*/H) x GF(q) with H a multiplicative subgroup of
  order t | q-1; (a,x) ~ (b,y)  iff  x + y lies in a*b*H.

Both come from one table-driven rule: vertex (a,x) has one neighbour (b,y) per
y, b the coset of x*y - rep(a) (plus) or of (x+y)/rep(a) (times), computed
as array expressions over the field's exp/log tables.  On a 2-core VM the 75
fleet cases with n <= 1000 build in 0.04 s, the 19 larger in 0.12 s and
plus(256,2) in 0.37 s (a scalar triple loop took 0.72 s, 4.0 s and 13.4 s).

Common neighborhoods are counted inclusively (a looped endpoint adjacent to the
other endpoint counts itself), which matches walk counting: the number of
common neighbors of u, v is (M^2)_{uv} for the 0/1 adjacency matrix M.  The
audit records the full codegree histogram; the load-bearing property is that
the maximum codegree is at most t, i.e. the graph contains no K_{2,t+1}.

Graphs serialize to a line-oriented ``g2t`` text format (see ``to_g2t``) that
round-trips byte-identically.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import asdict, dataclass, field as dc_field
from typing import Iterable, Iterator

import numpy as np

from .fields import Field, Subgroup, is_prime_power, make_field, subgroup

# integers are exact in float32 below 2^24 and in float64 below 2^53
_FLOAT32_EXACT = 1 << 24
_FLOAT64_EXACT = 1 << 53


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


def _physical_memory() -> int:
    """Bytes of physical memory: the ceiling of the up-front size checks."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(need: int, what: str) -> None:
    """Refuse, with a ValueError, work estimated at more bytes than physical
    memory holds, before any of it is allocated."""
    have = _physical_memory()
    if need > have:  # need may be too large for a float
        raise ValueError(f"{what} needs at least 2^{need.bit_length() - 1} bytes, more "
                         f"than the {have:,} bytes of physical memory")


# -- constructions -------------------------------------------------------------


def _layout(variant: str, q: int) -> tuple[int, int]:
    """(width, first): vertex cid * width + (x - first) carries the label
    (coset cid, element x), lexicographic in both; plus vertices pair a coset
    with a unit 1..q-1, times vertices with an element 0..q-1."""
    return (q - 1, 1) if variant == "plus" else (q, 0)


def _pack_rows(bits: np.ndarray) -> list[int]:
    """One int bitset per row of a 0/1 matrix: bit j of row i is bits[i, j]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _coset_graph(variant: str, p: int, a: int, t: int) -> Graph:
    """The plus or times graph by the module docstring's rule, one coset c at
    a time as a (width, q-1) neighbour array with a column per unit u: plus
    has y = u and one x*y table, exp[(log x + log y) mod (q-1)], for all c;
    times has u = x + y, so y = u - x and x + y = 0 never arises.

    Before the field is built, the peak is estimated and checked against
    physical memory: a few int32/int64 (width, q-1) tables, one coset's bool
    block of (width, n) and the n^2/8 bytes of bitset rows."""
    q = p**a
    width, first = _layout(variant, q)
    n = (q if variant == "plus" else q - 1) // t * width
    _check_memory(32 * width * (q - 1) + width * n + n * n // 8,
                  f"the {variant} graph on q = {q}, t = {t} (n = {n})")
    F = make_field(p, a)
    H = subgroup(F, "additive" if variant == "plus" else "multiplicative", t)
    exp, log = np.array(F.exp, dtype=np.int32), np.array(F.log, dtype=np.int32)
    coset = np.array(H.coset_id, dtype=np.int64)  # b * width + y may pass 2^31
    x = np.arange(first, q, dtype=np.int32)[:, None]
    u = np.arange(1, q, dtype=np.int32)
    if variant == "plus":
        y, xy = u, exp[(log[x] + log[u]) % (q - 1)]
    else:
        y = F.sub(u, x)
    rows: list[int] = []
    for rep in H.reps:
        if variant == "plus":
            b = coset[F.sub(xy, rep)]
        else:
            b = coset[exp[(log[u] - log[rep]) % (q - 1)]]
        bits = np.zeros((width, n), dtype=np.bool_)
        np.put_along_axis(bits, b * width + (y - first), True, axis=1)
        rows += _pack_rows(bits)
    labels = tuple((c, v) for c in range(H.num_cosets) for v in range(first, q))
    return Graph(rows=tuple(rows), labels=labels,
                 meta=GraphMeta(variant=variant, p=p, a=a, q=q, t=t))


def build_g_plus(q: int, t: int) -> Graph:
    """Additive-coset graph on (GF(q)/H) x GF(q)^*, H additive of order t.

    Requires t = p^b >= 2 dividing q.  (a,x) ~ (b,y) iff x*y in a + b + H.
    """
    if (pa := is_prime_power(q)) is None:
        raise ValueError(f"q = {q} is not a prime power")
    if t < 2 or q % t != 0:
        raise ValueError(f"t = {t} must be a power of p = {pa[0]} with 2 <= t <= q")
    return _coset_graph("plus", *pa, t)


def build_g_times(q: int, t: int) -> Graph:
    """Multiplicative-coset graph on (GF(q)^*/H) x GF(q), H multiplicative of order t.

    Requires t >= 2 dividing q - 1.  (a,x) ~ (b,y) iff x + y in a*b*H.
    """
    if (pa := is_prime_power(q)) is None:
        raise ValueError(f"q = {q} is not a prime power")
    if t < 2 or (q - 1) % t != 0:
        raise ValueError(f"t = {t} must divide q - 1 = {q - 1}")
    return _coset_graph("times", *pa, t)


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
        p, _ = is_prime_power(q)
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


def from_edges(n: int, edges: Iterable[tuple[int, int]], t: int = 0,
               meta: GraphMeta | None = None) -> Graph:
    """Assemble a Graph from an edge list; (i, i) pairs become loops."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n = {n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if meta is None:
        meta = GraphMeta(variant="other", t=t)
    return Graph(rows=tuple(rows), labels=tuple((0, i) for i in range(n)), meta=meta)


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
        # str keys, which json.dumps(sort_keys=True) orders lexically
        doc = asdict(self)
        for key in ("degree_histogram", "common_nbhd_histogram"):
            doc[key] = {str(k): v for k, v in sorted(doc[key].items())}
        doc["passed"] = self.passed
        return doc


def _walk_matrix(g: Graph, power: int, jmax: int = 0, q: int = 0) -> np.ndarray:
    """M in float32, once the walks M^k = M^(k-1) @ M, k <= power, are known exact.

    Every exactness bound of the audit and the spectrum is asserted here, from
    the measured maximum degree d; the header's q enters only as the
    annihilator's coefficient:

    - M^k = M^(k-1) @ M: a partial sum in row i is at most the number of
      (k-1)-walks out of i, so d^(power-1) < 2^24 keeps every product exact;
    - ``jmax``: the spectrum reads tr(M^j), j <= jmax, as float64 sums of
      non-negative products of these entries; every partial sum is at most
      tr(M^j) <= n d^(j-1) < 2^53;
    - ``q``: the annihilator product (M^3 - qM)(M^3 - (q-1)M^2 - M + (q-1)I)
      runs in float64; its factors' entries are at most d^2 + q and
      d^2 + (q-1)(d+1) + 1, and n times their product stays below 2^53.

    A bound that does not hold raises ValueError, and so does an M that would
    not fit in physical memory beside its 0/1 bytes (5 n^2 bytes in all).
    """
    n = g.n
    _check_memory(5 * n * n, f"the dense adjacency matrix at n = {n}")
    d = max((r.bit_count() for r in g.rows), default=0)
    if d ** (power - 1) >= _FLOAT32_EXACT:
        raise ValueError(f"maximum degree {d} is too large for exact float32 walks")
    if jmax and n * d ** (jmax - 1) >= _FLOAT64_EXACT:
        raise ValueError(f"tr(M^{jmax}) may exceed 2^53 at n = {n}, maximum degree {d}")
    if q and n * (d * d + q) * (d * d + (q - 1) * (d + 1) + 1) >= _FLOAT64_EXACT:
        raise ValueError(f"annihilator partial sums may exceed 2^53 at n = {n}, "
                         f"maximum degree {d}, q = {q}")
    return g.adjacency_matrix(dtype=np.float32)


def _exact_walks(g: Graph, power: int, jmax: int = 0, q: int = 0) -> list[np.ndarray]:
    """[M, M^2, ..., M^power] (power <= 3) as float32 walk counts, exact under
    the bounds ``_walk_matrix`` asserts.  Refused up front (ValueError) when
    they, M's 0/1 bytes and, given q, the annihilator's float64 factor would
    not fit in physical memory."""
    n = g.n
    _check_memory(n * n * (1 + 4 * power + (8 if q else 0)), f"dense walk matrices at n = {n}")
    m = _walk_matrix(g, power, jmax, q)
    walks = [m]
    for _ in range(power - 1):
        walks.append(walks[-1] @ m)
    return walks


def codegree_histogram(g: Graph) -> dict[int, int]:
    """Histogram of |N(u) ∩ N(v)| over unordered pairs u < v (inclusive counts),
    read off the exact M^2 one 512-row block at a time, so only M and one
    block of M^2 are held."""
    m = _walk_matrix(g, 2)
    n = g.n
    counts = np.zeros(n + 1, dtype=np.int64)  # a codegree is at most n
    block = 512
    for i in range(0, n, block):
        codeg = (m[i:i + block] @ m).astype(np.int64)
        r = np.arange(len(codeg))
        counts += np.bincount(codeg.ravel(), minlength=n + 1)
        counts -= np.bincount(codeg[r, i + r], minlength=n + 1)  # u = v
    return {c: int(k) // 2 for c, k in enumerate(counts) if k}


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
        lines += [f"e {u} {u + k}" for k in _bits(g.rows[u] >> u)]  # v = u + k >= u
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
    meta = GraphMeta(variant=fields["variant"], p=p, a=a, q=q, t=t)
    if meta.variant in ("plus", "times"):
        _check_construction(meta, n)
    return meta, n


def _check_construction(meta: GraphMeta, n: int) -> None:
    """Raise ValueError unless ``meta`` describes the plus/times construction
    on n vertices: q = p^a, t a subgroup order, n = q(q-1)/t."""
    p, a, q, t = meta.p, meta.a, meta.q, meta.t
    if not 2 <= t <= q or n * t != q * (q - 1):
        raise ValueError(f"{meta.variant} metadata: n = {n} is not q(q-1)/t "
                         f"for q = {q}, t = {t}")
    if is_prime_power(q) != (p, a):
        raise ValueError(f"{meta.variant} metadata: q = {q} is not p^a = {p}^{a}")
    if (q if meta.variant == "plus" else q - 1) % t != 0:
        raise ValueError(f"{meta.variant} metadata: t = {t} is not a subgroup order for q = {q}")


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
        width, first = _layout(meta.variant, meta.q)
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
