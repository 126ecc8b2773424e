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
fleet cases with n <= 1000 build in 0.03-0.04 s, the 19 larger in 0.10-0.13 s
and plus(256,2) in 0.3 s (a scalar triple loop took 0.72 s, 4.0 s and 13.4 s).

Common neighborhoods are counted inclusively (a looped endpoint adjacent to the
other endpoint counts itself), which matches walk counting: the number of
common neighbors of u, v is (M^2)_{uv} for the 0/1 adjacency matrix M.  The
audit records the full codegree histogram; the load-bearing property is that
the maximum codegree is at most t, i.e. the graph contains no K_{2,t+1}.

A graph is its neighbour arrays (``Graph``: row offsets and the ascending
neighbours, an (n, d) view when regular), which the builder, the parser and
the sampler each construct directly and every kernel here reads.  The bitset
rows of the exact alpha search are packed from them only when a reader asks
(``Graph.rows``, ``_rows_from_arrays``).  Both constructions are symmetric
under field maps: scalings and the Frobenius, and in characteristic 2
translations (``_field_maps``).  A map is kept only if it keeps the labels'
relations (``_keeps_labels``) and sends every row onto its image's row,
checked in O(nd) on the regular (n, d) table (``_is_automorphism``), once
per graph (``Graph._symmetry``).  The orbits prune the root of the exact
alpha search and bound the one check per graph of M^2 = Q = qI + tJ - S_c -
t S_x (``Graph._m2_is_q``), which reads one row of M^2 per orbit as a
bincount of its 2-walk ends (``_m2_rows``): times(121,2), n = 7,260, has 66
orbits and is checked in 0.03 s.  The audit then reads its codegree histogram off Q
(``codegree_histogram``); any other graph, a 2-walk pair count or the GEMM.

Graphs serialize to a line-oriented ``g2t`` text format (see ``to_g2t``) that
round-trips byte-identically when the header values and labels are unsigned
decimals of at most 18 digits, the variant is printable ASCII with no space,
and a plus/times graph carries its construction's metadata and labels, as for
every construction and sampler here; ``to_g2t`` refuses the rest up front by
the checks ``from_g2t`` makes (``_check_g2t``).  Both directions are numpy
kernels over the neighbour arrays whose working memory is bounded per step.
The writer reads at most ``_ENTRIES`` entries at a time; those with v >= u
are the block's edges in (u, v) order, and their ``e u v`` lines are written
digit by digit into one byte array, a piece of the text that ``write_g2t``
writes as soon as it is formed.  The parser reads the bytes after the header
in pieces of about ``_PIECE`` bytes cut at a line end: it classifies them,
cuts tokens and lines where the byte class changes, decodes each number by
digit position straight into record columns sized once, makes every check
an array predicate and sorts the edges by row into the neighbour arrays.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .fields import Subgroup, is_prime_power, make_field, subgroup

# integers are exact in float32 below 2^24
_FLOAT32_EXACT = 1 << 24
# rows per block of the blockwise kernels (row packing, the audit's M^2 when
# no map is kept, the class rows): a block is at most _BLOCK x n beside the
# inputs
_BLOCK = 512
# 2-walks, and entries of M^2, per block of ``_m2_rows``: their int64 keys
# take 1 MB, and a block's arrays about 2.6 MB in all
_WALKS = 1 << 17


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
    """Undirected graph as its neighbour arrays, kept read-only: row i's
    neighbours, strictly ascending and a loop once (it adds 1 to the
    degree), are ``nbr[start[i]:start[i+1]]``, int32 in [0, n), and
    ``start`` is n+1 non-decreasing int64 offsets from 0 to len(nbr).  Other
    arrays, or len(labels) != n, are a ValueError.  ``labels[i]`` is the
    (coset id, field element) pair behind vertex i for the algebraic
    variants; synthetic graphs carry (0, i).

    Equality and hashing compare the arrays' contents, the labels and the
    metadata, not what is cached on the instance on first read: the bitset
    rows (``rows``), whether M is symmetric (``_symmetric``), the verified
    field maps with their orbits (``_symmetry``) and whether M^2 = Q
    (``_m2_is_q``).
    """

    start: np.ndarray
    nbr: np.ndarray
    labels: tuple[tuple[int, int], ...]
    meta: GraphMeta

    def __post_init__(self) -> None:
        start, nbr = np.asarray(self.start, dtype=np.int64), np.asarray(self.nbr, dtype=np.int32)
        start.flags.writeable = nbr.flags.writeable = False
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "nbr", nbr)
        n, m = start.size - 1, nbr.size
        if (start.ndim != 1 or nbr.ndim != 1 or n < 0 or start[0] != 0 or start[-1] != m
                or (start[1:] < start[:-1]).any()):
            raise ValueError("start is not n+1 non-decreasing offsets from 0 to len(nbr)")
        if m and not 0 <= nbr.min() <= nbr.max() < n:
            raise ValueError(f"a neighbour lies outside [0, {n})")
        step = nbr[1:] > nbr[:-1]
        cut = start[1:-1]
        step[cut[(cut > 0) & (cut < m)] - 1] = True  # a row's first entry follows another row
        if not step.all():
            raise ValueError("a row of nbr is not strictly ascending")
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} vertices")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.meta == other.meta and self.labels == other.labels
                and np.array_equal(self.start, other.start) and np.array_equal(self.nbr, other.nbr))

    def __hash__(self) -> int:
        return hash((self.start.tobytes(), self.nbr.tobytes(), self.labels, self.meta))

    @property
    def n(self) -> int:
        return len(self.start) - 1

    def degree(self, i: int) -> int:
        return int(self.start[i + 1] - self.start[i])

    def loop_count(self) -> int:
        owner, nbr = _entries(self)
        return int(np.count_nonzero(nbr == owner))

    def edge_count(self) -> int:
        """Unordered edge count; a loop counts as one edge."""
        return (len(self.nbr) + self.loop_count()) // 2

    def neighbors(self, i: int) -> list[int]:
        return self.nbr[self.start[i]:self.start[i + 1]].tolist()

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=dtype)
        m[_entries(self)] = 1
        return m

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """One int bitset per row, bit j of rows[i] the {i, j} entry, packed
        on first read (``_rows_from_arrays``) for the search code in
        ``independence``, which reads them."""
        return tuple(_rows_from_arrays(self.start, self.nbr))

    @cached_property
    def _symmetric(self) -> bool:
        """Is M symmetric?  The entries u * n + v, ascending by construction
        of the arrays, must be their transposes v * n + u once sorted."""
        owner, nbr = _entries(self)
        transposed = (nbr * np.int64(self.n) + owner).ravel()
        transposed.sort()
        return np.array_equal(transposed, (owner * self.n + nbr).ravel())

    @cached_property
    def _symmetry(self) -> tuple[list[np.ndarray], np.ndarray | None]:
        """The field maps that keep the labels' relations (``_keeps_labels``)
        and the rows (``_is_automorphism``), and the orbit labels of the group
        they generate (``_orbit_labels``), or None when none is kept."""
        w, _ = _layout(self.meta.variant, self.meta.q)
        kept = [perm for perm in _field_maps(self)
                if _keeps_labels(perm, w) and _is_automorphism(self, perm)]
        return kept, _orbit_labels(self.n, kept) if kept else None

    @cached_property
    def _m2_is_q(self) -> bool:
        """Is M^2 = Q = qI + tJ - S_c - t S_x, S_c marking the pairs in one
        coset and S_x those with one x, vertex i being (c, x) = divmod(i, w)?
        False for metadata that is not a construction, and, before a row is
        read, unless M is symmetric and (q-1)-regular, as (M^2)_uu = deg(u)
        and Q_uu = q - 1.  M^2 is read at one vertex per orbit of the kept
        maps (``_m2_rows``): a kept map keeps M^2 and Q alike."""
        meta, n = self.meta, self.n
        try:
            _check_construction(meta, n)
        except ValueError:
            return False
        q, t, w = meta.q, meta.t, _layout(meta.variant, meta.q)[0]
        view = _regular_view(self)
        if (meta.variant not in ("plus", "times") or view is None or view.shape[1] != q - 1
                or not self._symmetric):
            return False
        label = self._symmetry[1]
        reps = np.arange(n) if label is None else np.flatnonzero(label == np.arange(n))
        for vs, diff in _m2_rows(self, reps):
            r = np.arange(len(vs))
            c, x = np.divmod(vs, w)
            by_cx = diff.reshape(len(vs), n // w, w)
            diff -= t                    # tJ
            by_cx[r, :, x] += t          # -t S_x
            by_cx[r, c, :] += 1          # -S_c
            diff[r, vs] -= q             # qI
            if diff.any():
                return False
        return True


def _regular_view(g: Graph) -> np.ndarray | None:
    """The neighbour arrays as an (n, d) view when G is d-regular, else None."""
    n = g.n
    if n and np.array_equal(g.start, np.arange(n + 1) * (d := int(g.start[1]))):
        return g.nbr.reshape(n, d)
    return None


def _entries(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(owner, nbr): M's ones as row and column arrays that broadcast
    together.  On a d-regular graph nbr is the (n, d) view of the neighbour
    arrays and owner the (n, 1) column of row indices; otherwise both are
    flat, owner repeating each row index over its entries."""
    view = _regular_view(g)
    if view is not None:
        return np.arange(g.n)[:, None], view
    return np.repeat(np.arange(g.n), np.diff(g.start)), g.nbr


def _gather(g: Graph, vs: np.ndarray) -> np.ndarray:
    """The neighbour lists of the vertices vs, concatenated in their order."""
    lo = g.start[vs]
    size = g.start[vs + 1] - lo
    # entry k of row j reads nbr[lo[j] + k - (the entries before row j)]
    return g.nbr[np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())]


def _codegree_counts(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(key, count) over every 2-walk u - w - v: ascending keys u * n + v of the
    pairs u < v and their codegrees; ValueError if 40 B a walk exceed physical memory."""
    size = np.diff(g.start)
    u, w = np.repeat(np.arange(g.n), size), g.nbr  # w is one of u's neighbours
    _check_memory(40 * int(size[w].sum()), f"the 2-walks of a graph on {g.n} vertices")
    v = _gather(g, w)
    u = np.repeat(u, size[w])
    keep = u < v
    return np.unique(u[keep] * np.int64(g.n) + v[keep], return_counts=True)


def _bits(x: int) -> list[int]:
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


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


def _unpack_rows(rows: Sequence[int], width: int) -> np.ndarray:
    """The 0/1 uint8 matrix of bitset rows over ``width`` columns (no row may
    have a bit past them): the inverse of ``_pack_rows``."""
    nbytes = (width + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows),
                           dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def _rows_from_arrays(start: np.ndarray, nbr: np.ndarray) -> list[int]:
    """Bitset rows of the neighbour arrays, 512 rows at a time: each entry's
    bit is added into its byte of the block's little-endian row bytes, only
    as wide as the block's last set column.  A row's neighbours are
    distinct (``Graph`` refuses a row that is not strictly ascending), so
    the adds are ORs, and ``np.add.at`` has numpy's indexed fast path
    (``np.bitwise_or.at`` took 2x as long)."""
    rows: list[int] = []
    for b in range(0, len(start) - 1, _BLOCK):
        e = min(b + _BLOCK, len(start) - 1)
        c = nbr[start[b]:start[e]]
        width = (int(c.max(initial=-1)) + 8) // 8
        byte = np.repeat(np.arange(e - b) * width, np.diff(start[b:e + 1]))
        byte += c >> 3
        packed = np.zeros((e - b) * width, dtype=np.uint8)
        np.add.at(packed, byte, np.uint8(1) << (c & 7).astype(np.uint8))
        rows += [int.from_bytes(row.tobytes(), "little") for row in packed.reshape(e - b, width)]
    return rows


@lru_cache(maxsize=16)
def _subgroup(variant: str, p: int, a: int, t: int) -> Subgroup:
    """The subgroup H of order t behind a plus or times graph on GF(p^a),
    built once for the builder and ``_field_maps`` alike."""
    return subgroup(make_field(p, a), "additive" if variant == "plus" else "multiplicative", t)


def _coset_graph(variant: str, p: int, a: int, t: int) -> Graph:
    """The plus or times graph by the module docstring's rule, one coset c at
    a time as a (width, q-1) neighbour array with a column per unit u: plus
    has y = u and one x*y table, exp[(log x + log y) mod (q-1)], for all c;
    times has u = x + y, so y = u - x and x + y = 0 never arises.

    Each coset's neighbour array fills its rows of one (n, q-1) int32 table,
    sorted by row at the end: the graph's neighbour arrays.

    Before the field is built, the peak is estimated and checked against
    physical memory: a few int32/int64 (width, q-1) tables, the neighbour
    table, and the n^2/8 bytes of bitset rows and one 512-row block of their
    bytes with its index arrays that ``alpha``, ``qrset`` and ``conjecture``
    pack later (``Graph.rows``)."""
    q = p**a
    width, first = _layout(variant, q)
    n = (q if variant == "plus" else q - 1) // t * width
    need = 32 * width * (q - 1) + 4 * n * (q - 1) + n * n // 8 + _BLOCK * (n // 8 + 24 * (q - 1))
    _check_memory(need, f"the {variant} graph on q = {q}, t = {t} (n = {n})")
    F = make_field(p, a)
    H = _subgroup(variant, p, a, t)
    exp, log = np.array(F.exp, dtype=np.int32), np.array(F.log, dtype=np.int32)
    coset = H.coset_id  # int64: b * width + y may pass 2^31
    x = np.arange(first, q, dtype=np.int32)[:, None]
    u = np.arange(1, q, dtype=np.int32)
    if variant == "plus":
        y, xy = u, exp[(log[x] + log[u]) % (q - 1)]
    else:
        y = F.sub(u, x)
    nbr = np.empty((n, q - 1), dtype=np.int32)
    for c, rep in enumerate(H.reps):
        if variant == "plus":
            b = coset[F.sub(xy, rep)]
        else:
            b = coset[exp[(log[u] - log[rep]) % (q - 1)]]
        nbr[c * width:(c + 1) * width] = b * width + (y - first)
    nbr.sort(axis=1)
    labels = tuple((c, v) for c in range(H.num_cosets) for v in range(first, q))
    return Graph(np.arange(n + 1, dtype=np.int64) * (q - 1), nbr.ravel(), labels,
                 GraphMeta(variant=variant, p=p, a=a, q=q, t=t))


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


def _walk_matrix(g: Graph) -> np.ndarray:
    """M in float32, once M^2 = M @ M is known exact: a partial sum in row i
    is at most the measured maximum degree d, and d < 2^24.  Refused
    (ValueError) past that bound, or when 5 n^2 bytes, M and n^2 bytes to
    spare, would not fit in physical memory."""
    n = g.n
    _check_memory(5 * n * n, f"the dense adjacency matrix at n = {n}")
    d = int(np.diff(g.start).max(initial=0))
    if d >= _FLOAT32_EXACT:
        raise ValueError(f"maximum degree {d} is too large for exact float32 walks")
    return g.adjacency_matrix(dtype=np.float32)


def _m2_rows(g: Graph, reps: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rows of M^2 at the vertices ``reps`` of a d-regular G, a block at a
    time, for ``Graph._m2_is_q``: (vs, rows), rows[k] being row vs[k] of M^2
    in int64, the bincount of vs[k]'s 2-walk ends on the (n, d) table.  A
    block holds at most ``_WALKS`` 2-walks and ``_WALKS`` entries of M^2, or
    one vertex; on a construction n <= d^2, so only the walks bind."""
    view = _regular_view(g)
    n, d = view.shape
    step = max(1, _WALKS // max(d * d, n))
    for i in range(0, len(reps), step):
        vs = reps[i:i + step]
        key = view[view[vs]] + (np.arange(len(vs)) * n)[:, None, None]
        yield vs, np.bincount(key.ravel(), minlength=len(vs) * n).reshape(len(vs), n)


def codegree_histogram(g: Graph) -> dict[int, int]:
    """Histogram of |N(u) ∩ N(v)| over unordered pairs u < v (inclusive
    counts), each the exact (M^2)_{uv}: the one codegree counter.

    Once M^2 = Q is checked (``Graph._m2_is_q``), it is Q's: t-1 on the
    n(w-1)/2 pairs in one coset, 0 on the n(C-1)/2 pairs with one x (C = n / w
    cosets), t on the rest.  Any other graph with at most n^2/2 2-walks takes
    the pair count (``_codegree_counts``), the rest the float32 GEMM.  Pair
    count vs GEMM, min of 5-9 runs on a 2-core box, on G(n, p) with n^2/2
    2-walks: n = 1,000 8.1 vs 10.8 ms, 2,000 30 vs 40, 4,000 142 vs 264; with
    n^2: 15 vs 6.8, 66 vs 36, 370 vs 242; G(500, 0.3) 216 vs 2.0 ms; the n =
    2,096 recipe sample 0.7 vs 55 ms."""
    n = g.n
    if g._m2_is_q:
        t, w = g.meta.t, _layout(g.meta.variant, g.meta.q)[0]
        same_c, same_x = n * (w - 1) // 2, n * (n // w - 1) // 2
        hist = {0: same_x, t - 1: same_c, t: n * (n - 1) // 2 - same_c - same_x}
    elif 2 * int(np.diff(g.start)[g.nbr].sum()) > n * n:  # more 2-walks than n^2/2
        return _codegree_histogram_gemm(g)
    else:
        counts = _codegree_counts(g)[1]
        hist = {**dict(enumerate(np.bincount(counts).tolist())), 0: n * (n - 1) // 2 - len(counts)}
    return {c: k for c, k in hist.items() if k}


def _codegree_histogram_gemm(g: Graph) -> dict[int, int]:
    """``codegree_histogram`` off the exact float32 M^2, one 512-row block at
    a time, so only M and one block of M^2 are held.  M^2 is symmetric, so a
    block is multiplied only by the columns from its first row on: the pairs
    right of the block's square are counted once, the square's off-diagonal
    ones twice."""
    m = _walk_matrix(g)
    n = g.n
    twice = np.zeros(n + 1, dtype=np.int64)  # a codegree is at most n
    for i in range(0, n, _BLOCK):
        codeg = (m[i:i + _BLOCK] @ m[:, i:]).astype(np.int64)
        k = len(codeg)
        twice += 2 * np.bincount(codeg[:, k:].ravel(), minlength=n + 1)
        twice += np.bincount(codeg[:, :k].ravel(), minlength=n + 1)
        twice -= np.bincount(codeg.diagonal(), minlength=n + 1)  # u = v
    return {c: int(x) // 2 for c, x in enumerate(twice) if x}


def structural_audit(g: Graph) -> StructuralReport:
    """Measure size, degrees, loops, and the codegree histogram; flag each claim.

    For the algebraic variants the claims are: n = q(q-1)/t, (q-1)-regular,
    q-1 loops, and codegree exactly t for every pair.  Loop counts actually
    concentrate differently in even characteristic, and the codegree histogram
    is not a single bin (see class docstring); the flags record the truth.
    """
    n = g.n
    degs = Counter(np.diff(g.start).tolist())
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


# -- automorphisms ---------------------------------------------------------------


def _field_maps(g: Graph) -> list[np.ndarray]:
    """Candidate automorphisms of a plus/times graph, derived from its
    metadata and field tables, each as the array ``perm`` that sends vertex i
    to vertex perm[i]; identities left out, and none for any other graph or
    for metadata that is not a construction.  With s_k(x) = x^(p^k):

    - plus: (a, x) -> (v^2 s_k(a), v s_k(x)) whenever v^2 s_k(H) = H, for
      k = 0 and for the least k >= 1 that admits a v, each with the least
      v = g^e (for k = 0 it generates every such v);
    - times: (a, x) -> (g a, g^2 x) and (a, x) -> (s_1(a), s_1(x));
    - in characteristic 2, also a -> a + 2^j (plus) or x -> x + 2^j (times),
      2^j running over the a basis elements of GF(2^a): a translation by s
      adds 2s = 0 to a + b or x + y.

    A coset maps through its representative.  Nothing here is trusted:
    ``_is_automorphism`` checks each map against the rows."""
    meta = g.meta
    if meta.variant not in ("plus", "times"):
        return []
    try:
        _check_construction(meta, g.n)
        F = make_field(meta.p, meta.a)
    except ValueError:
        return []
    p, a, q, t = meta.p, meta.a, meta.q, meta.t
    plus = meta.variant == "plus"
    H = _subgroup(meta.variant, p, a, t)
    exp, log = np.array(F.exp, dtype=np.int64), np.array(F.log, dtype=np.int64)
    coset = H.coset_id
    width, first = _layout(meta.variant, q)
    cid, x = np.divmod(np.arange(g.n), width)
    x += first
    rep = np.array(H.reps, dtype=np.int64)[cid]

    def scale(y, e, k):  # g^e s_k(y), elementwise; 0 stays 0
        return np.where(y == 0, 0, exp[(log[y] * p**k + e) % (q - 1)])

    def vertex(b, y):  # the index of (the coset of b, y)
        return coset[b] * width + y - first

    maps = []
    if plus:
        in_h = np.zeros(q, dtype=np.bool_)
        in_h[list(H.elements)] = True
        # H of order p^b is the span of x^1..x^b (fields.subgroup)
        basis = exp[np.arange(1, is_prime_power(t)[1] + 1) % (q - 1)]
        # admits[k, e - 1]: v = g^e puts v^2 s_k(basis) inside H (basis has no 0)
        ks, e = np.arange(a)[:, None, None], np.arange(1, q)[:, None]
        admits = in_h[exp[(log[basis] * p**ks + 2 * e) % (q - 1)]].all(axis=2)
        # k = 0 and the least k >= 1 that admits a v, each with its least v
        for k in [0, *np.flatnonzero(admits[1:].any(axis=1))[:1] + 1]:
            if admits[k].any():
                v = int(np.argmax(admits[k])) + 1
                maps.append(vertex(scale(rep, 2 * v, k), scale(x, v, k)))
    else:
        maps += [vertex(scale(rep, 1, 0), scale(x, 2, 0)), vertex(scale(rep, 0, 1), scale(x, 0, 1))]
    if p == 2:
        maps += [vertex(rep ^ 1 << j, x) if plus else vertex(rep, x ^ 1 << j) for j in range(a)]
    index = np.arange(g.n)
    return [perm for perm in maps if (perm != index).any()]


def _is_automorphism(g: Graph, perm: np.ndarray) -> bool:
    """True iff G is regular, as every construction is, and ``perm`` is a
    bijection of its vertices that sends every row, loops included, onto its
    image's row: G's entry (perm[i], perm[j]) is its entry (i, j).  O(nd) on
    the (n, d) table (``_regular_view``): perm[nbr[u]], sorted, is
    nbr[perm[u]] for every u, checked a block of rows at a time."""
    n = g.n
    view = _regular_view(g)
    if view is None or perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        return False
    step = max(1, _WALKS // 4 // max(view.shape[1], 1))  # about _WALKS / 4 entries a block
    perm32 = perm.astype(np.int32)
    return all(np.array_equal(np.sort(perm32[view[s:s + step]], axis=1), view[perm[s:s + step]])
               for s in range(0, n, step))


def _keeps_labels(perm: np.ndarray, w: int) -> bool:
    """Does the bijection ``perm`` of the vertices c * w + x send every coset
    to one coset and every x to one x?  Its image's coset is then a function
    of c alone and its x of x alone, both bijective as perm is, so perm keeps
    the same-coset and same-x relations both ways.  O(n)."""
    c, x = np.divmod(perm.reshape(-1, w), w)
    return bool((c == c[:, :1]).all() and (x == x[:1]).all())


def _orbit_labels(n: int, maps: list[np.ndarray]) -> np.ndarray:
    """``label[i]``, the least vertex of i's orbit under the group the maps
    (bijections of range(n)) generate.  The orbits are the components of
    the maps' cycles: each round gives i and perm[i] the lesser of their
    labels under every map, then reads each label's own label, until
    nothing changes."""
    label = np.arange(n)
    while True:
        new = label.copy()
        for perm in maps:
            np.minimum(new, label[perm], out=new)
            new[perm] = np.minimum(new[perm], label)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


# -- g2t serialization ----------------------------------------------------------

# body bytes the parser reads at a time, cut at the next line end.  A piece's
# byte, token and record temporaries take 20-22 bytes a byte, 1.4 MB at 64 KB,
# so the parse's working memory is its record columns.  On a 2-core VM,
# from_g2t of times(121,15) traces 2.8 MB and takes 8-10 ms (12.3 MB and
# 11-14 ms in 2 MB pieces), read_g2t of plus(256,2)'s 56 MB peaks at 232 MB
# RSS (345 MB), and 32 KB pieces parse the fleet within noise of 64 KB
_PIECE = 1 << 16
# entries of the neighbour arrays per block of the g2t writer, or one row:
# to_g2t of times(121,15) traces 1.5 MB (4.7 MB in 512-row blocks), and
# write_g2t of plus(256,2) peaks at 75 MB RSS, build included (176 MB);
# 8,192-entry blocks write the 75 fleet cases about 4 % slower
_ENTRIES = 1 << 14
_MAX_DIGITS = 18  # a g2t number has at most 18 digits, so it fits an int64
_POW10 = 10 ** np.arange(_MAX_DIGITS + 1, dtype=np.int64)  # 1, 10, ..., 10^18
_G2T_LIMIT = 10 ** _MAX_DIGITS  # every g2t number is below it

# byte classes of the lines after the header; every other byte is refused
_SPACE, _LF, _DIGIT, _TAG, _OTHER = range(5)
_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_CLASS[[ord(" "), ord("\t")]] = _SPACE
_CLASS[ord("\n")] = _LF
_CLASS[ord("0"):ord("9") + 1] = _DIGIT
_CLASS[[ord("e"), ord("v")]] = _TAG


def _digit_counts(x: np.ndarray) -> np.ndarray:
    """Decimal digit count of each non-negative x < 10^19."""
    return 1 + np.searchsorted(_POW10[1:], x, side="right")


def _put_decimal(out: np.ndarray, last: np.ndarray, x: np.ndarray, width: np.ndarray) -> None:
    """Write the ``width`` decimal digits of each non-negative x into ``out``,
    the last digit at ``last`` (which is overwritten): one divmod pass per
    digit position."""
    if not len(x):
        return
    short = int(width.min())
    for k in range(int(width.max())):
        if k >= short:  # drop the numbers already written out
            keep = width > k
            last, x, width = last[keep], x[keep], width[keep]
        x, digit = np.divmod(x, 10)
        out[last] = digit.astype(np.uint8) + np.uint8(ord("0"))
        last -= 1


def _edge_lines(u: np.ndarray, v: np.ndarray) -> str:
    """``e <u> <v>`` LF-terminated lines, written into one byte array."""
    wu, wv = _digit_counts(u), _digit_counts(v)
    ends = np.cumsum(wu + wv + 4)  # one past each line's LF
    out = np.full(int(ends[-1]) if len(ends) else 0, ord(" "), dtype=np.uint8)
    out[ends - (wu + wv + 4)] = ord("e")
    out[ends - 1] = ord("\n")
    _put_decimal(out, ends - 2, v, wv)
    _put_decimal(out, ends - 3 - wv, u, wu)
    return str(out.data, "ascii")


def to_g2t(g: Graph) -> str:
    """Serialize deterministically: header, vertex labels, sorted edges, LF only.

    Header: ``g2t v1 variant=<v> p=<p> a=<a> q=<q> t=<t> n=<n>``; one
    ``v <index> <coset_id> <element>`` line per vertex in index order; one
    ``e <u> <v>`` line (u <= v) per edge in lexicographic order.

    A graph ``from_g2t`` could not read back is refused with a ValueError
    before anything is written (see ``_check_g2t``).

    The text is the join of ``_g2t_pieces``, which ``write_g2t`` writes one
    at a time.
    """
    return "".join(_g2t_pieces(g))


def _g2t_pieces(g: Graph) -> Iterator[str]:
    """``to_g2t``'s text in pieces: the header and the n ``v`` lines, formatted
    by ``str``, then the ``e`` lines of one block of rows at a time.  A block
    holds at most ``_ENTRIES`` entries of the neighbour arrays, or one row;
    its entries with v >= u are already in (u, v) order, and their lines are
    written digit by digit into one byte array."""
    m = g.meta
    _check_g2t(m, g.labels)
    lines = [f"g2t v1 variant={m.variant} p={m.p} a={m.a} q={m.q} t={m.t} n={g.n}"]
    lines += [f"v {i} {cid} {x}" for i, (cid, x) in enumerate(g.labels)]
    yield "\n".join(lines) + "\n"
    start, nbr = g.start, g.nbr
    b = 0
    while b < g.n:
        e = max(b + 1, int(np.searchsorted(start, start[b] + _ENTRIES, side="right")) - 1)
        u = np.repeat(np.arange(b, e), np.diff(start[b:e + 1]))
        v = nbr[start[b]:start[e]]
        upper = v >= u
        yield _edge_lines(u[upper], v[upper])
        b = e


_G2T_HEADER_KEYS = ("variant", "p", "a", "q", "t", "n")


def _g2t_header(line: str, max_n: int) -> tuple[GraphMeta, int]:
    """Parse and cross-check a g2t header; every defect is a ValueError.

    ``max_n`` is the number of lines after the header: n may not exceed it,
    which is checked before anything of size n is touched.
    """
    if not line.replace("\t", " ").isprintable():
        raise ValueError("the g2t header holds a control character")
    fields = {}
    for tok in line.split()[2:]:
        key, eq, value = tok.partition("=")
        if not eq or key in fields:
            raise ValueError(f"g2t header token {tok!r} is not a new key=value")
        fields[key] = value
    missing = [k for k in _G2T_HEADER_KEYS if k not in fields]
    if missing:
        raise ValueError(f"g2t header lacks {', '.join(k + '=' for k in missing)}")
    for key in _G2T_HEADER_KEYS[1:]:
        if not (fields[key].isdigit() and len(fields[key]) <= _MAX_DIGITS):
            raise ValueError(f"g2t header {key}={fields[key]!r} is not an unsigned "
                             f"decimal of at most {_MAX_DIGITS} digits")
    p, a, q, t, n = (int(fields[k]) for k in _G2T_HEADER_KEYS[1:])
    if n > max_n:
        raise ValueError(f"header says n = {n} but only {max_n} lines follow it")
    return GraphMeta(variant=fields["variant"], p=p, a=a, q=q, t=t), n


def _check_g2t(meta: GraphMeta, labels) -> None:
    """Raise ValueError unless a g2t file of this header and these n vertex
    labels, (cid, x) pairs, reads back as written: the variant is printable
    ASCII without whitespace, p, a, q, t and the labels are unsigned decimals
    of at most 18 digits, and a plus/times graph has the construction's
    metadata and the label it gives each index.  O(n), in numpy; ``to_g2t``
    calls it before writing, ``from_g2t`` once the labels are read."""
    if not all("!" <= c <= "~" for c in meta.variant):
        raise ValueError(f"variant {meta.variant!r} is not printable ASCII without whitespace")
    header = (meta.p, meta.a, meta.q, meta.t)
    if not 0 <= min(header) <= max(header) < _G2T_LIMIT:
        raise ValueError(f"p, a, q, t = {header} are not all unsigned decimals "
                         f"of at most {_MAX_DIGITS} digits")
    try:
        labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
        readable = not len(labels) or 0 <= labels.min() <= labels.max() < _G2T_LIMIT
    except OverflowError:  # a label past int64
        readable = False
    if not readable:
        raise ValueError(f"a vertex label is not a pair of unsigned decimals "
                         f"of at most {_MAX_DIGITS} digits")
    if meta.variant in ("plus", "times"):
        n = len(labels)
        _check_construction(meta, n)
        width, first = _layout(meta.variant, meta.q)
        index = np.arange(n)
        bad = np.flatnonzero((labels[:, 0] != index // width) | (labels[:, 1] != index % width + first))
        if len(bad):
            k = int(bad[0])
            raise ValueError(f"vertex {k} has label {tuple(labels[k].tolist())}, not the "
                             f"{meta.variant} construction's {(k // width, k % width + first)}")


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


def _g2t_records(a: np.ndarray, columns: list[np.ndarray], ne: int, nv: int) -> tuple[int, int]:
    """Decode the ``e u v`` and ``v i c x`` records in whole g2t body lines
    ``a`` (bytes after the header, LF line ends, the last LF optional; at
    least one byte) into the record columns (u, v, i, c, x), the ``e``
    records from row ne and the ``v`` records from row nv on; return the
    rows filled then.  Checks the bytes, the record shapes and the number
    widths, each refusing the first defect in ``a``; ranges are the caller's.

    Tokens are the runs of non-space bytes; a record is a line with tokens,
    and its first token is its tag.  A number is decoded by digit position,
    10^k times its k-th digit from the end, over all numbers of a field at
    once.
    """
    cls = _CLASS.take(a)
    nl = np.flatnonzero(cls == _LF)
    if cls[-1] != _LF:
        nl = np.append(nl, len(a))  # the unterminated last line

    def malformed(pos: int) -> ValueError:
        k = int(np.searchsorted(nl, pos))  # the line holding byte pos
        lo = int(nl[k - 1]) + 1 if k else 0
        return ValueError(f"malformed g2t line {a[lo:nl[k]].tobytes().decode()!r}")

    if cls.max() == _OTHER:
        raise malformed(np.argmax(cls == _OTHER))
    is_tok = np.zeros(len(a) + 2, dtype=np.int8)
    is_tok[1:-1] = cls >= _DIGIT
    step = np.diff(is_tok)  # +1 where a token starts, -1 one past its end
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
    through = np.searchsorted(starts, nl)  # tokens starting before each line's end
    ntok = np.diff(through, prepend=0)
    tag = (through - ntok)[ntok > 0]  # each record's first token
    is_e = a[starts[tag]] == ord("e")
    shaped = ((ends[tag] - starts[tag] == 1) & (cls[starts[tag]] == _TAG)
              & (ntok[ntok > 0] == np.where(is_e, 3, 4)))
    if not shaped.all():
        raise malformed(starts[tag[np.argmin(shaped)]])
    if np.count_nonzero(cls == _TAG) != len(tag):  # a tag byte inside a number
        letters = np.flatnonzero(cls == _TAG)
        raise malformed(letters[np.isin(letters, starts[tag], invert=True)][0])
    width = ends - starts
    if width.max(initial=0) > _MAX_DIGITS:
        raise malformed(starts[np.argmax(width > _MAX_DIGITS)])
    e, v = tag[is_e], tag[~is_e]
    for col, at, f in zip(columns, (ne, ne, nv, nv, nv), (e + 1, e + 2, v + 1, v + 2, v + 3)):
        _decimals(a, ends[f] - 1, width[f], col[at:at + len(f)])
    return ne + len(e), nv + len(v)


def _decimals(a: np.ndarray, last: np.ndarray, width: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the unsigned decimals of ``width`` digits ending at
    ``last`` in ``a``."""
    out.fill(0)
    for k in range(int(width.max(initial=0))):
        # int64 before the product: NumPy 1.x would keep uint8 * 10^k in uint8
        digit = a[last - k].astype(np.int64) - ord("0")
        digit[width <= k] = 0  # before the number
        out += digit * _POW10[k]


def _edge_arrays(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour arrays (start, nbr) of the edges (u, v), u <= v < n: both
    directions sorted into one key row * n + column, each key kept once (a
    loop gives it twice, a repeated line more), then reduced to its column
    in place."""
    m = len(u)
    key = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=key[:m])
    key[:m] += v
    np.multiply(v, n, out=key[m:])
    key[m:] += u
    key.sort()
    first = np.ones(len(key), dtype=np.bool_)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    key = key[first]
    start = np.searchsorted(key, np.arange(n + 1) * n)
    return start, np.remainder(key, max(n, 1), out=key).astype(np.int32)


def _g2t_fields(data: bytes) -> tuple[GraphMeta, int, list[np.ndarray]]:
    """The header of a g2t file's bytes and its record columns u, v, i, c, x,
    once the bytes, the record shapes and the number widths are checked a
    piece at a time, in file order.  A piece is about ``_PIECE`` bytes of
    whole lines, so its byte and token arrays stay small whatever the file's
    size.  Every record has one tag byte and every other ``e`` or ``v`` is
    refused, so the columns are sized once by counting those bytes, and each
    piece decodes straight into its rows of them."""
    if not data.isascii():
        raise ValueError("a g2t file is ASCII text")
    if b"\r" in data:  # universal newlines
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.startswith(b"g2t v1 "):
        raise ValueError("not a g2t v1 file")
    body = data.find(b"\n") + 1 or len(data)  # the first byte after the header
    max_n = data.count(b"\n", body) + (body < len(data) and not data.endswith(b"\n"))
    meta, n = _g2t_header(data[:body].rstrip(b"\n").decode(), max_n)
    ne, nv = data.count(b"e", body), data.count(b"v", body)
    columns = [np.empty(k, dtype=np.int64) for k in (ne, ne, nv, nv, nv)]
    buf = np.frombuffer(data, dtype=np.uint8)
    ne = nv = 0
    while body < len(data):
        cut = data.find(b"\n", body + _PIECE) + 1 or len(data)
        ne, nv = _g2t_records(buf[body:cut], columns, ne, nv)
        body = cut
    return meta, n, columns


def _g2t_graph(meta: GraphMeta, n: int, columns: list[np.ndarray]) -> Graph:
    """The graph of a g2t file's header and record columns, once the edge
    ranges, the vertex lines and the labels are checked."""
    u, v, i, cid, x = columns
    bad = np.flatnonzero((u > v) | (v >= n))
    if len(bad):
        raise ValueError(f"edge ({u[bad[0]]}, {v[bad[0]]}) malformed")
    bad = np.flatnonzero(i >= n)
    if len(bad):
        raise ValueError(f"vertex index {i[bad[0]]} out of range")
    seen = np.bincount(i, minlength=n)
    if len(seen) and seen.max() > 1:
        raise ValueError(f"vertex {np.argmax(seen)} has more than one v line")
    if len(i) != n:
        raise ValueError(f"expected {n} vertex lines, saw {len(i)}")
    labels = np.empty((n, 2), dtype=np.int64)
    labels[i] = np.stack([cid, x], axis=1)
    _check_g2t(meta, labels)
    start, nbr = _edge_arrays(n, u, v)
    return Graph(start, nbr, tuple(map(tuple, labels.tolist())), meta)


def from_g2t(text: str) -> Graph:
    """Parse ``to_g2t`` output; every malformed input raises ValueError.

    The grammar: ASCII text with no control character but tab, CR and LF; a
    line ends at LF, CRLF or a lone CR; tokens are separated by spaces or
    tabs.  The first line is the header, ``g2t v1 `` and key=value tokens.
    Every later line is blank or a record, ``e u v`` or ``v i c x``, whose
    numbers (and the header's p, a, q, t, n) are unsigned decimals of at
    most 18 digits.

    The header must carry all of variant, p, a, q, t, n, and n may not pass
    the number of lines after it; for ``plus``/``times`` they must describe a
    valid construction (q = p^a, t a subgroup order, n = q(q-1)/t), and each
    vertex label must be the one the construction gives that index.  Each
    vertex needs exactly one ``v`` line, and every edge needs u <= v < n.

    The lines after the header are classified, cut into tokens and decoded
    as byte arrays, one piece of about ``_PIECE`` bytes at a time, into
    record columns sized once (``_g2t_fields``); the checks on bytes, record
    shapes and digit counts refuse the first defect of the first bad piece,
    and those on ranges, vertex lines and labels run after the last piece.
    The sorted edge keys, both directions of every edge line, are the
    graph's neighbour arrays (``_edge_arrays``).
    """
    if not text.isascii():
        raise ValueError("a g2t file is ASCII text")
    return _g2t_graph(*_g2t_fields(text.encode("ascii")))


def write_g2t(g: Graph, path: str) -> None:
    """Write ``to_g2t(g)`` to ``path`` a piece at a time."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(_g2t_pieces(g))


def read_g2t(path: str) -> Graph:
    """``from_g2t`` of a file read in binary, so its text is held once, as
    bytes, and freed before the neighbour arrays are sorted."""
    with open(path, "rb") as fh:
        fields = _g2t_fields(fh.read())
    return _g2t_graph(*fields)
