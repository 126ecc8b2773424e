"""Exact maximum-independent-set search and the explicit residue construction.

The solver runs branch-and-bound under node/time budgets after the
maximum-clique searches MCQ (Tomita & Seki) and BBMC (San Segundo et al.),
read on G itself: bitset rows renumbered by non-decreasing allowed degree
(MCQ's initial order), an incumbent seeded by the min-degree greedy, and
greedy-coloring upper bounds whose classes below ``kmin = best - size + 1``
are colored but never branched on (BBMC).  A color class is a clique of G,
so it holds at most one vertex of an independent set.  The coloring reads
one class row per vertex, v's allowed neighbours in G without v: a class
takes v and keeps only the candidates in that row, one AND, and the classes
below ``kmin`` run in a loop of their own that records nothing.  The search
is one loop over an explicit path of open nodes, root first, so its depth is
bounded by memory rather than by the interpreter's recursion limit.  On
completion the result is the exact independence number with a witness in
the original numbering; otherwise it is a certified bracket: lower is the
incumbent, upper the largest coloring bound still open on the path.  The
time budget is also read between the 512-row blocks of the class-row build,
which is Theta(n^2) whatever the edge count.

At the root alone the search also uses symmetry, as orbit pruning does in
McKay & Piperno ("Practical graph isomorphism, II", 2014): once the child of
a root branch on v is formed, the root's candidates drop v's whole orbit
under the field maps that ``graphs.Graph._symmetry`` has checked against
the rows, and a later root vertex that has left them is skipped uncounted.
The dropped set is a union of orbits and an automorphism keeps the loops, so
the candidates stay closed under the group; an independent set among them
that meets orbit(v) maps to one of the same size through v, which v's branch
has already bounded.  A graph with no kept map has singleton orbits and
searches as before, node for node.

``greedy_alpha`` is the cheap lower bound the Monte-Carlo check uses on large
samples: it repeatedly takes the live vertex of least residual degree, lowest
index on ties, and deletes it with its neighbourhood.  A lazy-deletion heap of
(degree, index) pairs picks each vertex; a deletion re-counts only the live
vertices next to the deleted neighbourhood.  The run costs O(n + T) bigint
popcounts and heap operations, where T, the total size of those touched sets,
is at most min(2m, alpha * n).

Loops need a policy the constructions force us to pick: under
``ignore-loops`` a looped vertex may join an independent set (the loop is not
a crossing edge); under ``exclude-looped`` it may not.  Both are implemented
everywhere and ``conjecture_check`` reports which one reproduces the known
alpha values.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .fields import is_prime, make_field
from .graphs import (_BLOCK, Graph, _bits, _check_memory, _layout, _pack_rows, _unpack_rows,
                     build_g_plus)

SEMANTICS = ("ignore-loops", "exclude-looped")

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_TIME_BUDGET = 300.0

# exact alpha values reported for the even-characteristic family at small a,
# where they deviate from the closed-form conjecture (which starts at a = 6)
KNOWN_EVEN_CHAR_ALPHA = {3: 4, 4: 5}


@dataclass(frozen=True)
class AlphaResult:
    """Outcome of an exact search: a value when exact, else a certified bracket."""

    lower: int
    upper: int
    exact: bool
    witness: tuple[int, ...]
    nodes_explored: int
    time_limit_hit: bool
    loop_semantics: str
    seconds: float
    budget_hit: str | None = None  # "nodes" | "time" | None

    def to_dict(self) -> dict:
        return asdict(self)


def _check_semantics(semantics: str) -> None:
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")


def _allowed(g: Graph, semantics: str) -> int:
    """Bitmask of the vertices an independent set may use: all of them, or
    under exclude-looped those without a loop."""
    mask = (1 << g.n) - 1
    if semantics == "exclude-looped":
        for v in range(g.n):
            if g.rows[v] >> v & 1:
                mask ^= 1 << v
    return mask


def _class_rows(g: Graph, semantics: str,
                deadline: float = math.inf) -> tuple[list[int], list[int]]:
    """Class rows on the allowed vertices: row k holds new vertex k's
    G-neighbours among them, k left out, in the numbering by non-decreasing
    allowed degree, lower index on ties.

    Returns the rows and ``order``, ``order[k]`` being new vertex k's original
    index.  G's rows are unpacked ``_BLOCK`` at a time, gathered over the
    allowed columns in the new order and packed back: no per-bit Python loop,
    no n x n matrix.  Memory is checked (ValueError) once the order is known,
    before the first block.  The clock is read between blocks: once
    ``time.monotonic()`` is past ``deadline``, no further block is built and
    only the first rows are returned.
    """
    mask = _allowed(g, semantics)
    # fewest allowed neighbours first; sorted() is stable, so ties keep index order
    order = sorted(_bits(mask), key=lambda v: (g.rows[v] & mask & ~(1 << v)).bit_count())
    m = len(order)
    _check_memory(m * m // 8 + min(m, _BLOCK) * (g.n + 2 * m),
                  f"the class rows of {m} allowed vertices")
    cols = np.array(order, dtype=np.intp)
    keep: list[int] = []
    for s in range(0, m, _BLOCK):
        if s and time.monotonic() > deadline:
            break
        block = _unpack_rows([g.rows[v] for v in order[s:s + _BLOCK]], g.n)[:, cols]
        k = np.arange(len(block))
        block[k, s + k] = 0  # a loop is not a class-row neighbour
        keep += _pack_rows(block)
    return keep, order


def _orbit_rows(g: Graph, order: list[int]) -> list[int]:
    """Row k: the allowed vertices of new vertex k's orbit under the verified
    field maps (``Graph._symmetry``), in the numbering of ``order``, or 0
    when the graph has no kept map.  An automorphism keeps the loops, so an
    orbit is allowed or barred as a whole."""
    label = g._symmetry[1]
    if label is None:
        return [0] * len(order)
    label = label.tolist()
    members: dict[int, int] = {}
    for k, v in enumerate(order):
        members[label[v]] = members.get(label[v], 0) | 1 << k
    return [members[label[v]] for v in order]


def verify_independent(g: Graph, vertices, semantics: str = "ignore-loops") -> bool:
    """True iff no two distinct members are adjacent (and, under exclude-looped,
    no member carries a loop)."""
    _check_semantics(semantics)
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("vertex out of range")
    mask = 0
    for v in vs:
        mask |= 1 << v
    if mask & ~_allowed(g, semantics):
        return False
    return not any(g.rows[v] & (mask ^ (1 << v)) for v in vs)


def max_independent_set_exact(
    g: Graph,
    *,
    semantics: str = "ignore-loops",
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> AlphaResult:
    """Branch-and-bound exact alpha on G's class rows.

    The allowed vertices are renumbered by non-decreasing allowed degree
    (lower index on ties), the MCQ initial order.  The incumbent starts from
    the min-degree greedy.  At every node a greedy sequential coloring of the
    candidate set, in vertex order, into cliques of G bounds the size of an
    independent set (one vertex per class), and vertices are branched on in
    reverse color order; classes below ``kmin = best - size + 1`` cannot
    improve the incumbent, so their vertices are colored but never branched
    on (BBMC).  Deterministic for fixed (graph, budgets, semantics); the
    witness is mapped back to the original indices and sorted.

    ``keep[v]``, from ``_class_rows``, holds v's G-neighbours among the
    allowed vertices without v.  A class that takes v keeps ``avail &
    keep[v]``, and the child of a branch on v is ``P & ~keep[v]``.  Classes
    below ``kmin`` are only taken out of the candidates, in a loop that reads
    no vertex index and appends nothing; the classes from ``kmin`` up record
    each vertex and its color to branch on.

    At the root only, ``orbit[v]`` (``_orbit_rows``) leaves the root's P
    once the child of v is formed from P minus v, and root vertices no longer
    in P are skipped without counting a node; the orbits are derived once the
    class rows are complete, inside the time budget.

    The open nodes from the root down are kept as a list of frames, visited
    in depth-first order.  On budget exhaustion ``lower`` is the incumbent
    and ``upper`` is read off that path: the largest of ``best`` and each
    frame's ``size + color`` of the branch it is exploring (every unexplored
    branch there is bounded by its color), or the number of allowed vertices
    if the path is empty.  The time budget counts from entry; the clock is
    read between the 512-row blocks of the class-row build, which stops at
    the first block boundary past the deadline, and before each node whose
    count is a multiple of 1024, node 0 included.  A negative (or NaN) budget
    raises ValueError, and so do m allowed vertices whose m rows of m bits,
    beside one block's unpacked and gathered bytes, would not fit in
    physical memory; that is checked before the first block is built.
    """
    _check_semantics(semantics)
    if node_budget < 0 or not time_budget >= 0:
        raise ValueError(f"budgets must be non-negative: {node_budget} nodes, {time_budget} s")
    start = time.monotonic()
    deadline = start + time_budget
    # a deadline passed in the row build leaves keep short; node 0's clock
    # read then stops the search before any row is read
    keep, order = _class_rows(g, semantics, deadline)
    full = (1 << len(order)) - 1
    # a short keep means the deadline has passed: node 0 stops the search
    orbit = _orbit_rows(g, order) if len(keep) == len(order) else []

    seed = set(_min_degree_greedy(g, semantics))
    best = len(seed)
    best_mask = 0
    for k, v in enumerate(order):
        if v in seed:
            best_mask |= 1 << k
    nodes = 0
    hit: str | None = None
    # the open nodes from the root down, each [size, mask, P, branch, bounds,
    # open]: branch holds the vertices still to branch on, last one first,
    # bounds[i] is the color of branch[i], and open is size + the color of the
    # branch being explored below it
    path: list[list] = []
    size, mask, P = 0, 0, full  # the next node to visit
    while True:
        # the row build and the seeding greedy may already have spent
        # the budget, so the clock is read before node 0 too
        if not nodes & 1023 and time.monotonic() > deadline:
            hit = "time"
            break
        nodes += 1
        if nodes > node_budget:
            hit = "nodes"
            break
        if P:
            # color classes of mutual G-neighbours; classes below
            # kmin cannot lift size past best, so they are only taken out of
            # rest, and the vertices of the others are kept to branch on
            kmin = best - size + 1
            branch: list[int] = []
            bounds: list[int] = []
            color = 0
            rest = P
            while rest and color < kmin - 1:
                color += 1
                avail = rest
                while avail:
                    low = avail & -avail
                    avail &= keep[low.bit_length() - 1]
                    rest ^= low
            while rest:
                color += 1
                avail = rest
                while avail:
                    low = avail & -avail
                    v = low.bit_length() - 1
                    avail &= keep[v]
                    rest ^= low
                    branch.append(v)
                    bounds.append(color)
            path.append([size, mask, P, branch, bounds, 0])
        elif size > best:
            best, best_mask = size, mask
        # the next node is the last branch of the deepest open node whose
        # color can still beat best; colors only fall along a branch list,
        # so the first one that cannot closes its node
        while path:
            frame = path[-1]
            branch = frame[3]
            if branch:
                size = frame[0]
                color = frame[4].pop()
                v = branch.pop()
                if not frame[2] >> v & 1:
                    continue  # it left the root's P with an orbit
                if size + color > best:
                    frame[5] = size + color
                    bit = 1 << v
                    P = frame[2] & ~bit
                    # at the root, v's whole orbit leaves P once v's child is formed
                    frame[2] = P & ~orbit[v] if len(path) == 1 else P
                    size, mask, P = size + 1, frame[1] | bit, P & ~keep[v]
                    break
            path.pop()
        else:
            break

    if path:  # a budget stopped the search below these open nodes
        upper = max(best, *(frame[5] for frame in path))
    else:
        upper = len(order) if hit else best
    return AlphaResult(
        lower=best,
        upper=upper,
        exact=hit is None,
        witness=tuple(sorted(order[k] for k in _bits(best_mask))),
        nodes_explored=nodes,
        time_limit_hit=hit is not None,
        loop_semantics=semantics,
        seconds=time.monotonic() - start,
        budget_hit=hit,
    )


# -- brute-force oracle ----------------------------------------------------------


def alpha_bruteforce(g: Graph, semantics: str = "ignore-loops") -> int:
    """Exhaustive meet-in-the-middle scan; the ground-truth oracle for n <= 26.

    The vertices split into A = 0..n-h-1 and B = n-h..n-1, h = n // 2.  A
    table over the 2^h masks of B holds the size of the largest independent
    allowed subset of each, built bit by bit: a mask with top vertex v either
    leaves v out or takes v and drops v's neighbours.  Over the 2^(n-h)
    masks of A, built the same way, each independent allowed S scores |S|
    plus the table at B minus the neighbours of S; alpha is the best score.
    Loops are never crossing edges; under exclude-looped a looped vertex is
    not allowed.  Every step is a numpy pass over one of the two tables."""
    _check_semantics(semantics)
    n = g.n
    if n > 26:
        raise ValueError("brute force capped at n = 26")
    h = n // 2
    a = n - h
    allowed = _allowed(g, semantics)
    full = (1 << n) - 1
    nbrs = [g.rows[v] & ~(1 << v) & full if allowed >> v & 1 else -1 for v in range(n)]
    best = np.zeros(1 << h, dtype=np.int8)  # best[m]: alpha of B's mask m
    for k in range(h):
        rest = np.arange(1 << k)
        if nbrs[a + k] >= 0:
            best[1 << k:2 << k] = np.maximum(best[rest], best[rest & ~(nbrs[a + k] >> a)] + 1)
        else:
            best[1 << k:2 << k] = best[rest]
    # over the masks S of A: is S independent and allowed, |S|, and B minus N(S)
    ok = np.ones(1 << a, dtype=np.bool_)
    size = np.zeros(1 << a, dtype=np.int8)
    free = np.full(1 << a, (1 << h) - 1, dtype=np.int64)
    for k in range(a):
        rest = np.arange(1 << k)
        top = slice(1 << k, 2 << k)
        ok[top] = ok[rest] & (nbrs[k] >= 0) & ((rest & nbrs[k]) == 0)
        size[top] = size[rest] + 1
        free[top] = free[rest] & ~(nbrs[k] >> a)
    return int((size[ok] + best[free[ok]]).max())


def greedy_alpha(g: Graph, semantics: str = "ignore-loops") -> tuple[int, tuple[int, ...]]:
    """Deterministic min-residual-degree greedy lower bound with witness.

    Repeatedly takes the live vertex of least residual degree (neighbours
    still live, loops not counted), lowest index on ties, and deletes it with
    its neighbourhood N(v).  A lazy-deletion heap of (degree, index) pairs
    finds each pick; deleting N(v) re-counts only the live vertices adjacent
    to N(v), one popcount and one heap push each.  Total work is O(n + T)
    such steps, T = sum of those touched sets <= min(2m, alpha * n).
    """
    _check_semantics(semantics)
    chosen = _min_degree_greedy(g, semantics)
    return len(chosen), tuple(chosen)


def _min_degree_greedy(g: Graph, semantics: str) -> list[int]:
    """The vertices ``greedy_alpha`` picks, sorted; also seeds the exact search."""
    n = g.n
    live = _allowed(g, semantics)
    rows = [g.rows[i] & ~(1 << i) for i in range(n)]
    # deg[v] is v's residual degree while v is live and -1 once it is deleted,
    # so a heap entry is current iff its degree equals deg[v]
    deg = [(rows[v] & live).bit_count() if live >> v & 1 else -1 for v in range(n)]
    heap = [(d, v) for v, d in enumerate(deg) if d >= 0]
    heapq.heapify(heap)
    chosen: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if d != deg[v]:
            continue
        chosen.append(v)
        deg[v] = -1
        gone = rows[v] & live
        live &= ~(gone | (1 << v))
        touched = 0
        m = gone
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            deg[w] = -1
            touched |= rows[w]
        m = touched & live
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            deg[w] -= (rows[w] & gone).bit_count()
            heapq.heappush(heap, (deg[w], w))
    chosen.sort()
    return chosen


# -- the explicit quadratic-residue independent set -------------------------------


def explicit_qr_set(p: int, g: Graph | None = None) -> tuple[int, ...]:
    """The independent set {(zero coset, gen^(2k))} in the plus graph on GF(p^2)
    with t = p: all quadratic residues paired with the coset of 0.

    Size (p^2 - 1)/2 = floor(p^2 / 2).  Independence hinges on the generator
    being the reduced monomial: sums of two residue vertices land on an odd
    power of the monomial, which the trace/Frobenius argument keeps outside
    the subgroup's coset.
    """
    if p % 2 == 0 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    q = p * p
    if g is not None and (g.meta.variant, g.meta.q, g.meta.t) != ("plus", q, p):
        raise ValueError("graph is not the plus construction on (p^2, p)")
    F = make_field(p, 2)
    residues = sorted(F.exp[::2])
    _, first = _layout("plus", q)
    return tuple(y - first for y in residues)  # vertex (coset 0, y) has index y - first


# -- conjecture checks -------------------------------------------------------------


def conjecture_check(
    a: int | None = None,
    p: int | None = None,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> dict:
    """Measure alpha for one family member under both loop semantics.

    Families: ``a`` picks the even-characteristic graph on q = 2^a with
    t = 2^(a-1) (conjectured alpha 2^(a/2) for even a, 2^((a-1)/2) + 1 for odd
    a, stated for a >= 6; a in {3, 4} have known exact values 4 and 5 instead);
    ``p`` picks the odd graph on q = p^2 with t = p (conjectured alpha p^2-1).
    The report records results per semantics, which semantics match the
    reference value, and a match/mismatch/inconclusive-budget status.
    """
    if (a is None) == (p is None):
        raise ValueError("pass exactly one of a (even-char family) or p (odd-square family)")
    if a is not None:
        if a < 2:
            raise ValueError("a must be >= 2")
        q, t = 2**a, 2 ** (a - 1)
        conjectured = 2 ** (a // 2) if a % 2 == 0 else 2 ** ((a - 1) // 2) + 1
        in_scope = a >= 6
        reference = KNOWN_EVEN_CHAR_ALPHA.get(a, conjectured)
        family = {"family": "even-char", "a": a}
    else:
        if p % 2 == 0 or not is_prime(p):
            raise ValueError("p must be an odd prime")
        q, t = p * p, p
        conjectured = reference = q - 1
        in_scope = True
        family = {"family": "odd-square", "p": p}

    g = build_g_plus(q, t)
    results: dict[str, dict] = {}
    matching: list[str] = []
    statuses: list[str] = []
    for sem in SEMANTICS:
        r = max_independent_set_exact(g, semantics=sem,
                                      node_budget=node_budget, time_budget=time_budget)
        results[sem] = r.to_dict()
        if r.exact:
            statuses.append("match" if r.lower == reference else "mismatch")
            if r.lower == reference:
                matching.append(sem)
        else:
            statuses.append("inconclusive-budget")
    if "match" in statuses:
        status = "match"
    elif all(s == "mismatch" for s in statuses):
        status = "mismatch"
    else:
        status = "inconclusive-budget"

    return {
        **family,
        "q": q,
        "t": t,
        "n": g.n,
        "conjectured_alpha": conjectured,
        "reference_alpha": reference,
        "in_conjecture_scope": in_scope,
        "results": results,
        "matching_semantics": matching,
        "status": status,
    }
