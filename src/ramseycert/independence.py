"""Exact maximum-independent-set search and the explicit residue construction.

The solver runs branch-and-bound maximum clique on the complement under
node/time budgets: bitset adjacency renumbered by non-increasing complement
degree (the MCQ order of Tomita & Seki), an incumbent seeded by the
min-degree greedy, and greedy-coloring upper bounds whose classes below
``kmin = best - size + 1`` are colored but never branched on (BBMC, San
Segundo et al.).  On completion the result is the exact independence number
with a witness in the original numbering; otherwise it is a certified
bracket: lower is the incumbent, upper the largest coloring bound still open
on the search path.

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
import sys
import time
from dataclasses import dataclass

import numpy as np

from .fields import is_prime, make_field
from .graphs import Graph, build_g_plus

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
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "witness": list(self.witness),
            "nodes_explored": self.nodes_explored,
            "time_limit_hit": self.time_limit_hit,
            "loop_semantics": self.loop_semantics,
            "seconds": self.seconds,
            "budget_hit": self.budget_hit,
        }


def _check_semantics(semantics: str) -> None:
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")


def _complement_rows(g: Graph, semantics: str) -> tuple[list[int], list[int]]:
    """Complement adjacency bitsets (loops dropped) on the allowed vertices,
    renumbered by non-increasing complement degree, lower index on ties.

    Returns the rows in the new numbering and ``order``, where ``order[k]`` is
    the original index of new vertex k.  The permutation is applied to the
    unpacked 0/1 matrix and packed back, so no per-bit Python loop runs.
    """
    allowed = range(g.n)
    if semantics == "exclude-looped":
        allowed = [v for v in allowed if not g.rows[v] >> v & 1]
    mask = 0
    for v in allowed:
        mask |= 1 << v
    # fewest allowed neighbours first; sorted() is stable, so ties keep index order
    order = sorted(allowed, key=lambda v: (g.rows[v] & mask & ~(1 << v)).bit_count())
    comp_bits = g.adjacency_matrix(dtype=np.bool_)[np.ix_(order, order)]
    np.logical_not(comp_bits, out=comp_bits)
    np.fill_diagonal(comp_bits, False)  # a vertex is not its own complement neighbour
    packed = np.packbits(comp_bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed], order


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
    for v in vs:
        if g.rows[v] & (mask ^ (1 << v)):
            return False
        if semantics == "exclude-looped" and g.rows[v] >> v & 1:
            return False
    return True


def max_independent_set_exact(
    g: Graph,
    *,
    semantics: str = "ignore-loops",
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> AlphaResult:
    """Branch-and-bound exact alpha via max clique on the complement.

    The allowed vertices are renumbered by non-increasing complement degree
    (lower index on ties), the MCQ initial order.  The incumbent starts from
    the min-degree greedy.  At every node a greedy sequential coloring of the
    candidate set, in vertex order, bounds the clique size, and vertices are
    branched on in reverse color order; classes below ``kmin = best - size +
    1`` cannot improve the incumbent, so their vertices are colored but never
    branched on (BBMC).  Deterministic for fixed (graph, budgets, semantics);
    the witness is mapped back to the original indices and sorted.

    On budget exhaustion ``lower`` is the incumbent and ``upper`` is the
    largest of ``best`` and ``size + color`` over the open level of every
    frame on the current search path (each unexplored branch there is bounded
    by its color), or the number of allowed vertices if no coloring ran.
    The time budget counts from entry and is read once before the first node,
    then every 1024 nodes.
    """
    _check_semantics(semantics)
    start = time.monotonic()
    deadline = start + time_budget
    comp, order = _complement_rows(g, semantics)

    seed = set(_min_degree_greedy(g, semantics))
    best = len(seed)
    best_mask = 0
    for k, v in enumerate(order):
        if v in seed:
            best_mask |= 1 << k
    nodes = 0
    hit: str | None = None
    open_bound = 0  # max of size + color over the open levels of the path

    def expand(size: int, mask: int, P: int) -> None:
        nonlocal best, best_mask, nodes, hit, open_bound
        nodes += 1
        if nodes > node_budget:
            hit = "nodes"
            return
        if not (nodes & 1023) and time.monotonic() > deadline:
            hit = "time"
            return
        if not P:
            if size > best:
                best, best_mask = size, mask
            return
        # color classes of mutual non-(comp)-neighbours; bounds[i] is the
        # color of branch[i], kept only from kmin up
        kmin = best - size + 1
        branch: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = P
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail ^= low
                avail &= ~comp[v]
                rest ^= low
                if color >= kmin:
                    branch.append(v)
                    bounds.append(color)
        for i in range(len(branch) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = branch[i]
            bit = 1 << v
            P &= ~bit
            expand(size + 1, mask | bit, P & comp[v])
            if hit:
                open_bound = max(open_bound, size + bounds[i])
                return

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, g.n + 1000))
    try:
        # expand reads the clock every 1024 nodes; the complement build and
        # the seeding greedy may already have spent the budget
        if time.monotonic() > deadline:
            hit = "time"
        else:
            expand(0, 0, (1 << len(comp)) - 1)
    finally:
        sys.setrecursionlimit(old_limit)

    exact = hit is None
    if exact:
        upper = best
    else:
        upper = max(best, open_bound) if open_bound else len(comp)
    witness = []
    m = best_mask
    while m:
        low = m & -m
        witness.append(order[low.bit_length() - 1])
        m ^= low
    witness.sort()
    return AlphaResult(
        lower=best,
        upper=upper,
        exact=exact,
        witness=tuple(witness),
        nodes_explored=nodes,
        time_limit_hit=hit is not None,
        loop_semantics=semantics,
        seconds=time.monotonic() - start,
        budget_hit=hit,
    )


# -- brute-force oracle ----------------------------------------------------------

_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def alpha_bruteforce(g: Graph, semantics: str = "ignore-loops") -> int:
    """Exhaustive 2^n scan (vectorized); the ground-truth oracle for n <= 26."""
    _check_semantics(semantics)
    n = g.n
    if n > 26:
        raise ValueError("brute force capped at n = 26")
    if n == 0:
        return 0
    adj = np.array([g.rows[i] & ~(1 << i) & ((1 << n) - 1) for i in range(n)],
                   dtype=np.uint32)
    veto = 0
    if semantics == "exclude-looped":
        for i in range(n):
            if g.rows[i] >> i & 1:
                veto |= 1 << i
    best = 0
    chunk = 1 << 22
    for lo in range(0, 1 << n, chunk):
        s = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.uint32)
        ok = np.ones(len(s), dtype=bool)
        if veto:
            ok &= (s & np.uint32(veto)) == 0
        for v in range(n):
            inside = (s >> np.uint32(v)) & np.uint32(1)
            crossing = (s & adj[v]) != 0
            ok &= ~((inside == 1) & crossing)
        if ok.any():
            cands = s[ok]
            sizes = _POP16[cands & np.uint32(0xFFFF)] + _POP16[cands >> np.uint32(16)]
            best = max(best, int(sizes.max()))
    return best


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
    live = (1 << n) - 1
    if semantics == "exclude-looped":
        for i in range(n):
            if g.rows[i] >> i & 1:
                live ^= 1 << i
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
    if g is None:
        g = build_g_plus(q, p)
    if (g.meta.variant, g.meta.q, g.meta.t) != ("plus", q, p):
        raise ValueError("graph is not the plus construction on (p^2, p)")
    F = make_field(p, 2)
    residues = sorted(F.exp[2 * k] for k in range((q - 1) // 2))
    # vertex (coset 0, y) has index 0*(q-1) + (y-1)
    return tuple(y - 1 for y in residues)


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
