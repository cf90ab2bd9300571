"""Symmetry computations: automorphism counting and the non-Cayley chain.

The automorphism engine is a refinement-pruned backtracking search over
bit rows, counted through an orbit-stabilizer chain on the identity
base, so the order comes out exactly without ever materializing the
group.  The rest of the module assembles the arithmetic obstruction: a
vertex-regular group would have odd order (2k-1)!!, forcing a cyclic
subgroup of order p*q for two primes in [k, 2k), and no cycle type of
the symmetric group on 2k points has order divisible by both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import factorial, isqrt, lcm

from .graphs import DerangementGraph, is_automorphism
from .matchings import CapExceeded, matching_count
from .partitions import iter_partitions

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# prime pairs


@dataclass(frozen=True)
class PrimePair:
    k: int
    p: int
    q: int


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


# fixed choices for small k; beyond the table the sieve takes over
_PRIME_TABLE: list[tuple[range, tuple[int, int]]] = [
    (range(3, 4), (3, 5)),
    (range(4, 6), (5, 7)),
    (range(6, 7), (7, 11)),
    (range(7, 12), (11, 13)),
    (range(12, 18), (19, 23)),
    (range(18, 25), (29, 31)),
]


def prime_pair(k: int) -> PrimePair:
    """Two distinct primes p < q with k <= p < q < 2k.

    Small k uses a fixed table; k >= 25 takes the two smallest primes in
    the window, which exist because the window is long enough for two
    disjoint prime-guaranteeing stretches.  The invariants are validated
    on every call rather than trusted.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    pair = None
    for rng, tab in _PRIME_TABLE:
        if k in rng:
            pair = tab
            break
    if pair is None:
        found = [p for p in range(k, 2 * k) if _is_prime(p)][:2]
        if len(found) < 2:
            raise ArithmeticError(f"no two primes in [{k}, {2 * k})")
        pair = (found[0], found[1])
    p, q = pair
    if not (_is_prime(p) and _is_prime(q) and k <= p < q < 2 * k):
        raise AssertionError(f"prime pair ({p}, {q}) fails its invariants at k={k}")
    return PrimePair(k=k, p=p, q=q)


def no_cyclic_pq_element(k: int, p: int, q: int) -> tuple[bool, int]:
    """Scan every cycle type of Sym(2k) for an order divisible by p*q.

    Returns (True, count) after the exhaustive scan; a hit raises, since
    that would break the downstream argument rather than a cap.
    """
    pq = p * q
    count = 0
    for parts in iter_partitions(2 * k):
        count += 1
        if lcm(*parts) % pq == 0:
            raise ArithmeticError(
                f"cycle type {parts} of Sym({2 * k}) has order divisible by {pq}"
            )
    return True, count


# ---------------------------------------------------------------------------
# automorphisms


def automorphism_group_order(rows: list[int], cap: int = 256) -> int:
    """Exact automorphism group order of a graph given as neighbor masks.

    Backtracking over images in index order, pruned by requiring every
    mapped pair to keep both its adjacency bit and its common-neighbor
    count; the total order is the product of orbit sizes along the
    stabilizer chain of the identity base.
    """
    n = len(rows)
    if n > cap:
        raise CapExceeded("automorphism search", n, cap)
    full = (1 << n) - 1

    # rel[i][j] packs (adjacency, common neighbor count); table[u] maps a
    # packed pair to the mask of vertices w with rel[u][w] equal to it
    rel = [
        [
            ((rows[i] >> j & 1) << 20) | (rows[i] & rows[j]).bit_count()
            for j in range(n)
        ]
        for i in range(n)
    ]
    table: list[dict[int, int]] = []
    for u in range(n):
        d: dict[int, int] = {}
        for w in range(n):
            key = rel[u][w]
            d[key] = d.get(key, 0) | (1 << w)
        table.append(d)

    def candidates(phi: list[int], used: int, t: int) -> int:
        cand = full & ~used
        rt = rel[t]
        for s in range(t):
            cand &= table[phi[s]].get(rt[s], 0)
            if not cand:
                return 0
        return cand

    def extend(phi: list[int], used: int, t: int) -> bool:
        if t == n:
            return True
        cand = candidates(phi, used, t)
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            phi.append(w)
            if extend(phi, used | low, t + 1):
                return True
            phi.pop()
            cand ^= low
        return False

    order = 1
    identity = list(range(n))
    for t in range(n):
        prefix = identity[:t]
        used = 0
        for s in prefix:
            used |= 1 << s
        orbit = 0
        cand = candidates(prefix, used, t)
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            cand ^= low
            if w == t:
                orbit |= low
                continue
            phi = prefix + [w]
            if extend(phi, used | low, t + 1):
                orbit |= low
        if not orbit >> t & 1:
            raise AssertionError("identity not found in its own orbit")
        order *= orbit.bit_count()
    return order


def derangement_automorphism_order(graph: DerangementGraph) -> int:
    """Automorphism order of the matching derangement graph, k <= 4."""
    if graph.k > 4:
        raise CapExceeded("automorphism search", graph.k, 4)
    return automorphism_group_order(graph.rows)


def induced_vertex_permutation(
    graph: DerangementGraph, sigma, verify: bool = True
) -> list[int]:
    """Vertex permutation induced by relabelling points with ``sigma``.

    Every permutation of the 2k points maps matchings to matchings and
    preserves edge-disjointness; with ``verify`` the adjacency rows are
    permuted and compared outright, so the claim is checked instead of
    assumed.
    """
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(2 * graph.k)):
        raise ValueError("sigma is not a permutation of the points")
    phi = [graph.index[m.relabel(sigma)] for m in graph.vertices]
    if verify and not is_automorphism(graph.rows, phi):
        raise AssertionError("induced map does not preserve adjacency")
    return phi


@dataclass(frozen=True)
class LineGraphMapResult:
    edge_map: dict[Edge, Edge]
    preserves_sharing: bool
    preserves_disjointness: bool


def coclique_linegraph_map(
    graph: DerangementGraph, vertex_perm: list[int]
) -> LineGraphMapResult:
    """Push a graph automorphism down to a permutation of the edges.

    The canonical coclique on edge e must land on the canonical coclique
    of some edge e' (anything else disproves the uniqueness statement and
    raises).  The resulting edge permutation is checked to preserve both
    endpoint-sharing and disjointness of edge pairs, i.e. to be an
    automorphism of the line graph of the complete graph.
    """
    mask_to_edge = {m: e for e, m in graph.edge_masks.items()}
    edge_map: dict[Edge, Edge] = {}
    for e, mask in sorted(graph.edge_masks.items()):
        image = 0
        mm = mask
        while mm:
            low = mm & -mm
            image |= 1 << vertex_perm[low.bit_length() - 1]
            mm ^= low
        target = mask_to_edge.get(image)
        if target is None:
            raise ArithmeticError(
                f"automorphism sends the coclique of {e} to a non-canonical set"
            )
        edge_map[e] = target
    edges = sorted(edge_map)
    sharing = True
    disjoint = True
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            e, f = edges[a], edges[b]
            share = bool(set(e) & set(f))
            e2, f2 = edge_map[e], edge_map[f]
            share2 = bool(set(e2) & set(f2))
            if share and not share2:
                sharing = False
            if not share and share2:
                disjoint = False
    return LineGraphMapResult(
        edge_map=edge_map,
        preserves_sharing=sharing,
        preserves_disjointness=disjoint,
    )


# ---------------------------------------------------------------------------
# the verdict


@dataclass(frozen=True)
class VerdictLink:
    link: str
    statement: str
    status: str  # "pass", "fail", or "cited"
    witness: str
    # the wall time of this link's own computation; not part of its content
    elapsed_ms: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NonCayleyVerdict:
    k: int
    links: tuple[VerdictLink, ...]
    is_cayley_possible: bool


def non_cayley_verdict(k: int, graph: DerangementGraph | None) -> NonCayleyVerdict:
    """Assemble the non-Cayley argument as individually checkable links.

    Computable links are computed; the two purely group-theoretic steps
    (odd order implies solvable, solvable implies a Hall subgroup for
    any pair of primes dividing the order) are emitted with status
    "cited" so the report never pretends to have proved them.  The
    automorphism search needs the graph for k <= 4; above that the
    search is capped, the link is cited and ``graph`` may be None.  Each
    link carries the milliseconds spent computing it since the previous
    link was added.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    if k <= 4 and graph is None:
        raise ValueError(f"the automorphism search at k={k} needs the graph")
    links: list[VerdictLink] = []
    last = time.monotonic()

    def add(**fields) -> None:
        nonlocal last
        now = time.monotonic()
        links.append(VerdictLink(**fields, elapsed_ms=int((now - last) * 1000)))
        last = now

    n = matching_count(k)
    add(
        link="odd-vertex-count",
        statement=f"the vertex count (2k-1)!! = {n} is odd",
        status="pass" if n % 2 == 1 else "fail",
        witness=str(n),
    )
    pair = prime_pair(k)
    p, q = pair.p, pair.q
    add(
        link="prime-pair",
        statement=f"distinct primes {p} < {q} lie in [{k}, {2 * k})",
        status="pass",
        witness=f"({p}, {q}); p + q = {p + q} > {2 * k}",
    )
    add(
        link="regular-subgroup-order",
        statement=(
            "a group acting regularly on the vertices would have odd order "
            f"{n}, divisible by both {p} and {q}"
        ),
        status="pass" if n % p == 0 and n % q == 0 else "fail",
        witness=f"{n} = {p} * {n // p} = {q} * {n // q}",
    )
    add(
        link="odd-order-solvable",
        statement="every group of odd order is solvable",
        status="cited",
        witness="classical result, not re-proved here",
    )
    add(
        link="hall-subgroup",
        statement=(
            f"a solvable group of order divisible by {p}*{q} has a subgroup "
            f"of order {p * q}"
        ),
        status="cited",
        witness="classical result, not re-proved here",
    )
    cyclic_ok = q % p != 1
    add(
        link="order-pq-cyclic",
        statement=(
            f"every group of order {p}*{q} is cyclic because {p} does not "
            f"divide {q} - 1"
        ),
        status="pass" if cyclic_ok else "fail",
        witness=f"{q} - 1 = {q - 1}, remainder {(q - 1) % p} mod {p}",
    )
    ok, scanned = no_cyclic_pq_element(k, p, q)
    add(
        link="no-order-pq-element",
        statement=(
            f"no cycle type of Sym({2 * k}) has order divisible by {p * q}; "
            f"both primes exceed half of 2k, so any element of order {p} "
            f"or {q} would be a single cycle"
        ),
        status="pass" if ok else "fail",
        witness=f"scanned {scanned} cycle types",
    )
    if k <= 4:
        order = derangement_automorphism_order(graph)
        expect = factorial(2 * k)
        add(
            link="automorphism-group",
            statement=(
                "the automorphism group is point relabelling only, "
                f"of order (2k)! = {expect}"
            ),
            status="pass" if order == expect else "fail",
            witness=f"search found {order}",
        )
    else:
        add(
            link="automorphism-group",
            statement=(
                "the automorphism group is point relabelling only "
                "(search is capped at k <= 4, so this step rests on the "
                "coclique-to-line-graph identification)"
            ),
            status="cited",
            witness=f"k = {k} exceeds the search cap",
        )
    all_pass = all(l.status in ("pass", "cited") for l in links)
    return NonCayleyVerdict(k=k, links=tuple(links), is_cayley_possible=not all_pass)


__all__ = [
    "LineGraphMapResult",
    "NonCayleyVerdict",
    "PrimePair",
    "VerdictLink",
    "automorphism_group_order",
    "coclique_linegraph_map",
    "derangement_automorphism_order",
    "induced_vertex_permutation",
    "no_cyclic_pq_element",
    "non_cayley_verdict",
    "prime_pair",
]
