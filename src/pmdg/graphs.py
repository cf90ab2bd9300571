"""The matching derangement graph and its structural certificates.

Vertices are the perfect matchings of the complete graph on ``2k`` points,
adjacent exactly when they share no edge.  Adjacency lives in bit rows
(one int per vertex), per-edge vertex masks record which matchings use a
given edge, and all quotients come out as exact rational matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .exact import ExactMatrix
from .matchings import (
    CapExceeded,
    Matching,
    all_edges,
    double_factorial,
    enumerate_matchings,
    matching_count,
    union_cycle_type,
)
from .partitions import Partition, partitions_of
from .search import SearchTimeout, bit_indices, is_coclique, maximum_cocliques

# adjacency rows at k=6 hold 10395 ints of 10395 bits (~14 MB); beyond that
# the graph no longer fits the "desk scale" brief
GRAPH_CAP = 6
# vertices of a subset-disjointness graph; the build tests every pair of
# subsets, a million tests at the cap
SUBSET_GRAPH_CAP = 1000

Edge = tuple[int, int]


def degree_formula(k: int) -> int:
    """Valency of the matching derangement graph on 2k points.

    Inclusion-exclusion over the number of shared edges; the i = k term
    uses (-1)!! = 1.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return sum(
        (-1) ** i * comb(k, i) * double_factorial(2 * k - 2 * i - 1)
        for i in range(k + 1)
    )


def degree_terms(k: int) -> list[int]:
    """Unsigned inclusion-exclusion terms C(k,i)*(2k-2i-1)!!, i = 0..k."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return [comb(k, i) * double_factorial(2 * k - 2 * i - 1) for i in range(k + 1)]


def degree_by_enumeration(k: int) -> int:
    """Count matchings edge-disjoint from a fixed one, by full enumeration."""
    base = Matching([(2 * i, 2 * i + 1) for i in range(k)])
    count = 0
    for m in enumerate_matchings(k):
        if m != base and not m.shares_edge(base):
            count += 1
    return count


def degree_lower_bound_check(k: int) -> bool:
    """d(2k) > (2k-1)!! - k*(2k-3)!!, the union-bound comparison."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    d = degree_formula(k)
    return d > matching_count(k) - k * double_factorial(2 * k - 3)


class DerangementGraph:
    """Exact adjacency data for the derangement graph on matchings of K_{2k}."""

    __slots__ = ("k", "vertices", "index", "edge_masks", "rows")

    def __init__(self, k, vertices, index, edge_masks, rows):
        self.k = k
        self.vertices: tuple[Matching, ...] = vertices
        self.index: dict[Matching, int] = index
        # edge -> bitmask of the matchings that contain it
        self.edge_masks: dict[Edge, int] = edge_masks
        self.rows: list[int] = rows

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def degree(self) -> int:
        return self.rows[0].bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def neighbors(self, i: int) -> list[int]:
        return bit_indices(self.rows[i])

    def is_regular(self) -> bool:
        d = self.degree
        return all(r.bit_count() == d for r in self.rows)

    def adjacency_matrix(self) -> ExactMatrix:
        n = self.n_vertices
        return ExactMatrix(
            [[1 if self.rows[i] >> j & 1 else 0 for j in range(n)] for i in range(n)]
        )


def is_automorphism(rows: list[int], phi: list[int]) -> bool:
    """Whether the vertex permutation ``phi`` maps adjacency onto itself.

    ``phi`` must be a bijection of the vertices, and the image of every
    row under it must be the row of the image vertex.
    """
    if sorted(phi) != list(range(len(rows))):
        return False
    for i, r in enumerate(rows):
        permuted = 0
        while r:
            low = r & -r
            permuted |= 1 << phi[low.bit_length() - 1]
            r ^= low
        if permuted != rows[phi[i]]:
            return False
    return True


def build_graph(k: int, cap: int = GRAPH_CAP) -> DerangementGraph:
    if k > cap:
        raise CapExceeded("graph build", k, cap)
    vertices = tuple(enumerate_matchings(k))
    index = {m: i for i, m in enumerate(vertices)}
    edge_masks: dict[Edge, int] = {e: 0 for e in all_edges(k)}
    for i, m in enumerate(vertices):
        bit = 1 << i
        for e in m:
            edge_masks[e] |= bit
    full = (1 << len(vertices)) - 1
    rows = []
    for m in vertices:
        hit = 0
        for e in m:
            hit |= edge_masks[e]
        # a matching shares an edge with itself, so the self-bit is off
        rows.append(full & ~hit)
    return DerangementGraph(k, vertices, index, edge_masks, rows)


def one_factorization_clique(k: int) -> tuple[Matching, ...]:
    """2k-1 pairwise edge-disjoint matchings from the circle construction.

    Point 2k-1 sits at the center; round r pairs it with r and folds the
    circle 0..2k-2 symmetrically around r.  The rounds partition the edge
    set of K_{2k}, hence form a clique in the derangement graph.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    m = 2 * k - 1
    rounds = []
    seen: set[Edge] = set()
    for r in range(m):
        pairs = [(r, 2 * k - 1)]
        for t in range(1, k):
            pairs.append(((r + t) % m, (r - t) % m))
        mt = Matching(pairs)
        seen.update(mt)
        rounds.append(mt)
    if len(seen) != comb(2 * k, 2):
        raise AssertionError("circle construction failed to partition the edges")
    return tuple(rounds)


def canonical_coclique(graph: DerangementGraph, e: Edge) -> tuple[int, ...]:
    """Vertex indices of all matchings through edge ``e``, ascending."""
    e = (min(e), max(e))
    if e not in graph.edge_masks:
        raise ValueError(f"{e} is not an edge of K_{{{2 * graph.k}}}")
    return tuple(bit_indices(graph.edge_masks[e]))


def enumerate_maximum_cocliques(
    graph: DerangementGraph, *, deadline_s: float | None = None
) -> tuple[int, list[tuple[int, ...]]]:
    """Exhaustive search: the coclique number and every maximum coclique.

    The canonical coclique through the first edge seeds the lower bound
    after an explicit independence check, so the search only has to close
    the gap from above.
    """
    e0 = next(iter(graph.edge_masks))
    seed_mask = graph.edge_masks[e0]
    if not is_coclique(graph.rows, seed_mask):
        raise AssertionError("canonical coclique is not independent")
    alpha, masks = maximum_cocliques(
        graph.rows, lower_seed=seed_mask.bit_count(), deadline_s=deadline_s
    )
    return alpha, [tuple(bit_indices(m)) for m in masks]


class PartitionNotEquitable(ValueError):
    """A vertex partition whose cell-to-cell neighbor counts are not constant."""

    def __init__(self, label_a, label_b, v1, c1, v2, c2):
        super().__init__(
            f"cells ({label_a} -> {label_b}) are not equitable: "
            f"vertex {v1} has {c1} neighbors there, vertex {v2} has {c2}"
        )
        self.cells = (label_a, label_b)
        self.witnesses = ((v1, c1), (v2, c2))


@dataclass(frozen=True)
class VertexPartition:
    """Ordered cells of vertex indices, as labels plus bitmasks."""

    labels: tuple[str, ...]
    masks: tuple[int, ...]

    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)


def quotient_matrix(graph: DerangementGraph, partition: VertexPartition) -> ExactMatrix:
    """Cell-to-cell neighbor counts; equitability is always verified.

    Raises :class:`PartitionNotEquitable` naming the offending cell pair
    if any two vertices of one cell see a different number of neighbors
    in another.
    """
    total = 0
    for m in partition.masks:
        if total & m:
            raise ValueError("partition cells overlap")
        total |= m
    if total != (1 << graph.n_vertices) - 1:
        raise ValueError("partition does not cover the vertex set")
    entries = []
    for a, mask_a in enumerate(partition.masks):
        row = []
        members = bit_indices(mask_a)
        for b, mask_b in enumerate(partition.masks):
            first = (graph.rows[members[0]] & mask_b).bit_count()
            for v in members[1:]:
                c = (graph.rows[v] & mask_b).bit_count()
                if c != first:
                    raise PartitionNotEquitable(
                        partition.labels[a], partition.labels[b],
                        members[0], first, v, c,
                    )
            row.append(first)
        entries.append(row)
    return ExactMatrix(entries)


def canonical_partition(graph: DerangementGraph, e: Edge) -> VertexPartition:
    """Two cells: the matchings through edge ``e`` and the rest."""
    e = (min(e), max(e))
    mask = graph.edge_masks[e]
    full = (1 << graph.n_vertices) - 1
    return VertexPartition(
        labels=(f"contains({e[0]},{e[1]})", f"avoids({e[0]},{e[1]})"),
        masks=(mask, full & ~mask),
    )


def orbit_partition(graph: DerangementGraph, base: int = 0) -> VertexPartition:
    """Cells by the union cycle type against a base matching.

    Cell order runs from the identity type [1,...] up to [k], so the
    first cell is the singleton holding the base vertex.
    """
    types = list(reversed(partitions_of(graph.k)))
    masks = {t: 0 for t in types}
    base_m = graph.vertices[base]
    for i, m in enumerate(graph.vertices):
        t = union_cycle_type(base_m, m)
        masks[t] |= 1 << i
    return VertexPartition(
        labels=tuple(str(t) for t in types),
        masks=tuple(masks[t] for t in types),
    )


def scheme_class_sizes(graph: DerangementGraph, base: int = 0) -> dict[Partition, int]:
    """Sizes of the union-cycle-type classes seen from one vertex."""
    part = orbit_partition(graph, base)
    return {
        Partition.from_string(lbl): m.bit_count()
        for lbl, m in zip(part.labels, part.masks)
    }


@dataclass(frozen=True)
class CliqueCocliqueRecord:
    k: int
    n_vertices: int
    clique_size: int
    coclique_size: int
    product: int
    tight: bool
    clique_number: int | None


def clique_coclique_check(
    graph: DerangementGraph, certified_alpha: int | None = None
) -> CliqueCocliqueRecord:
    """The clique-coclique product against the vertex count.

    The clique is the circle-method 1-factorization (verified disjoint on
    construction).  When a certified coclique number is supplied and the
    product is tight, the clique number is pinned to 2k-1 exactly; without
    it the record reports the construction size only.
    """
    k = graph.k
    clique = one_factorization_clique(k)
    idx = [graph.index[m] for m in clique]
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if not graph.has_edge(idx[a], idx[b]):
                raise AssertionError("1-factorization rounds are not adjacent")
    alpha = certified_alpha if certified_alpha is not None else double_factorial(2 * k - 3)
    n = graph.n_vertices
    product = len(clique) * alpha
    tight = product == n
    omega = None
    if certified_alpha is not None and tight:
        # omega*alpha <= n forces omega <= 2k-1, met by the construction
        omega = 2 * k - 1
    return CliqueCocliqueRecord(
        k=k,
        n_vertices=n,
        clique_size=len(clique),
        coclique_size=alpha,
        product=product,
        tight=tight,
        clique_number=omega,
    )


class KneserGraph:
    """Disjointness graph on the k-subsets of an n-set, lex vertex order."""

    __slots__ = ("n", "k", "subsets", "rows")

    def __init__(self, n: int, k: int, cap: int = SUBSET_GRAPH_CAP):
        if k < 1 or n < k:
            raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
        if comb(n, k) > cap:
            raise CapExceeded("subset graph build", comb(n, k), cap)
        import itertools

        self.n = n
        self.k = k
        self.subsets = list(itertools.combinations(range(n), k))
        smasks = [sum(1 << x for x in s) for s in self.subsets]
        nn = len(self.subsets)
        self.rows = [
            sum(
                1 << j
                for j in range(nn)
                if j != i and not smasks[i] & smasks[j]
            )
            for i in range(nn)
        ]

    @property
    def n_vertices(self) -> int:
        return len(self.subsets)

    @property
    def degree(self) -> int:
        return comb(self.n - self.k, self.k)

    def adjacency_matrix(self) -> ExactMatrix:
        nn = self.n_vertices
        return ExactMatrix(
            [[1 if self.rows[i] >> j & 1 else 0 for j in range(nn)] for i in range(nn)]
        )


__all__ = [
    "GRAPH_CAP",
    "SUBSET_GRAPH_CAP",
    "CliqueCocliqueRecord",
    "DerangementGraph",
    "KneserGraph",
    "PartitionNotEquitable",
    "SearchTimeout",
    "VertexPartition",
    "build_graph",
    "canonical_coclique",
    "canonical_partition",
    "clique_coclique_check",
    "degree_by_enumeration",
    "degree_formula",
    "degree_lower_bound_check",
    "degree_terms",
    "enumerate_maximum_cocliques",
    "is_automorphism",
    "one_factorization_clique",
    "orbit_partition",
    "quotient_matrix",
    "scheme_class_sizes",
]
