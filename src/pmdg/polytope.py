"""Matching incidence matrix, its Gram identity, and polytope membership.

The incidence matrix has one row per perfect matching and one column per
edge of the complete graph; everything downstream (the Gram identity,
the rank deficiency, the odd-cut facet counts) is exact integer or
rational arithmetic on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactMatrix
from .graphs import DerangementGraph, KneserGraph
from .matchings import (
    CapExceeded,
    all_edges,
    double_factorial,
    enumerate_matchings,
)

Edge = tuple[int, int]


@dataclass(frozen=True)
class IncidenceMatrix:
    """Rows are matchings (enumeration order), columns edges (lex order)."""

    k: int
    u: ExactMatrix
    edges: tuple[Edge, ...]

    @property
    def n_matchings(self) -> int:
        return self.u.nrows

    @property
    def n_edges(self) -> int:
        return self.u.ncols


def incidence_matrix(graph: DerangementGraph) -> IncidenceMatrix:
    """Rows follow the graph's vertex order, so row i is vertex i."""
    k = graph.k
    edges = tuple(all_edges(k))
    col = {e: j for j, e in enumerate(edges)}
    rows = []
    for m in graph.vertices:
        r = [0] * len(edges)
        for e in m:
            r[col[e]] = 1
        rows.append(r)
    im = IncidenceMatrix(k=k, u=ExactMatrix(rows), edges=edges)
    # row sums k, column sums (2k-3)!!: cheap enough to verify on build
    for r in im.u.rows:
        if sum(r) != k:
            raise AssertionError("incidence row does not have k ones")
    expected_col = double_factorial(2 * k - 3) if k >= 2 else 1
    for j in range(im.n_edges):
        if sum(im.u.rows[i][j] for i in range(im.n_matchings)) != expected_col:
            raise AssertionError("incidence column sum is off")
    return im


def gram_matrix(graph: DerangementGraph) -> ExactMatrix:
    """U^T U computed from the per-edge vertex masks.

    The (e, f) entry counts matchings containing both edges, which is a
    popcount of intersecting masks; no rational products involved.
    """
    edges = sorted(graph.edge_masks)
    masks = [graph.edge_masks[e] for e in edges]
    return ExactMatrix(
        [[(masks[i] & masks[j]).bit_count() for j in range(len(masks))]
         for i in range(len(masks))]
    )


@dataclass(frozen=True)
class GramCheck:
    k: int
    holds: bool
    diagonal: int
    off_diagonal: int
    checked_products: bool  # True when the row-by-column product was also run


def gram_identity_check(
    graph: DerangementGraph, incidence: IncidenceMatrix | None = None
) -> GramCheck:
    """U^T U = (2k-3)!! I + (2k-5)!! A(2k,2), exactly.

    The left side is assembled from mask popcounts and, when the
    incidence matrix is passed, a second time by actual matrix
    multiplication, so the fast path cannot silently drift from the
    definition.  The identity matrix here is C(2k,2) by C(2k,2): that is
    the only size the product admits.
    """
    k = graph.k
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    g = gram_matrix(graph)
    a = KneserGraph(2 * k, 2).adjacency_matrix()
    diag = double_factorial(2 * k - 3)
    off = double_factorial(2 * k - 5)  # (-1)!! = 1 covers k=2
    expected = a.scale(off).add_scalar_diagonal(diag)
    holds = g == expected
    if incidence is not None:
        product = incidence.u.transpose().mul(incidence.u)
        holds = holds and product == g
    return GramCheck(
        k=k,
        holds=holds,
        diagonal=diag,
        off_diagonal=off,
        checked_products=incidence is not None,
    )


def rank_U(incidence: IncidenceMatrix) -> int:
    """Exact rank of the incidence matrix; equals C(2k,2) - (2k-1)."""
    k = incidence.k
    r = incidence.u.rank()
    if r != 2 * k * k - 3 * k + 1:
        raise ArithmeticError(
            f"incidence rank {r} differs from 2k^2-3k+1 = {2 * k * k - 3 * k + 1}"
        )
    return r


# ---------------------------------------------------------------------------
# polytope membership


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    constraint: str | None
    detail: str | None


def polytope_membership(x, k: int) -> MembershipVerdict:
    """Membership in the perfect matching polytope of K_{2k}.

    Checks nonnegativity, unit sums at every vertex, and the odd-cut
    lower bounds over all odd subsets of size >= 3; returns the first
    violated constraint in that fixed order.
    """
    if 2 * k > 10:
        raise CapExceeded("odd subset scan", 2 * k, 10)
    edges = tuple(all_edges(k))
    vx = [Fraction(t) for t in x]
    if len(vx) != len(edges):
        raise ValueError(f"vector has length {len(vx)}, need {len(edges)}")
    for j, e in enumerate(edges):
        if vx[j] < 0:
            return MembershipVerdict(
                member=False,
                constraint="nonnegativity",
                detail=f"edge {e} carries {vx[j]}",
            )
    n = 2 * k
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for j, (u, w) in enumerate(edges):
        by_vertex[u].append(j)
        by_vertex[w].append(j)
    for u in range(n):
        s = sum(vx[j] for j in by_vertex[u])
        if s != 1:
            return MembershipVerdict(
                member=False,
                constraint="vertex sum",
                detail=f"vertex {u} sums to {s}",
            )
    for smask in range(1 << n):
        size = smask.bit_count()
        if size < 3 or size % 2 == 0:
            continue
        cut = Fraction(0)
        for j, (u, w) in enumerate(edges):
            if (smask >> u & 1) != (smask >> w & 1):
                cut += vx[j]
        if cut < 1:
            members = [i for i in range(n) if smask >> i & 1]
            return MembershipVerdict(
                member=False,
                constraint="odd cut",
                detail=f"subset {members} crosses only {cut}",
            )
    return MembershipVerdict(member=True, constraint=None, detail=None)


# ---------------------------------------------------------------------------
# odd-cut facet sizes


def facet_size(s: int, k: int) -> int:
    """Closed form s!!(2k-s)!! for the matchings meeting an odd cut once."""
    if s % 2 == 0 or s < 3 or s > 2 * k - 3:
        raise ValueError(f"need odd 3 <= s <= 2k-3, got s={s} at k={k}")
    return double_factorial(s) * double_factorial(2 * k - s)


def facet_size_by_counting(s: int, k: int) -> int:
    """The same count measured by enumeration over an explicit subset.

    Uses S = {0, ..., s-1}; by symmetry any subset of odd size s gives
    the same number.
    """
    if s % 2 == 0 or s < 3 or s > 2 * k - 3:
        raise ValueError(f"need odd 3 <= s <= 2k-3, got s={s} at k={k}")
    smask = (1 << s) - 1
    count = 0
    for m in enumerate_matchings(k):
        crossing = 0
        for u, w in m:
            if (smask >> u & 1) != (smask >> w & 1):
                crossing += 1
        if crossing == 1:
            count += 1
    return count


def facet_ratio_check(max_n: int = 16) -> bool:
    """The ratio identity N(s-2)/N(s) = (2k-s+2)/s and what follows from it.

    Checked for all even vertex counts up to ``max_n``: the identity on
    the full odd range, strict decrease on 3 <= s <= k, the mirror
    symmetry N(s) = N(2k-s), and the consequence that N(3) is the
    maximum over all odd s.  (Past the midpoint the values climb back
    up; the maximum is still at s = 3 by symmetry.)
    """
    for n2 in range(6, max_n + 1, 2):
        k = n2 // 2
        sizes = {s: facet_size(s, k) for s in range(3, 2 * k - 2, 2)}
        for s in range(5, 2 * k - 2, 2):
            ratio = Fraction(sizes[s - 2], sizes[s])
            if ratio != Fraction(2 * k - s + 2, s):
                return False
            if s <= k and ratio <= 1:
                return False
        for s in sizes:
            if sizes[s] != sizes.get(2 * k - s, sizes[s]):
                return False
            if sizes[s] > sizes[3]:
                return False
    return True


# ---------------------------------------------------------------------------
# the classification finish: every maximum coclique is an edge facet


@dataclass(frozen=True)
class FacetClassification:
    k: int
    edge_facet_count: int  # (2k-2)(2k-3)!!, matchings avoiding a fixed edge
    n3: int
    edge_beats_odd_cut: bool
    cocliques_checked: int
    all_canonical: bool
    all_in_column_space: bool


def facet_classification_check(
    graph: DerangementGraph,
    incidence: IncidenceMatrix,
    cocliques: list[tuple[int, ...]],
) -> FacetClassification:
    """Certify that maximum cocliques are exactly the canonical ones.

    Consumes an exhaustive coclique list; for each one checks that its
    complement is precisely the set of matchings avoiding one particular
    edge e, and that its indicator lies in the incidence column space.
    The witness for the latter is the unit vector on e: the indicator of
    the matchings through e is incidence column e itself, so one integer
    comparison checks it.  A non-canonical maximum coclique would be a
    counterexample to the uniqueness statement and raises immediately.
    """
    k = graph.k
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    edge_facet = (2 * k - 2) * double_factorial(2 * k - 3)
    n3 = facet_size(3, k) if k >= 3 else 0
    beats = edge_facet > n3
    mask_to_edge = {m: e for e, m in graph.edge_masks.items()}
    column = {e: j for j, e in enumerate(incidence.edges)}
    all_canon = True
    all_solvable = True
    for c in cocliques:
        mask = 0
        for i in c:
            mask |= 1 << i
        if mask not in mask_to_edge:
            raise ArithmeticError(
                f"maximum coclique {c} is not canonical; uniqueness fails"
            )
        j = column[mask_to_edge[mask]]
        v = [mask >> i & 1 for i in range(graph.n_vertices)]
        if [row[j] for row in incidence.u.rows] != v:
            all_solvable = False
    return FacetClassification(
        k=k,
        edge_facet_count=edge_facet,
        n3=n3,
        edge_beats_odd_cut=beats,
        cocliques_checked=len(cocliques),
        all_canonical=all_canon,
        all_in_column_space=all_solvable,
    )


__all__ = [
    "FacetClassification",
    "GramCheck",
    "IncidenceMatrix",
    "MembershipVerdict",
    "facet_classification_check",
    "facet_ratio_check",
    "facet_size",
    "facet_size_by_counting",
    "gram_identity_check",
    "gram_matrix",
    "incidence_matrix",
    "polytope_membership",
    "rank_U",
]
