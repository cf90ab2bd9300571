"""Derangement graph construction, quotients, cliques, cocliques."""

from math import comb

import pytest

from pmdg.exact import ExactMatrix
from pmdg.graphs import (
    CapExceeded,
    KneserGraph,
    PartitionNotEquitable,
    VertexPartition,
    build_graph,
    canonical_coclique,
    canonical_partition,
    clique_coclique_check,
    degree_by_enumeration,
    degree_formula,
    degree_lower_bound_check,
    degree_terms,
    enumerate_maximum_cocliques,
    one_factorization_clique,
    orbit_partition,
    quotient_matrix,
    scheme_class_sizes,
)
from pmdg.matchings import double_factorial, matching_count, union_cycle_type
from pmdg.partitions import partition_count

DEGREE_VALUES = {2: 2, 3: 8, 4: 60, 5: 544, 6: 6040, 7: 79008, 8: 1190672}


def test_degree_formula_frozen_values():
    for k, d in DEGREE_VALUES.items():
        assert degree_formula(k) == d
    assert degree_formula(1) == 0


@pytest.mark.parametrize("k", range(2, 6))
def test_degree_formula_equals_enumeration(k):
    assert degree_formula(k) == degree_by_enumeration(k)


def test_degree_by_independent_census(k=4):
    # second oracle route: classify by union cycle type, no shared edge
    # means no part equal to 1
    g = build_graph(k)
    base = g.vertices[0]
    count = sum(
        1
        for m in g.vertices
        if m != base and 1 not in union_cycle_type(base, m)
    )
    assert count == degree_formula(k)


def test_degree_terms_alternate_and_decrease():
    for k in range(2, 9):
        terms = degree_terms(k)
        assert len(terms) == k + 1
        assert terms[-1] == 1  # C(k,k) * (-1)!!
        assert all(a > b for a, b in zip(terms, terms[1:]))
        signed = sum((-1) ** i * t for i, t in enumerate(terms))
        assert signed == degree_formula(k)
        assert degree_lower_bound_check(k)


def test_degree_parity_observation():
    # d(2k) is even for every k >= 2: terms pair up mod 2 except the two
    # trailing ones, which cancel
    for k in range(2, 9):
        assert degree_formula(k) % 2 == 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_build_graph_structure(k):
    g = build_graph(k)
    assert g.n_vertices == matching_count(k)
    assert g.degree == degree_formula(k)
    assert g.is_regular()
    n = g.n_vertices
    for i in range(n):
        assert not g.has_edge(i, i)
        for j in g.neighbors(i):
            assert g.has_edge(j, i)
            assert not g.vertices[i].shares_edge(g.vertices[j])


def test_adjacency_agrees_with_rows():
    g = build_graph(3)
    a = g.adjacency_matrix()
    assert a.is_symmetric()
    for i in range(g.n_vertices):
        assert sum(a.rows[i]) == g.degree


def test_m4_is_a_triangle():
    g = build_graph(2)
    assert g.n_vertices == 3
    assert all(r.bit_count() == 2 for r in g.rows)


def test_build_graph_cap():
    with pytest.raises(CapExceeded) as ei:
        build_graph(7)
    assert ei.value.what == "graph build"
    assert ei.value.cap == 6


def test_edge_masks_are_canonical_cocliques():
    g = build_graph(3)
    for e, mask in g.edge_masks.items():
        assert mask.bit_count() == 3  # (2k-3)!!
        members = canonical_coclique(g, e)
        for a in members:
            assert e in g.vertices[a]
            for b in members:
                assert not g.has_edge(a, b)
    with pytest.raises(ValueError):
        canonical_coclique(g, (0, 6))


@pytest.mark.parametrize("k", range(2, 6))
def test_one_factorization_partitions_edges(k):
    rounds = one_factorization_clique(k)
    assert len(rounds) == 2 * k - 1
    seen = set()
    for m in rounds:
        assert not seen & set(m)
        seen.update(m)
    assert len(seen) == comb(2 * k, 2)


def test_clique_coclique_record():
    g = build_graph(3)
    rec = clique_coclique_check(g, certified_alpha=3)
    assert rec.clique_size == 5
    assert rec.coclique_size == 3
    assert rec.product == 15 == rec.n_vertices
    assert rec.tight
    assert rec.clique_number == 5
    # without certification the clique number stays open
    assert clique_coclique_check(g).clique_number is None


def test_maximum_cocliques_k3_exactly_canonical():
    g = build_graph(3)
    alpha, cocliques = enumerate_maximum_cocliques(g)
    assert alpha == 3
    assert len(cocliques) == 15 == comb(6, 2)
    canonical = {canonical_coclique(g, e) for e in g.edge_masks}
    assert set(cocliques) == canonical


def test_canonical_quotients():
    expect = {3: [[0, 8], [2, 6]], 4: [[0, 60], [10, 50]]}
    for k, rows in expect.items():
        g = build_graph(k)
        q = quotient_matrix(g, canonical_partition(g, (0, 1)))
        assert q == ExactMatrix(rows)


def test_quotient_rejects_non_equitable():
    g = build_graph(3)
    full = (1 << g.n_vertices) - 1
    lone = VertexPartition(labels=("v0", "rest"), masks=(1, full & ~1))
    with pytest.raises(PartitionNotEquitable) as ei:
        quotient_matrix(g, lone)
    assert ei.value.cells == ("rest", "v0")


def test_quotient_validates_cover_and_overlap():
    g = build_graph(2)
    with pytest.raises(ValueError):
        quotient_matrix(g, VertexPartition(labels=("a", "b"), masks=(0b11, 0b110)))
    with pytest.raises(ValueError):
        quotient_matrix(g, VertexPartition(labels=("a",), masks=(0b11,)))


@pytest.mark.parametrize("k", [3, 4])
def test_orbit_partition_is_equitable_with_degree_rows(k):
    g = build_graph(k)
    part = orbit_partition(g)
    assert len(part.masks) == partition_count(k)
    assert part.cell_sizes()[0] == 1  # the base vertex alone
    q = quotient_matrix(g, part)
    for row in q.rows:
        assert sum(row) == g.degree


def test_scheme_class_sizes_frozen():
    g3 = build_graph(3)
    assert {tuple(t): c for t, c in scheme_class_sizes(g3).items()} == {
        (1, 1, 1): 1, (2, 1): 6, (3,): 8,
    }
    g4 = build_graph(4)
    sizes = {tuple(t): c for t, c in scheme_class_sizes(g4).items()}
    assert sizes == {(1, 1, 1, 1): 1, (2, 1, 1): 12, (2, 2): 12, (3, 1): 32, (4,): 48}


def test_scheme_class_sizes_structure():
    # no-fixed-edge classes sum to the valency; everything sums to the
    # vertex count; base-independent
    for k in (3, 4):
        g = build_graph(k)
        sizes = scheme_class_sizes(g)
        assert sum(sizes.values()) == matching_count(k)
        assert sum(c for t, c in sizes.items() if 1 not in t) == degree_formula(k)
        assert sizes == scheme_class_sizes(g, base=g.n_vertices - 1)


def test_class_size_recursions():
    g4 = build_graph(4)
    sizes = {tuple(t): c for t, c in scheme_class_sizes(g4).items()}
    # fixing which base edges stay shared reduces to smaller derangement counts
    assert sizes[(2, 1, 1)] == comb(4, 2) * degree_formula(2)
    assert sizes[(3, 1)] == comb(4, 1) * degree_formula(3)


def test_kneser_graph_petersen():
    p = KneserGraph(5, 2)
    assert p.n_vertices == 10
    assert p.degree == 3
    a = p.adjacency_matrix()
    assert a.is_symmetric()
    assert all(sum(row) == 3 for row in a.rows)


def test_kneser_graph_validation():
    with pytest.raises(CapExceeded):
        KneserGraph(30, 10)
    with pytest.raises(ValueError):
        KneserGraph(3, 4)

