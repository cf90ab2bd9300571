"""Incidence matrix, Gram identity, odd-cut facets, membership."""

from fractions import Fraction

import pytest

from pmdg.exact import ExactMatrix, solve
from pmdg.graphs import build_graph, canonical_coclique, enumerate_maximum_cocliques
from pmdg.matchings import CapExceeded, all_edges, double_factorial, matching_count
from pmdg.polytope import (
    IncidenceMatrix,
    facet_classification_check,
    facet_ratio_check,
    facet_size,
    facet_size_by_counting,
    gram_identity_check,
    gram_matrix,
    incidence_matrix,
    polytope_membership,
    rank_U,
)


def _incidence(k):
    g = build_graph(k)
    return g, incidence_matrix(g)


def _classify(k):
    g, im = _incidence(k)
    _, cocliques = enumerate_maximum_cocliques(g)
    return facet_classification_check(g, im, cocliques)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_incidence_shape_and_sums(k):
    g, im = _incidence(k)
    assert im.n_matchings == matching_count(k)
    assert im.n_edges == len(all_edges(k))
    for row in im.u.rows:
        assert sum(row) == k
        assert set(row) <= {0, 1}
    # row i is vertex i of the graph
    for m, row in zip(g.vertices, im.u.rows):
        assert {im.edges[j] for j, x in enumerate(row) if x} == set(m)


def test_incidence_cap():
    # the matrix is built from the graph, so the graph cap bounds it
    with pytest.raises(CapExceeded):
        incidence_matrix(build_graph(7))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_gram_identity(k):
    g, im = _incidence(k)
    chk = gram_identity_check(g, im if k <= 3 else None)
    assert chk.holds
    assert chk.diagonal == double_factorial(2 * k - 3)
    assert chk.off_diagonal == double_factorial(2 * k - 5)
    assert chk.checked_products == (k <= 3)


def test_gram_identity_forced_product_route():
    assert gram_identity_check(*_incidence(4)).checked_products


def test_gram_matrix_k2_by_hand():
    # three matchings on four points: every pair of disjoint edges lies in
    # exactly one common matching, adjacent pairs in none
    g = gram_matrix(build_graph(2))
    for i in range(6):
        for j in range(6):
            e, f = all_edges(2)[i], all_edges(2)[j]
            if i == j:
                assert g[i, j] == 1
            elif set(e) & set(f):
                assert g[i, j] == 0
            else:
                assert g[i, j] == 1


@pytest.mark.parametrize("k,expected", [(2, 3), (3, 10), (4, 21)])
def test_rank_of_incidence(k, expected):
    assert rank_U(_incidence(k)[1]) == expected
    assert expected == 2 * k * k - 3 * k + 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_gram_kernel_dimension(k):
    g = gram_matrix(build_graph(k))
    assert g.nullity() == 2 * k - 1


@pytest.mark.parametrize("k", [2, 3])
def test_gram_kernel_vectors(k):
    # the difference of two vertex stars is orthogonal to every matching row
    g = gram_matrix(build_graph(k))
    edges = sorted(all_edges(k))
    for u, v in [(0, 1), (0, 2 * k - 1), (1, 2)]:
        w = [(u in e) - (v in e) for e in edges]
        assert all(x == 0 for x in g.matvec(w))


def test_membership_barycenter():
    for k in (2, 3):
        x = [Fraction(1, 2 * k - 1)] * len(all_edges(k))
        assert polytope_membership(x, k).member


def test_membership_matching_vertices():
    g = build_graph(3)
    cols = {e: j for j, e in enumerate(all_edges(3))}
    for m in g.vertices[:4]:
        x = [0] * 15
        for e in m:
            x[cols[e]] = 1
        assert polytope_membership(x, 3).member


def test_membership_rejects_negative():
    x = [Fraction(1, 3)] * 15
    x[4] = Fraction(-1, 3)
    verdict = polytope_membership(x, 3)
    assert not verdict.member
    assert verdict.constraint == "nonnegativity"
    assert "(0, 5)" in verdict.detail


def test_membership_rejects_bad_vertex_sum():
    verdict = polytope_membership([0] * 15, 3)
    assert not verdict.member
    assert verdict.constraint == "vertex sum"


def test_membership_rejects_odd_cut():
    # half weight on two disjoint triangles: vertex sums are fine but the
    # cut between them carries nothing
    cols = {e: j for j, e in enumerate(all_edges(3))}
    x = [Fraction(0)] * 15
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        x[cols[(a, b)]] = Fraction(1, 2)
    verdict = polytope_membership(x, 3)
    assert not verdict.member
    assert verdict.constraint == "odd cut"
    assert "[0, 1, 2]" in verdict.detail


def test_membership_validation():
    with pytest.raises(CapExceeded):
        polytope_membership([0] * 66, 6)
    with pytest.raises(ValueError):
        polytope_membership([0, 1], 3)


def test_facet_size_values():
    assert facet_size(3, 3) == 9
    assert facet_size(3, 4) == 45
    assert facet_size(5, 4) == 45
    assert facet_size(3, 5) == 315


@pytest.mark.parametrize("k", [3, 4])
def test_facet_size_matches_counting(k):
    for s in range(3, 2 * k - 2, 2):
        assert facet_size(s, k) == facet_size_by_counting(s, k)


def test_facet_size_validation():
    with pytest.raises(ValueError):
        facet_size(4, 4)
    with pytest.raises(ValueError):
        facet_size(1, 4)
    with pytest.raises(ValueError):
        facet_size(7, 4)


def test_facet_ratio_check():
    assert facet_ratio_check(16)


def test_edge_facet_count_by_enumeration():
    # matchings avoiding one fixed edge
    g = build_graph(3)
    avoid = sum(1 for m in g.vertices if (0, 1) not in m)
    assert avoid == (2 * 3 - 2) * double_factorial(2 * 3 - 3) == 12


@pytest.mark.parametrize("k", [2, 3])
def test_facet_classification_small(k):
    fc = _classify(k)
    assert fc.edge_facet_count == (2 * k - 2) * double_factorial(2 * k - 3)
    assert fc.all_canonical and fc.all_in_column_space
    assert fc.edge_beats_odd_cut


def test_facet_classification_k3_details():
    g, im = _incidence(3)
    alpha, cocliques = enumerate_maximum_cocliques(g)
    fc = facet_classification_check(g, im, cocliques)
    assert fc.cocliques_checked == 15
    assert fc.n3 == 9
    assert fc.edge_facet_count == 12 > fc.n3


def test_facet_classification_k4():
    fc = _classify(4)
    assert fc.cocliques_checked == 28
    assert fc.edge_facet_count == 90 > fc.n3 == 45
    assert fc.all_canonical and fc.all_in_column_space


def test_facet_classification_rejects_impostor():
    # {0,1,3} is independent-size-shaped but is not an edge's coclique
    with pytest.raises(ArithmeticError):
        facet_classification_check(*_incidence(3), [(0, 1, 3)])


@pytest.mark.parametrize("k", [2, 3])
def test_facet_witness_agrees_with_solve(k):
    # the unit vector on e solves U x = indicator of the coclique on e, and
    # a general exact solve reaches the same feasibility verdict
    g, im = _incidence(k)
    for j, e in enumerate(im.edges):
        members = set(canonical_coclique(g, e))
        v = [1 if i in members else 0 for i in range(g.n_vertices)]
        unit = [1 if t == j else 0 for t in range(im.n_edges)]
        assert im.u.matvec(unit) == v
        assert solve(im.u, v).feasible
    # from k=3 on the rank 2k^2-3k+1 is below (2k-1)!!, and a lone vertex
    # indicator is outside the column space
    lone = [1] + [0] * (g.n_vertices - 1)
    assert solve(im.u, lone).feasible == (k == 2)


def test_facet_witness_detects_a_wrong_column():
    g, im = _incidence(3)
    rows = [list(r) for r in im.u.rows]
    rows[0][0] = 1 - rows[0][0]
    bad = IncidenceMatrix(k=3, u=ExactMatrix(rows), edges=im.edges)
    _, cocliques = enumerate_maximum_cocliques(g)
    fc = facet_classification_check(g, bad, cocliques)
    assert fc.all_canonical and not fc.all_in_column_space
