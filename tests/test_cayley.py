"""Automorphism counting, prime pairs, and the non-Cayley argument."""

import random
from itertools import combinations
from math import factorial, lcm

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from pmdg.cayley import (
    automorphism_group_order,
    coclique_linegraph_map,
    derangement_automorphism_order,
    induced_vertex_permutation,
    no_cyclic_pq_element,
    non_cayley_verdict,
    prime_pair,
)
from pmdg.graphs import CapExceeded, build_graph
from pmdg.partitions import partition_count

from test_partitions import recursive_partitions


def rows_from_edges(n, edges):
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return rows


def nx_automorphism_count(rows):
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    for i, r in enumerate(rows):
        for j in range(i + 1, len(rows)):
            if r >> j & 1:
                g.add_edge(i, j)
    return sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())


def test_known_automorphism_orders():
    c5 = rows_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert automorphism_group_order(c5) == 10
    p4 = rows_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert automorphism_group_order(p4) == 2
    k4 = rows_from_edges(4, list(combinations(range(4), 2)))
    assert automorphism_group_order(k4) == 24
    k33 = rows_from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert automorphism_group_order(k33) == 72


def test_petersen_automorphisms():
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    assert automorphism_group_order(rows_from_edges(10, edges)) == 120


@pytest.mark.parametrize("seed", range(8))
def test_automorphisms_match_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
    rows = rows_from_edges(n, edges)
    assert automorphism_group_order(rows) == nx_automorphism_count(rows)


def test_automorphism_cap():
    with pytest.raises(CapExceeded):
        automorphism_group_order([0] * 300)


def test_derangement_graph_automorphisms():
    # the 3-vertex case collapses to a triangle, so its group is larger
    # than the point-relabelling action alone would suggest
    assert derangement_automorphism_order(build_graph(2)) == 6
    assert derangement_automorphism_order(build_graph(3)) == 720 == factorial(6)
    assert derangement_automorphism_order(build_graph(4)) == 40320 == factorial(8)


def test_derangement_automorphism_cap():
    with pytest.raises(CapExceeded):
        derangement_automorphism_order(build_graph(5))


EXPECTED_PAIRS = [
    (3, 3, 5), (4, 5, 7), (5, 5, 7), (6, 7, 11),
    (7, 11, 13), (8, 11, 13), (9, 11, 13), (10, 11, 13), (11, 11, 13),
    (12, 19, 23), (13, 19, 23), (14, 19, 23), (15, 19, 23), (16, 19, 23), (17, 19, 23),
    (18, 29, 31), (19, 29, 31), (20, 29, 31), (21, 29, 31),
    (22, 29, 31), (23, 29, 31), (24, 29, 31),
]


def test_prime_pair_table():
    for k, p, q in EXPECTED_PAIRS:
        pair = prime_pair(k)
        assert (pair.p, pair.q) == (p, q)


def test_prime_pair_past_the_table():
    pair = prime_pair(30)
    assert (pair.p, pair.q) == (31, 37)
    assert (prime_pair(25).p, prime_pair(25).q) == (29, 31)


def is_prime(m):
    return m > 1 and all(m % d for d in range(2, int(m**0.5) + 1))


@pytest.mark.parametrize("k", list(range(3, 60)) + [100, 150, 200])
def test_prime_pair_invariants(k):
    pair = prime_pair(k)
    assert is_prime(pair.p) and is_prime(pair.q)
    assert k <= pair.p < pair.q < 2 * k
    assert pair.p + pair.q > 2 * k


def test_prime_pair_rejects_small_k():
    with pytest.raises(ValueError):
        prime_pair(2)


@pytest.mark.parametrize("k", range(3, 31))
def test_no_cycle_type_order_divisible_by_pq(k):
    pair = prime_pair(k)
    ok, scanned = no_cyclic_pq_element(k, pair.p, pair.q)
    assert ok
    assert scanned == partition_count(2 * k)


def test_pq_scan_detects_a_planted_hit():
    # 3*5 = 15 divides the order of a [5,3] element of Sym(8), so the pair
    # (3,5) is unusable at k=4 and the scan must say so
    with pytest.raises(ArithmeticError):
        no_cyclic_pq_element(4, 3, 5)


@pytest.mark.parametrize("k, p, q", [(4, 3, 5), (12, 5, 7), (30, 29, 31)])
def test_pq_scan_names_the_oracle_first_hit(k, p, q):
    # unusable pairs: the first cycle type hit, in generation order, is the
    # one the recursive oracle generator reaches first
    first = next(
        parts for parts in recursive_partitions(2 * k) if lcm(*parts) % (p * q) == 0
    )
    with pytest.raises(ArithmeticError) as info:
        no_cyclic_pq_element(k, p, q)
    assert str(info.value) == (
        f"cycle type {first} of Sym({2 * k}) has order divisible by {p * q}"
    )


def test_induced_vertex_permutation_identity():
    g = build_graph(3)
    assert induced_vertex_permutation(g, list(range(6))) == list(range(15))


def test_induced_vertex_permutation_transposition():
    g = build_graph(3)
    sigma = [1, 0, 2, 3, 4, 5]
    perm = induced_vertex_permutation(g, sigma)
    assert sorted(perm) == list(range(15))
    # matchings through the swapped edge stay put
    for i in range(g.n_vertices):
        if (0, 1) in g.vertices[i]:
            assert perm[i] == i


@pytest.mark.parametrize("k", [3, 4])
def test_random_relabellings_are_automorphisms(k):
    g = build_graph(k)
    rng = random.Random(k)
    for _ in range(5):
        sigma = list(range(2 * k))
        rng.shuffle(sigma)
        perm = induced_vertex_permutation(g, sigma, verify=True)
        assert sorted(perm) == list(range(g.n_vertices))


def test_coclique_linegraph_map():
    g = build_graph(3)
    sigma = [2, 0, 1, 4, 3, 5]
    perm = induced_vertex_permutation(g, sigma)
    res = coclique_linegraph_map(g, perm)
    assert res.preserves_sharing and res.preserves_disjointness
    assert len(res.edge_map) == 15
    for (a, b), image in res.edge_map.items():
        assert image == tuple(sorted((sigma[a], sigma[b])))


def test_non_cayley_verdict_computed_links():
    v = non_cayley_verdict(3, build_graph(3))
    by_name = {ln.link: ln for ln in v.links}
    assert by_name["odd-vertex-count"].status == "pass"
    assert by_name["prime-pair"].status == "pass"
    assert by_name["regular-subgroup-order"].status == "pass"
    assert by_name["order-pq-cyclic"].status == "pass"
    assert by_name["no-order-pq-element"].status == "pass"
    assert by_name["automorphism-group"].status == "pass"
    assert not v.is_cayley_possible


def test_non_cayley_verdict_cites_group_theory():
    v = non_cayley_verdict(4, build_graph(4))
    statuses = {ln.link: ln.status for ln in v.links}
    assert statuses["odd-order-solvable"] == "cited"
    assert statuses["hall-subgroup"] == "cited"
    assert not v.is_cayley_possible


def test_non_cayley_verdict_k5_cites_automorphisms():
    v = non_cayley_verdict(5, None)
    statuses = {ln.link: ln.status for ln in v.links}
    assert statuses["automorphism-group"] == "cited"
    assert not v.is_cayley_possible


def test_non_cayley_verdict_rejects_small_k():
    with pytest.raises(ValueError):
        non_cayley_verdict(2, None)
    # the automorphism link at k <= 4 is computed, never silently cited
    with pytest.raises(ValueError):
        non_cayley_verdict(4, None)
