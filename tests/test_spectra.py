"""Spectra: exact eigenvalues, multiplicities, labelings, bounds.

Every spectrum in the package is proved by one certificate, walks from
the base vertex in a verified equitable quotient.  The tests below check
it against exact kernel ranks of the full adjacency matrix, exercise
each premise it must reject, and pin the spectra to frozen values.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from pmdg.cayley import induced_vertex_permutation
from pmdg.exact import ExactMatrix
from pmdg.graphs import (
    KneserGraph,
    PartitionNotEquitable,
    VertexPartition,
    build_graph,
    orbit_partition,
)
from pmdg.matchings import CapExceeded, double_factorial, matching_count
from pmdg.partitions import Partition
from pmdg.spectra import (
    Spectrum,
    certified_spectrum,
    character_sum_eigenvalue,
    derangement_class_counts,
    derangement_spectrum,
    kneser_eigenvalues,
    kneser_spectrum_direct,
    module_labeling,
    quotient_eigenvalue_candidates,
    ratio_bound,
    ratio_tightness_certificate,
    trace_square_check,
)

M6 = Spectrum(15, ((8, 1), (2, 5), (-2, 9)))
M8 = Spectrum(105, ((60, 1), (5, 14), (2, 56), (-3, 14), (-10, 20)))
M10 = Spectrum(945, ((544, 1), (12, 315), (4, 42), (-2, 300), (-6, 252), (-68, 35)))


def _labeling(k):
    return module_labeling(k, derangement_spectrum(build_graph(k)))


def test_spectrum_container():
    s = Spectrum(15, ((2, 5), (8, 1), (-2, 9)))  # order fixed on build
    assert s.eigenvalues == ((8, 1), (2, 5), (-2, 9))
    assert s.largest == 8 and s.least == -2
    assert s.multiplicity(2) == 5 and s.multiplicity(7) == 0
    assert s.moment(0) == 15 and s.moment(1) == 0 and s.moment(2) == 120
    assert s.as_dict() == {8: 1, 2: 5, -2: 9}
    assert str(s) == "{8^1, 2^5, -2^9}"


def test_char_poly_of_quotient():
    assert ExactMatrix([[0, 8], [2, 6]]).charpoly() == [-16, -6, 1]


TRANSPOSITION = (1, 0, 2, 3, 4, 5)
ROTATION = (1, 2, 3, 4, 5, 0)
KNESER_PAIRS = [(n, k) for k in (1, 2, 3) for n in range(2 * k, 10)]


def _relabellings(g, sigmas=(TRANSPOSITION, ROTATION)):
    return [induced_vertex_permutation(g, s, verify=False) for s in sigmas]


def _kernel_dimension(a: ExactMatrix, value: int) -> int:
    return a.nrows - a.add_scalar_diagonal(-value).rank()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_multiplicities_match_kernel_ranks(k):
    g = build_graph(k)
    a = g.adjacency_matrix()
    for value, mult in derangement_spectrum(g).eigenvalues:
        assert mult == _kernel_dimension(a, value)


def test_kneser_multiplicities_match_kernel_ranks():
    for n, k in KNESER_PAIRS:
        a = KneserGraph(n, k).adjacency_matrix()
        for value, mult in kneser_spectrum_direct(n, k).eigenvalues:
            assert mult == _kernel_dimension(a, value), (n, k, value)


def test_certificate_rejects_first_cell_without_the_base_alone():
    g = build_graph(3)
    part = orbit_partition(g)
    merged = VertexPartition(
        labels=("merged",) + part.labels[2:],
        masks=(part.masks[0] | part.masks[1],) + part.masks[2:],
    )
    with pytest.raises(ValueError, match="first cell"):
        certified_spectrum(g, merged, _relabellings(g), [8, 2, -2])


def test_certificate_rejects_non_equitable_partition():
    g = build_graph(3)
    full = (1 << g.n_vertices) - 1
    part = VertexPartition(
        labels=("base", "low", "high"), masks=(1, 0b11110, full ^ 0b11111)
    )
    with pytest.raises(PartitionNotEquitable):
        certified_spectrum(g, part, _relabellings(g), [8, 2, -2])


def test_certificate_rejects_a_non_automorphism():
    g = build_graph(3)
    phi = list(range(g.n_vertices))
    phi[0], phi[1] = phi[1], phi[0]
    with pytest.raises(ValueError, match="preserve adjacency"):
        certified_spectrum(g, orbit_partition(g), _relabellings(g) + [phi], [8, 2, -2])


def test_certificate_rejects_an_orbit_that_misses_vertices():
    # (0 1) fixes the base matching {01, 23, 45}
    g = build_graph(3)
    with pytest.raises(ValueError, match="to 1 of 15 vertices"):
        certified_spectrum(
            g, orbit_partition(g), _relabellings(g, [TRANSPOSITION]), [8, 2, -2]
        )


def test_certificate_rejects_irrational_eigenvalues():
    # the 5-cycle has eigenvalues 2 and (-1 +- sqrt 5)/2, so no list of
    # integer candidates annihilates the walks from its base vertex
    rows = [(1 << (i + 1) % 5) | (1 << (i - 1) % 5) for i in range(5)]
    c5 = SimpleNamespace(rows=rows, n_vertices=5)
    part = VertexPartition(labels=("0", "1", "2"), masks=(0b00001, 0b10010, 0b01100))
    rotation = [1, 2, 3, 4, 0]
    with pytest.raises(ArithmeticError, match="annihilation"):
        certified_spectrum(c5, part, [rotation], [2, 1, 0, -1, -2])


def test_quotient_candidates_cover_spectrum():
    def candidates(k):
        g = build_graph(k)
        return quotient_eigenvalue_candidates(g, orbit_partition(g))

    assert candidates(3) == [8, 2, -2]
    assert set(candidates(4)) == {60, 5, 2, -3, -10}
    assert set(candidates(5)) == {544, 12, 4, -2, -6, -68}


def test_derangement_spectrum_small():
    assert derangement_spectrum(build_graph(2)).eigenvalues == ((2, 1), (-1, 2))
    assert derangement_spectrum(build_graph(3)) == M6
    assert derangement_spectrum(build_graph(4)) == M8


def test_derangement_spectrum_cap():
    with pytest.raises(CapExceeded) as ei:
        derangement_spectrum(build_graph(6))
    assert ei.value.what == "spectrum"


def test_spectrum_m10_certified():
    assert derangement_spectrum(build_graph(5)) == M10


def test_certified_route_rejects_bad_candidates():
    g = build_graph(5)
    sigmas = [(1, 0) + tuple(range(2, 10)), tuple(range(1, 10)) + (0,)]
    with pytest.raises(ArithmeticError, match="annihilation"):
        # -68 missing
        certified_spectrum(
            g, orbit_partition(g), _relabellings(g, sigmas), [544, 12, 4, -2, -6]
        )


@pytest.mark.parametrize("spec,k", [(M6, 3), (M8, 4), (M10, 5)])
def test_spectrum_global_invariants(spec, k):
    n = matching_count(k)
    d = spec.largest
    assert spec.n == n == sum(m for _, m in spec.eigenvalues)
    assert spec.moment(1) == 0
    assert spec.moment(2) == n * d
    # least eigenvalue is -d/(2k-2) with multiplicity 2k^2-3k
    assert Fraction(-d, 2 * k - 2) == spec.least
    assert spec.multiplicity(spec.least) == 2 * k * k - 3 * k


def test_third_moment_counts_triangles():
    g = build_graph(3)
    tri = 0
    for i in range(g.n_vertices):
        for j in g.neighbors(i):
            if j > i:
                tri += (g.rows[i] & g.rows[j]).bit_count()
    # tri counts each triangle three times (once per edge); tr A^3 is six times
    assert M6.moment(3) == 2 * tri


def test_kneser_closed_form_matches_direct_everywhere():
    for n, k in KNESER_PAIRS:
        assert kneser_eigenvalues(n, k) == kneser_spectrum_direct(n, k)


def test_petersen_spectrum():
    s = kneser_eigenvalues(5, 2)
    assert s.eigenvalues == ((3, 1), (1, 5), (-2, 4))


def test_kneser_6_2_spectrum():
    # triangular graph complement: valency 6, and the positive unit
    # eigenvalue carries multiplicity nine
    s = kneser_eigenvalues(6, 2)
    assert s.eigenvalues == ((6, 1), (1, 9), (-3, 5))
    assert s == kneser_spectrum_direct(6, 2)


def test_kneser_matching_case():
    # K(2k, k) pairs each subset with its complement
    s = kneser_eigenvalues(6, 3)
    assert s.as_dict() == {1: 10, -1: 10}


def test_kneser_complete_graph_case():
    for n in range(2, 10):
        assert kneser_eigenvalues(n, 1).as_dict() == {n - 1: 1, -1: n - 1}


def test_ratio_bound_symbolic():
    for k in range(2, 9):
        from pmdg.graphs import degree_formula

        d = degree_formula(k)
        tau = Fraction(-d, 2 * k - 2)
        bound = ratio_bound(matching_count(k), d, tau)
        assert bound == double_factorial(2 * k - 3)


def test_ratio_bound_petersen_and_errors():
    assert ratio_bound(10, 3, -2) == 4
    with pytest.raises(ValueError):
        ratio_bound(10, 3, 0)
    with pytest.raises(ValueError):
        ratio_bound(10, 3, 2)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_ratio_tightness_certificate(k):
    g = build_graph(k)
    cert = ratio_tightness_certificate(g)
    assert cert.holds
    assert cert.vertices_checked == g.n_vertices
    assert cert.eigenvalue == Fraction(-g.degree, 2 * k - 2)


def test_tightness_certificate_other_edges():
    g = build_graph(3)
    for e in [(0, 2), (2, 5), (1, 4)]:
        assert ratio_tightness_certificate(g, e).holds


def test_module_labeling_k3_certain():
    lab = _labeling(3)
    assert lab.solution_count == 1
    got = {tuple(a.label): a.eigenvalue for a in lab.assignments}
    assert got == {(6,): 8, (4, 2): -2, (2, 2, 2): 2}
    assert all(a.certain for a in lab.assignments)


def test_module_labeling_k4_two_covers():
    lab = _labeling(4)
    assert lab.solution_count == 2
    by_label = {tuple(a.label): a for a in lab.assignments}
    assert by_label[(8,)].eigenvalue == 60
    assert by_label[(6, 2)].eigenvalue == -10
    assert by_label[(4, 2, 2)].eigenvalue == 2
    # the two 14-dimensional modules swap between 5 and -3 across covers
    for lbl in ((4, 4), (2, 2, 2, 2)):
        a = by_label[lbl]
        assert not a.certain
        assert a.candidates == (5, -3)
        assert a.eigenvalue is None


def test_module_labeling_k5_unique():
    lab = _labeling(5)
    assert lab.solution_count == 1
    got = {tuple(a.label): a.eigenvalue for a in lab.assignments}
    assert got == {
        (10,): 544,
        (8, 2): -68,
        (6, 4): 12,
        (6, 2, 2): 12,
        (4, 4, 2): -6,
        (4, 2, 2, 2): -2,
        (2, 2, 2, 2, 2): 4,
    }


def test_labeling_dimensions_cover_multiplicities():
    for k in (3, 4, 5):
        lab = _labeling(k)
        for value, mult in lab.spectrum.eigenvalues:
            dim_total = sum(
                a.dimension for a in lab.assignments
                if a.certain and a.eigenvalue == value
            )
            uncertain = [a for a in lab.assignments if not a.certain]
            if not uncertain:
                assert dim_total == mult
            else:
                assert dim_total <= mult


@pytest.mark.parametrize("k", [2, 3, 4])
def test_trace_square_identity(k):
    lab = _labeling(k)
    rep = trace_square_check(lab)
    assert rep.identity_holds
    assert rep.lhs == rep.rhs == matching_count(k) * lab.spectrum.largest


def test_strict_bound_k3_equality_is_reported():
    # |2| equals 8/(2k-2) exactly, so the strict form genuinely fails here
    rep = trace_square_check(_labeling(3))
    assert not rep.all_strict
    line = next(ln for ln in rep.lines if tuple(ln.label) == (2, 2, 2))
    assert not line.exempt
    assert line.bound == 2
    assert line.candidates == (2,)
    assert not line.strict_ok


def test_strict_bound_k4_holds():
    rep = trace_square_check(_labeling(4))
    assert rep.all_strict
    for line in rep.lines:
        if tuple(line.label) in ((8,), (6, 2)):
            assert line.exempt
        else:
            assert line.strict_ok
            assert all(abs(v) < line.bound for v in line.candidates)


def test_trace_square_k2_vacuous():
    rep = trace_square_check(_labeling(2))
    assert rep.identity_holds
    assert rep.all_strict  # nothing outside the two exempt labels


def test_derangement_census_group_size():
    for k in (2, 3, 4):
        census = derangement_class_counts(k)
        total = sum(census.values())
        # permutations sending the base matching to a disjoint one
        from math import factorial

        assert total == build_graph(k).degree * 2**k * factorial(k)
        assert all(t.n == 2 * k for t in census)


def test_census_k3_frozen():
    census = {tuple(t): c for t, c in derangement_class_counts(3).items()}
    assert census == {
        (2, 2, 1, 1): 24, (3, 2, 1): 48, (4, 1, 1): 72, (5, 1): 96,
        (3, 1, 1, 1): 16, (3, 3): 32, (6,): 64, (2, 2, 2): 8, (4, 2): 24,
    }


def test_character_sums_k3():
    census = derangement_class_counts(3)
    expected = {(6,): (384, 8), (4, 2): (-96, -2), (2, 2, 2): (96, 2)}
    for lbl, (raw, value) in expected.items():
        r = character_sum_eigenvalue(3, Partition(lbl), census)
        assert r.raw_sum == raw
        assert r.group_elements == 384
        assert r.calibrated == value
    # the d/(2^k k!) prefactor would give d^2 on the trivial module
    triv = character_sum_eigenvalue(3, Partition([6]), census)
    assert triv.rescaled == 64 != 8


def test_character_sums_k4_resolve_the_ambiguity():
    census = derangement_class_counts(4)
    assert len(census) == 19
    values = {}
    for a in _labeling(4).assignments:
        r = character_sum_eigenvalue(4, Partition(a.label), census)
        values[tuple(a.label)] = r.calibrated
        assert r.calibrated in a.candidates
    assert values[(4, 4)] == 5
    assert values[(2, 2, 2, 2)] == -3
    assert values[(8,)] == 60 and values[(6, 2)] == -10 and values[(4, 2, 2)] == 2


def test_character_sum_trace_identity():
    # sum of dim * eigenvalue over all modules is the trace of the
    # adjacency matrix: zero (1*8 + 9*(-2) + 5*2)
    census = derangement_class_counts(3)
    from pmdg.characters import hook_dimension

    total = sum(
        hook_dimension(lbl) * character_sum_eigenvalue(3, lbl, census).calibrated
        for lbl in (Partition([6]), Partition([4, 2]), Partition([2, 2, 2]))
    )
    assert total == 0
