"""Acceptance gate: one test per release criterion.

Each test prints a single ``acceptance NN <slug>: pass|FAIL`` line (visible
under ``pytest -s``) and then asserts.  Every check is exact integer or
rational arithmetic; the only tolerances anywhere are the two wall-clock
budgets in criterion 1.

Two sub-checks are expected failures, marked xfail(strict=True) so any
change in their status trips the suite:

* criterion 5's strict eigenvalue bound: at k=3 the label [2,2,2] carries
  eigenvalue 2, which equals d/(2k-2) = 8/4 instead of lying below it;
* criterion 6's eight-shape degree classification at n=10: the shapes
  [5,5] and [2,2,2,2,2] both have dimension 42 < (10^2-10)/2 = 45, so
  enumeration finds ten qualifying shapes, not eight.
"""

import math
import time
from fractions import Fraction

import pytest

from pmdg.characters import (
    add_box,
    closed_form_degrees,
    hook_dimension,
    small_degree_partitions,
)
from pmdg.cayley import (
    derangement_automorphism_order,
    no_cyclic_pq_element,
    prime_pair,
)
from pmdg.graphs import (
    build_graph,
    canonical_coclique,
    degree_by_enumeration,
    degree_formula,
    enumerate_maximum_cocliques,
)
from pmdg.matchings import all_edges, double_factorial
from pmdg.partitions import Partition, iter_partitions, partition_count
from pmdg.polytope import (
    facet_size,
    facet_size_by_counting,
    gram_identity_check,
    incidence_matrix,
    rank_U,
)
from pmdg.spectra import (
    Spectrum,
    character_sum_eigenvalue,
    derangement_class_counts,
    derangement_spectrum,
    kneser_eigenvalues,
    kneser_spectrum_direct,
    module_labeling,
    ratio_bound,
    ratio_tightness_certificate,
    trace_square_check,
)

DEGREES = {2: 2, 3: 8, 4: 60, 5: 544, 6: 6040}


def _labeling(k: int):
    return module_labeling(k, derangement_spectrum(build_graph(k)))


def _report(num: int, slug: str, failures: list[str]) -> None:
    status = "pass" if not failures else "FAIL (" + "; ".join(failures) + ")"
    print(f"acceptance {num:02d} {slug}: {status}")
    assert not failures, f"criterion {num} {slug}: {failures}"


def test_criterion_01_degree_values():
    failures = []
    start = time.perf_counter()
    for k in range(2, 6):
        f, e = degree_formula(k), degree_by_enumeration(k)
        if not (f == e == DEGREES[k]):
            failures.append(f"k={k}: formula {f}, enumeration {e}")
    small = time.perf_counter() - start
    if small >= 1.0:
        failures.append(f"k<=5 took {small:.2f}s, budget 1s")
    start = time.perf_counter()
    f, e = degree_formula(6), degree_by_enumeration(6)
    big = time.perf_counter() - start
    if not (f == e == DEGREES[6]):
        failures.append(f"k=6: formula {f}, enumeration {e}")
    if big >= 30.0:
        failures.append(f"k=6 took {big:.2f}s, budget 30s")
    _report(1, "degree-values", failures)


def _check_ekr(k: int) -> list[str]:
    graph = build_graph(k)
    alpha, cocliques = enumerate_maximum_cocliques(graph)
    failures = []
    if alpha != double_factorial(2 * k - 3):
        failures.append(f"k={k}: alpha {alpha}")
    expected = {canonical_coclique(graph, e) for e in all_edges(k)}
    if set(cocliques) != expected:
        failures.append(f"k={k}: maximum cocliques are not the canonical ones")
    if len(cocliques) != math.comb(2 * k, 2):
        failures.append(f"k={k}: {len(cocliques)} maximum cocliques")
    return failures


def test_criterion_02_ekr_uniqueness():
    failures = []
    for k in (3, 4):
        failures += _check_ekr(k)
    _report(2, "ekr-uniqueness", failures)


@pytest.mark.slow
def test_criterion_02_ekr_uniqueness_k5():
    # opt-in extension of criterion 2 (enable with PMDG_SLOW=1)
    _report(2, "ekr-uniqueness-k5", _check_ekr(5))


def test_criterion_03_spectra_and_labels():
    failures = []
    if derangement_spectrum(build_graph(3)) != Spectrum(15, ((8, 1), (2, 5), (-2, 9))):
        failures.append("spectrum at k=3")
    m8 = derangement_spectrum(build_graph(4))
    if m8.least != -10 or m8.multiplicity(-10) != 20 or 20 != 2 * 16 - 3 * 4:
        failures.append(f"k=4 least {m8.least} mult {m8.multiplicity(-10)}")
    # certain label assignments must tie multiplicities to hook dimensions
    certain = {
        3: {(6,): 8, (4, 2): -2, (2, 2, 2): 2},
        4: {(8,): 60, (6, 2): -10, (4, 2, 2): 2},
    }
    for k, expected in certain.items():
        lab = _labeling(k)
        spec = lab.spectrum
        got = {
            tuple(a.label): a.eigenvalue for a in lab.assignments if a.certain
        }
        for shape, value in expected.items():
            if got.get(shape) != value:
                failures.append(f"k={k}: label {shape} -> {got.get(shape)}")
        for a in lab.assignments:
            if a.dimension != hook_dimension(Partition(a.label)):
                failures.append(f"k={k}: dimension mismatch at {tuple(a.label)}")
        covered: dict[int, int] = {}
        for a in lab.assignments:
            if a.certain:
                covered[a.eigenvalue] = covered.get(a.eigenvalue, 0) + a.dimension
        for value, total in covered.items():
            if k == 3 and total != spec.multiplicity(value):
                failures.append(f"k=3: multiplicity of {value}")
    if _labeling(3).solution_count != 1:
        failures.append("k=3 labeling is not unique")
    _report(3, "spectra-and-labels", failures)


def test_criterion_04_ratio_tightness():
    failures = []
    for k in (3, 4):
        cert = ratio_tightness_certificate(build_graph(k))
        d = degree_formula(k)
        if not cert.holds or cert.eigenvalue != Fraction(-d, 2 * k - 2):
            failures.append(f"k={k}: certificate")
    for k in range(2, 9):
        v = double_factorial(2 * k - 1)
        d = degree_formula(k)
        if ratio_bound(v, d, Fraction(-d, 2 * k - 2)) != double_factorial(2 * k - 3):
            failures.append(f"k={k}: ratio bound")
    _report(4, "ratio-tightness", failures)


def test_criterion_05_trace_identity():
    failures = []
    for k in range(2, 5):
        rep = trace_square_check(_labeling(k))
        want = double_factorial(2 * k - 1) * degree_formula(k)
        if not rep.identity_holds or rep.lhs != want:
            failures.append(f"k={k}: lhs {rep.lhs}, want {want}")
    _report(5, "trace-identity", failures)


@pytest.mark.xfail(
    strict=True,
    reason="at k=3 the [2,2,2] eigenvalue 2 equals d/(2k-2), not below it",
)
def test_criterion_05_strict_bound():
    failures = []
    for k in range(2, 5):
        rep = trace_square_check(_labeling(k))
        if not rep.all_strict:
            bad = [
                f"{tuple(ln.label)}: {ln.candidates} vs {ln.bound}"
                for ln in rep.lines
                if not ln.exempt and not ln.strict_ok
            ]
            failures.append(f"k={k}: " + "; ".join(bad))
    _report(5, "strict-bound", failures)


def _the_eight(n: int) -> set[Partition]:
    return {
        Partition([n]),
        Partition([n - 1, 1]),
        Partition([n - 2, 2]),
        Partition([n - 2, 1, 1]),
        Partition([1] * n),
        Partition([2] + [1] * (n - 2)),
        Partition([2, 2] + [1] * (n - 4)),
        Partition([3] + [1] * (n - 3)),
    }


def test_criterion_06_representation_suite():
    failures = []
    for n in range(1, 11):
        total = sum(hook_dimension(p) ** 2 for p in iter_partitions(n))
        if total != math.factorial(n):
            failures.append(f"dimension squares at n={n}")
    for n in (9, 11, 12, 13):
        if set(small_degree_partitions(n)) != _the_eight(n):
            failures.append(f"classification at n={n}")
    for n in range(9, 13):
        for shape, closed, hook in closed_form_degrees(n):
            if closed != hook:
                failures.append(f"closed form at {tuple(shape)}")
            if closed <= (n * n + n) // 2:
                failures.append(f"{tuple(shape)} not above the degree bound")
    for n in range(1, 13):
        for p in iter_partitions(n):
            induced = sum(hook_dimension(q) for q in add_box(p))
            if induced != (n + 1) * hook_dimension(p):
                failures.append(f"branching at {tuple(p)}")
    _report(6, "representation-suite", failures)


@pytest.mark.xfail(
    strict=True,
    reason="[5,5] and [2,2,2,2,2] have dimension 42 < 45, so n=10 yields ten shapes",
)
def test_criterion_06_eight_shapes_at_n10():
    found = set(small_degree_partitions(10))
    failures = []
    if found != _the_eight(10):
        extras = sorted(tuple(p) for p in found - _the_eight(10))
        failures.append(f"extra shapes {extras}")
    _report(6, "eight-shapes-at-n10", failures)


def test_criterion_07_polytope_suite():
    failures = []
    ranks = {2: 3, 3: 10, 4: 21}
    for k in range(2, 5):
        graph = build_graph(k)
        im = incidence_matrix(graph)
        check = gram_identity_check(graph, im)
        if not check.holds or not check.checked_products:
            failures.append(f"k={k}: product identity")
        if rank_U(im) != ranks[k]:
            failures.append(f"k={k}: rank")
    for k in (3, 4):
        for s in range(3, 2 * k - 2, 2):
            want = double_factorial(s) * double_factorial(2 * k - s)
            if facet_size(s, k) != want or facet_size_by_counting(s, k) != want:
                failures.append(f"k={k}, s={s}: facet count")
    for k in range(3, 11):
        if (2 * k - 2) * double_factorial(2 * k - 3) <= facet_size(3, k):
            failures.append(f"k={k}: edge facet not above the smallest odd cut")
    _report(7, "polytope-suite", failures)


def test_criterion_08_subset_disjointness_spectra():
    failures = []
    for k in range(1, 4):
        for n in range(2 * k, 10):
            if kneser_eigenvalues(n, k) != kneser_spectrum_direct(n, k):
                failures.append(f"(n={n}, k={k})")
    if kneser_eigenvalues(5, 2) != Spectrum(10, ((3, 1), (1, 5), (-2, 4))):
        failures.append("petersen")
    _report(8, "subset-disjointness-spectra", failures)


PRIME_PAIRS = {3: (3, 5), 4: (5, 7), 5: (5, 7), 6: (7, 11)}
PRIME_PAIRS.update({k: (11, 13) for k in range(7, 12)})
PRIME_PAIRS.update({k: (19, 23) for k in range(12, 18)})
PRIME_PAIRS.update({k: (29, 31) for k in range(18, 25)})


def test_criterion_09_non_cayley_chain():
    failures = []
    for k in range(3, 25):
        pair = prime_pair(k)
        if (pair.p, pair.q) != PRIME_PAIRS[k]:
            failures.append(f"k={k}: pair ({pair.p}, {pair.q})")
    for k in range(3, 31):
        pair = prime_pair(k)
        ok, scanned = no_cyclic_pq_element(k, pair.p, pair.q)
        if not ok or scanned != partition_count(2 * k):
            failures.append(f"k={k}: scan {scanned}")
    if derangement_automorphism_order(build_graph(3)) != 720:
        failures.append("automorphisms at k=3")
    if derangement_automorphism_order(build_graph(4)) != 40320:
        failures.append("automorphisms at k=4")
    _report(9, "non-cayley-chain", failures)


def test_criterion_10_character_sum_calibration():
    failures = []
    census = derangement_class_counts(3)
    certified = {(6,): 8, (4, 2): -2, (2, 2, 2): 2}
    for shape, value in certified.items():
        res = character_sum_eigenvalue(3, Partition(shape), census)
        if res.calibrated != value:
            failures.append(f"{shape}: calibrated {res.calibrated}")
    # the valency-weighted normalization must fail on the trivial module
    trivial = character_sum_eigenvalue(3, Partition([6]), census)
    if trivial.rescaled != 64 or trivial.rescaled == trivial.calibrated:
        failures.append(f"rescaled trivial sum {trivial.rescaled}")
    _report(10, "character-sum-calibration", failures)
