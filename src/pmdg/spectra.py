"""Exact spectra of the derangement graph and the machinery around them.

Every spectrum is proved by one certificate, :func:`certified_spectrum`.
An equitable partition whose first cell is a single base vertex supplies
the quotient; candidate eigenvalues are the quotient's integer roots;
and the walks from the base vertex, counted in the quotient and spread
over all vertices by verified automorphisms, prove that the candidates
are every eigenvalue and fix their multiplicities.  All of it is integer
arithmetic on the quotient, with Fractions only in a small Vandermonde
solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cayley import induced_vertex_permutation
from .characters import character, hook_dimension, matching_scheme_labels
from .exact import ExactMatrix, integer_roots, solve
from .graphs import (
    DerangementGraph,
    KneserGraph,
    VertexPartition,
    degree_formula,
    is_automorphism,
    orbit_partition,
    quotient_matrix,
)
from .matchings import CapExceeded
from .partitions import Partition

# the certificate verifies each point relabelling row by row, n*d bit steps:
# 0.5 million at k=5, 63 million at k=6
SPECTRUM_CAP = 5


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, certified to cover the whole space."""

    n: int
    eigenvalues: tuple[tuple[int, int], ...]  # (value, multiplicity), descending

    def __post_init__(self):
        pairs = tuple(sorted(self.eigenvalues, key=lambda vm: -vm[0]))
        if len({v for v, _ in pairs}) != len(pairs):
            raise ValueError("repeated eigenvalue entries")
        if any(m < 1 for _, m in pairs):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "eigenvalues", pairs)

    def multiplicity(self, value: int) -> int:
        for v, m in self.eigenvalues:
            if v == value:
                return m
        return 0

    @property
    def least(self) -> int:
        return self.eigenvalues[-1][0]

    @property
    def largest(self) -> int:
        return self.eigenvalues[0][0]

    def moment(self, power: int) -> int:
        return sum(m * v**power for v, m in self.eigenvalues)

    def as_dict(self) -> dict[int, int]:
        return dict(self.eigenvalues)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{v}^{m}" for v, m in self.eigenvalues) + "}"


def certified_spectrum(
    graph, partition: VertexPartition, automorphisms, candidates
) -> Spectrum:
    """Exact spectrum of a vertex-transitive graph from the walks out of one vertex.

    Premises, each checked here: the first cell of ``partition`` is the
    single base vertex, the partition is equitable (with quotient B),
    every vertex permutation in ``automorphisms`` preserves adjacency,
    and together they carry the base vertex to every vertex.

    Why this proves the spectrum: with P the cell indicator matrix,
    AP = PB, so the walks from the base vertex are A^j e_0 = P B^j f_0.
    Automorphisms commute with A, so p(A) e_0 = 0 gives p(A) e_v = 0 for
    every v in the orbit of the base vertex, that is p(A) = 0; and every
    diagonal entry of A^j equals (B^j)_00.  The certificate checks
    p(B) f_0 = 0 for p = prod (x - c) over the candidates, so every
    eigenvalue is a candidate, and reads the multiplicities off
    tr A^j = n (B^j)_00 for the first len(candidates) powers by a
    Vandermonde solve.  The traces of the higher powers, up to at least
    A^6, must match the result too.
    """
    n = graph.n_vertices
    if partition.masks[0].bit_count() != 1:
        raise ValueError("the first cell must hold exactly the base vertex")
    base = partition.masks[0].bit_length() - 1
    b = [[int(x) for x in row] for row in quotient_matrix(graph, partition).rows]
    for phi in automorphisms:
        if not is_automorphism(graph.rows, phi):
            raise ValueError("a vertex permutation does not preserve adjacency")
    orbit = {base}
    todo = [base]
    while todo:
        v = todo.pop()
        for phi in automorphisms:
            if phi[v] not in orbit:
                orbit.add(phi[v])
                todo.append(phi[v])
    if len(orbit) != n:
        raise ValueError(
            f"the permutations carry the base vertex to {len(orbit)} of {n} vertices"
        )

    def times_b(v: list[int]) -> list[int]:
        return [sum(x * y for x, y in zip(row, v)) for row in b]

    f0 = [1] + [0] * (len(b) - 1)
    cand = sorted(set(candidates), reverse=True)
    m = len(cand)
    v = f0
    for c in cand:
        v = [x - c * y for x, y in zip(times_b(v), v)]
    if any(v):
        raise ArithmeticError(
            "annihilation certificate failed: candidate eigenvalue list is incomplete"
        )
    traces = []
    w = f0
    for _ in range(max(m, 7)):
        traces.append(n * w[0])
        w = times_b(w)

    vrows = [[c**e for c in cand] for e in range(m)]
    res = solve(ExactMatrix(vrows), traces[:m])
    if res.solution is None:
        raise ArithmeticError("power-sum system is inconsistent")
    mults = []
    for c, f in zip(cand, res.solution):
        if f.denominator != 1 or f < 0:
            raise ArithmeticError(f"multiplicity of {c} came out as {f}")
        mults.append(int(f))
    if sum(mults) != n:
        raise ArithmeticError("multiplicities do not sum to the vertex count")
    for e in range(m, len(traces)):
        if sum(mu * c**e for mu, c in zip(mults, cand)) != traces[e]:
            raise ArithmeticError(f"trace of power {e} mismatches the spectrum")
    eigs = tuple((c, mu) for c, mu in zip(cand, mults) if mu)
    return Spectrum(n=n, eigenvalues=eigs)


def quotient_eigenvalue_candidates(graph, partition: VertexPartition) -> list[int]:
    """Distinct integer eigenvalues of an equitable quotient.

    Every eigenvalue of the quotient is one of the graph; when the first
    cell is a single vertex of a vertex-transitive graph, every eigenvalue
    of the graph is one of the quotient, so none is missed unless the
    quotient has a non-integer root, which raises.
    """
    q = quotient_matrix(graph, partition)
    # rows of the quotient sum to the valency, so it bounds every root
    roots, residual = integer_roots(q.charpoly(), root_bound=graph.degree)
    if len(residual) != 1:
        raise ArithmeticError("quotient has a non-integer eigenvalue")
    return sorted(roots, reverse=True)


def _point_generators(points: int) -> list[tuple[int, ...]]:
    """(0 1) and (0 1 ... points-1), which generate the symmetric group."""
    return [(1, 0) + tuple(range(2, points)), tuple(range(1, points)) + (0,)]


def derangement_spectrum(graph: DerangementGraph) -> Spectrum:
    """Certified spectrum of the derangement graph on matchings of K_{2k}.

    The union-cycle-type partition around the base matching is the
    quotient, and the point relabellings (0 1) and (0 1 ... 2k-1) carry
    the base matching everywhere.
    """
    k = graph.k
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if k > SPECTRUM_CAP:
        raise CapExceeded("spectrum", k, SPECTRUM_CAP)
    partition = orbit_partition(graph)
    relabellings = [
        induced_vertex_permutation(graph, sigma, verify=False)
        for sigma in _point_generators(2 * k)
    ]
    candidates = quotient_eigenvalue_candidates(graph, partition)
    return certified_spectrum(graph, partition, relabellings, candidates)


# ---------------------------------------------------------------------------
# subset-disjointness (Kneser) spectra


def kneser_eigenvalues(n: int, k: int) -> Spectrum:
    """Closed-form spectrum of the disjointness graph on k-subsets.

    Eigenvalues (-1)^i C(n-k-i, k-i) with multiplicities
    C(n,i) - C(n,i-1), for i = 0..k.
    """
    if k < 1 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 2, got n={n}, k={k}")
    pairs: dict[int, int] = {}
    for i in range(k + 1):
        val = (-1) ** i * comb(n - k - i, k - i)
        mult = comb(n, i) - (comb(n, i - 1) if i else 0)
        pairs[val] = pairs.get(val, 0) + mult
    eigs = tuple(sorted(pairs.items(), reverse=True))
    return Spectrum(n=comb(n, k), eigenvalues=eigs)


def kneser_spectrum_direct(n: int, k: int) -> Spectrum:
    """Spectrum of the same graph proved on its adjacency rows.

    The cells hold the subsets by their intersection size with the base
    subset {0, ..., k-1}, and the candidates are the roots of that
    quotient, so nothing is taken from the closed form it is checked
    against.
    """
    g = KneserGraph(n, k)
    meets = [sum(x < k for x in s) for s in g.subsets]
    sizes = sorted(set(meets), reverse=True)
    partition = VertexPartition(
        labels=tuple(f"meets base in {t}" for t in sizes),
        masks=tuple(
            sum(1 << i for i, t in enumerate(meets) if t == size) for size in sizes
        ),
    )
    index = {s: i for i, s in enumerate(g.subsets)}
    relabellings = [
        [index[tuple(sorted(sigma[x] for x in s))] for s in g.subsets]
        for sigma in _point_generators(n)
    ]
    candidates = quotient_eigenvalue_candidates(g, partition)
    return certified_spectrum(g, partition, relabellings, candidates)


# ---------------------------------------------------------------------------
# ratio bound and its tightness certificate


def ratio_bound(v: int, degree: int, least) -> Fraction:
    """Coclique bound v/(1 - d/tau) for a d-regular graph, exact."""
    tau = Fraction(least)
    if tau >= 0:
        raise ValueError("least eigenvalue must be negative")
    return Fraction(v) / (1 - Fraction(degree) / tau)


@dataclass(frozen=True)
class TightnessCertificate:
    k: int
    edge: tuple[int, int]
    eigenvalue: Fraction
    vertices_checked: int
    holds: bool


def ratio_tightness_certificate(
    graph: DerangementGraph, e: tuple[int, int] = (0, 1)
) -> TightnessCertificate:
    """Check that a canonical coclique's shifted indicator is an eigenvector.

    For the coclique S of matchings through edge ``e`` the claim is
    A (v_S - 1/(2k-1) 1) = tau (v_S - 1/(2k-1) 1) with
    tau = -d/(2k-2).  Scaling by 2k-1 clears denominators, so the check
    runs in integers: every vertex must see |N(v) & S| neighbors inside S
    matching the two-cell quotient exactly.
    """
    k = graph.k
    d = graph.degree
    tau = Fraction(-d, 2 * k - 2)
    e = (min(e), max(e))
    mask = graph.edge_masks[e]
    den = tau.denominator
    ok = True
    for i in range(graph.n_vertices):
        inside = (graph.rows[i] & mask).bit_count()
        # w = (2k-1) v_S - 1 has entries 2k-2 on S and -1 off it
        w_i = (2 * k - 2) if mask >> i & 1 else -1
        lhs = (2 * k - 1) * inside - d
        if lhs * den != tau.numerator * w_i:
            ok = False
            break
    return TightnessCertificate(
        k=k,
        edge=e,
        eigenvalue=tau,
        vertices_checked=graph.n_vertices,
        holds=ok,
    )


# ---------------------------------------------------------------------------
# module labels


@dataclass(frozen=True)
class LabelAssignment:
    label: Partition  # a partition of 2k with even parts... (doubled shape)
    dimension: int
    candidates: tuple[int, ...]
    eigenvalue: int | None  # set when every consistent assignment agrees
    certain: bool


@dataclass(frozen=True)
class ModuleLabeling:
    k: int
    spectrum: Spectrum
    assignments: tuple[LabelAssignment, ...]
    solution_count: int


def module_labeling(k: int, spec: Spectrum) -> ModuleLabeling:
    """Match doubled-shape module dimensions to eigenvalue multiplicities.

    Each eigenvalue's eigenspace must decompose into modules whose hook
    dimensions sum to its multiplicity, one module per doubled shape.
    All exact covers are enumerated; a label is ``certain`` when every
    cover gives it the same eigenvalue.  The trivial shape always carries
    the valency, and the [2k-2,2] shape the least eigenvalue; both facts
    are asserted rather than assumed.
    """
    labels = matching_scheme_labels(k)
    dims = [hook_dimension(lbl) for lbl in labels]
    if sum(dims) != spec.n:
        raise ArithmeticError("module dimensions do not sum to the vertex count")
    values = [v for v, _ in spec.eigenvalues]
    caps = {v: m for v, m in spec.eigenvalues}

    solutions: list[tuple[int, ...]] = []
    order = sorted(range(len(labels)), key=lambda i: -dims[i])
    assign = [0] * len(labels)

    def place(pos: int, remaining: dict[int, int]) -> None:
        if pos == len(order):
            solutions.append(tuple(assign))
            return
        i = order[pos]
        for v in values:
            if remaining[v] >= dims[i]:
                remaining[v] -= dims[i]
                assign[i] = v
                place(pos + 1, remaining)
                remaining[v] += dims[i]

    place(0, dict(caps))
    if not solutions:
        raise ArithmeticError("no consistent assignment of modules to eigenvalues")

    d = spec.largest
    tau_forced = Fraction(-d, 2 * k - 2)
    out = []
    for i, lbl in enumerate(labels):
        cands = tuple(sorted({sol[i] for sol in solutions}, reverse=True))
        certain = len(cands) == 1
        value = cands[0] if certain else None
        out.append(
            LabelAssignment(
                label=lbl,
                dimension=dims[i],
                candidates=cands,
                eigenvalue=value,
                certain=certain,
            )
        )
        if lbl == Partition([2 * k]):
            if not (certain and value == d):
                raise ArithmeticError("trivial module not pinned to the valency")
        if k >= 2 and lbl == Partition([2 * k - 2, 2]):
            if not certain or Fraction(value) != tau_forced:
                raise ArithmeticError(
                    "[2k-2,2] module not pinned to the least eigenvalue"
                )
    return ModuleLabeling(
        k=k,
        spectrum=spec,
        assignments=tuple(out),
        solution_count=len(solutions),
    )


# ---------------------------------------------------------------------------
# trace identity and the strict eigenvalue bound


@dataclass(frozen=True)
class BoundLine:
    label: Partition
    dimension: int
    candidates: tuple[int, ...]
    bound: Fraction
    exempt: bool
    strict_ok: bool


@dataclass(frozen=True)
class TraceSquareReport:
    k: int
    lhs: int
    rhs: int
    identity_holds: bool
    lines: tuple[BoundLine, ...]
    all_strict: bool


def trace_square_check(lab: ModuleLabeling) -> TraceSquareReport:
    """Sum of dim * eigenvalue^2 against n*d, plus the strict-bound table.

    The identity part is insensitive to any ambiguity in the labeling
    (it only needs the multiplicities).  The bound table asks, for every
    label other than the trivial and [2k-2,2] ones, whether every
    candidate eigenvalue satisfies |value| < d/(2k-2); failures are
    reported, not hidden.
    """
    k = lab.k
    spec = lab.spectrum
    d = spec.largest
    n = spec.n
    lhs = spec.moment(2)
    rhs = n * d
    bound = Fraction(d, 2 * k - 2)
    exempt_labels = {Partition([2 * k]), Partition([2 * k - 2, 2])}
    lines = []
    all_strict = True
    for a in lab.assignments:
        exempt = a.label in exempt_labels
        strict = all(abs(v) < bound for v in a.candidates)
        if not exempt and not strict:
            all_strict = False
        lines.append(
            BoundLine(
                label=a.label,
                dimension=a.dimension,
                candidates=a.candidates,
                bound=bound,
                exempt=exempt,
                strict_ok=strict,
            )
        )
    return TraceSquareReport(
        k=k,
        lhs=lhs,
        rhs=rhs,
        identity_holds=lhs == rhs,
        lines=tuple(lines),
        all_strict=all_strict,
    )


# ---------------------------------------------------------------------------
# character sums over the derangement coset union


@dataclass(frozen=True)
class CharacterSumResult:
    k: int
    label: Partition
    raw_sum: int
    group_elements: int  # permutations moving the base matching off itself
    calibrated: Fraction  # raw / (2^k k!)
    rescaled: Fraction  # raw * d / (2^k k!), the overcounting variant


def derangement_class_counts(k: int) -> dict[Partition, int]:
    """Cycle-type census of permutations mapping a matching to a disjoint one.

    Iterates the whole symmetric group on 2k points, so the cap is low;
    the census is what every character sum is computed from.
    """
    if k > 4:
        raise CapExceeded("symmetric group iteration", k, 4)
    from itertools import permutations

    counts: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(2 * k)):
        disjoint = True
        for i in range(k):
            if perm[2 * i] // 2 == perm[2 * i + 1] // 2:
                disjoint = False
                break
        if not disjoint:
            continue
        seen = [False] * (2 * k)
        parts = []
        for s in range(2 * k):
            if seen[s]:
                continue
            ln = 0
            t = s
            while not seen[t]:
                seen[t] = True
                t = perm[t]
                ln += 1
            parts.append(ln)
        key = tuple(sorted(parts, reverse=True))
        counts[key] = counts.get(key, 0) + 1
    return {Partition(t): c for t, c in counts.items()}


def character_sum_eigenvalue(
    k: int, label: Partition, census: dict[Partition, int] | None = None
) -> CharacterSumResult:
    """Character sum over derangement permutations, both normalizations.

    The sum S = sum chi(x) over all x in Sym(2k) carrying the base
    matching to an edge-disjoint one.  Dividing by the matching
    stabilizer order 2^k k! yields the eigenvalue for that module; the
    variant additionally multiplied by the valency is also reported so
    the failure of that normalization can be demonstrated instead of
    debated.  Pass a precomputed census to amortize the group iteration
    across labels.
    """
    label = Partition(label)
    if label.n != 2 * k:
        raise ValueError(f"label must be a partition of {2 * k}")
    if census is None:
        census = derangement_class_counts(k)
    raw = 0
    total = 0
    for ctype, cnt in sorted(census.items()):
        raw += cnt * character(label, ctype)
        total += cnt
    stab = 2**k
    for i in range(1, k + 1):
        stab *= i
    d = degree_formula(k)
    return CharacterSumResult(
        k=k,
        label=label,
        raw_sum=raw,
        group_elements=total,
        calibrated=Fraction(raw, stab),
        rescaled=Fraction(raw * d, stab),
    )


__all__ = [
    "BoundLine",
    "CharacterSumResult",
    "LabelAssignment",
    "ModuleLabeling",
    "SPECTRUM_CAP",
    "Spectrum",
    "TightnessCertificate",
    "TraceSquareReport",
    "certified_spectrum",
    "character_sum_eigenvalue",
    "derangement_class_counts",
    "derangement_spectrum",
    "kneser_eigenvalues",
    "kneser_spectrum_direct",
    "module_labeling",
    "quotient_eigenvalue_candidates",
    "ratio_bound",
    "ratio_tightness_certificate",
    "trace_square_check",
]
