"""Exact spectra of the derangement graph and the machinery around them.

Eigenvalues come from two independent directions: equitable quotients
supply candidates, and exact kernel ranks on the full adjacency matrix
certify each multiplicity, with the dimension count guaranteeing nothing
was missed.  The 945-vertex case replaces elimination (hopeless at that
size in exact rationals) by a Chinese-remainder annihilation certificate
plus power-sum bookkeeping; every float64 product is kept inside the
range where it is exact integer arithmetic, so no precision is lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .characters import character, hook_dimension, matching_scheme_labels
from .exact import ExactMatrix, integer_roots, solve
from .graphs import (
    DerangementGraph,
    KneserGraph,
    degree_formula,
    orbit_partition,
    quotient_matrix,
)
from .matchings import CapExceeded
from .partitions import Partition

# the modular certificate handles 945 vertices; beyond k=5 there is no route
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


def integer_spectrum(a: ExactMatrix, root_bound: int | None = None) -> Spectrum:
    """Full spectrum of a matrix known to have only integer eigenvalues.

    Factors the characteristic polynomial over the integers and insists
    the factorization is complete; anything irrational left over raises.
    """
    coeffs = a.charpoly()
    roots, residual = integer_roots(coeffs, root_bound=root_bound)
    if len(residual) != 1:
        raise ArithmeticError(
            "matrix has eigenvalues outside the integers; "
            f"residual degree {len(residual) - 1}"
        )
    total = sum(roots.values())
    if total != a.nrows:
        raise ArithmeticError(f"only {total} of {a.nrows} eigenvalues found")
    eigs = tuple(sorted(roots.items(), reverse=True))
    return Spectrum(n=a.nrows, eigenvalues=eigs)


def eigenvalue_multiplicity(a: ExactMatrix, value: int) -> int:
    """Dimension of the eigenspace, as an exact kernel rank."""
    return a.add_scalar_diagonal(-value).nullity()


def spectrum_from_candidates(a: ExactMatrix, candidates: list[int]) -> Spectrum:
    """Certify a spectrum from candidate eigenvalues by exact kernel ranks.

    Each candidate's eigenspace dimension is computed by elimination; the
    dimensions must add up to the order of the matrix, which proves the
    candidate list was complete.
    """
    n = a.nrows
    eigs = []
    total = 0
    for v in sorted(set(candidates), reverse=True):
        m = eigenvalue_multiplicity(a, v)
        if m == 0:
            raise ArithmeticError(f"candidate {v} is not an eigenvalue")
        eigs.append((v, m))
        total += m
    if total != n:
        raise ArithmeticError(
            f"eigenspace dimensions cover {total} of {n}; candidate list incomplete"
        )
    return Spectrum(n=n, eigenvalues=tuple(eigs))


def quotient_eigenvalue_candidates(graph: DerangementGraph) -> list[int]:
    """Distinct integer eigenvalues of the union-type orbit quotient.

    The quotient of an equitable partition interlaces the graph, so its
    eigenvalues are genuine graph eigenvalues; the association scheme has
    at most as many distinct eigenvalues as the quotient has rows, so
    when the quotient's roots are distinct they are all of them.
    """
    q = quotient_matrix(graph, orbit_partition(graph))
    # rows of the quotient sum to the valency, so it bounds every root
    bound = graph.degree
    roots, residual = integer_roots(q.charpoly(), root_bound=bound)
    if len(residual) != 1:
        raise ArithmeticError("orbit quotient has a non-integer eigenvalue")
    return sorted(roots, reverse=True)


def derangement_spectrum(graph: DerangementGraph) -> Spectrum:
    """Certified spectrum of the derangement graph on matchings of K_{2k}.

    k <= 4 goes through exact kernel ranks.  k = 5 (945 vertices) uses
    the modular annihilation certificate in :func:`certified_spectrum_945`.
    """
    k = graph.k
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if k > SPECTRUM_CAP:
        raise CapExceeded("spectrum", k, SPECTRUM_CAP)
    candidates = quotient_eigenvalue_candidates(graph)
    if k <= 4:
        return spectrum_from_candidates(graph.adjacency_matrix(), candidates)
    return certified_spectrum_945(graph, candidates)


# ---------------------------------------------------------------------------
# modular certificate for the 945-vertex case


def _primes_below(limit: int, count: int) -> list[int]:
    out = []
    p = limit
    while len(out) < count:
        p -= 1
        if p < 2:
            raise ValueError("ran out of primes")
        if all(p % q for q in range(2, isqrt(p) + 1)):
            out.append(p)
    return out


def certified_spectrum_945(graph: DerangementGraph, candidates: list[int]) -> Spectrum:
    """Exact spectrum via an annihilation certificate and power sums.

    Two facts are proved:

    1. prod_j (A - c_j I) = 0 for the candidate list, checked modulo
       enough primes that the Chinese remainder theorem pins the exact
       integer matrix to zero (its entries are bounded by the product of
       row-sum norms).  This shows every eigenvalue is on the list.
    2. The multiplicities are read off the traces of A^0..A^m via the
       Vandermonde system in the candidates, computed in exact integer
       arithmetic from A^2 and A^3.

    numpy float64 matrix products are used only where every intermediate
    value is provably below 2^53, i.e. as exact integer arithmetic.
    """
    import numpy as np

    n = graph.n_vertices
    d = graph.degree
    cand = sorted(set(candidates), reverse=True)
    m = len(cand)

    a = np.array(graph.adjacency_int_rows(), dtype=np.float64)

    # power sums: entries of A^2 are at most n, of A^3 at most n*d, and the
    # accumulating dot products stay far below 2^53, so float64 is exact
    assert n * n < 2**53 and n * n * d < 2**53
    a2 = a @ a
    a3 = a2 @ a
    a2i = a2.astype(np.int64)
    a3i = a3.astype(np.int64)
    assert int(a2i.max()) <= n and int(a3i.max()) <= n * d
    tr = [0] * (2 * 3 + 1)
    tr[0] = n
    tr[1] = 0
    tr[2] = int(np.trace(a2i))
    tr[3] = int(np.trace(a3i))
    # higher traces through Frobenius inner products of exact powers,
    # carried out in python ints to dodge any int64 overflow question
    l2 = a2i.tolist()
    l3 = a3i.tolist()
    tr[4] = sum(x * x for row in l2 for x in row)
    tr[5] = sum(x * y for r2, r3 in zip(l2, l3) for x, y in zip(r2, r3))
    tr[6] = sum(x * x for row in l3 for x in row)
    if m > 7:
        raise ArithmeticError("power-sum table too short for candidate count")

    # Vandermonde solve in exact rationals
    vrows = [[Fraction(c) ** e for c in cand] for e in range(m)]
    res = solve(ExactMatrix(vrows), [Fraction(tr[e]) for e in range(m)])
    if res.solution is None:
        raise ArithmeticError("power-sum system is inconsistent")
    mults = []
    for c, f in zip(cand, res.solution):
        if f.denominator != 1 or f < 0:
            raise ArithmeticError(f"multiplicity of {c} came out as {f}")
        mults.append(int(f))
    if sum(mults) != n:
        raise ArithmeticError("multiplicities do not sum to the vertex count")
    for e in range(m, 7):
        if sum(mu * c**e for mu, c in zip(mults, cand)) != tr[e]:
            raise ArithmeticError(f"trace of power {e} mismatches the spectrum")

    # annihilation certificate: entries of prod (A - c I) are bounded by the
    # product of row-sum norms; CRT over primes whose product exceeds twice
    # the bound proves the exact product is the zero matrix
    bound = 1
    for c in cand:
        bound *= d + abs(c)
    need = 2 * bound + 1
    plimit = isqrt(2**53 // n) + 1
    primes: list[int] = []
    prod = 1
    limit = plimit
    while prod < need:
        p = _primes_below(limit, 1)[0]
        primes.append(p)
        prod *= p
        limit = p
    for p in primes:
        assert n * (p - 1) ** 2 < 2**53
        acc = np.mod(a - cand[0] * np.identity(n), p)
        for c in cand[1:]:
            acc = np.mod(acc @ np.mod(a - c * np.identity(n), p), p)
        if acc.any():
            raise ArithmeticError(
                f"annihilation certificate failed modulo {p}: "
                "candidate eigenvalue list is incomplete"
            )

    eigs = tuple((c, mu) for c, mu in zip(cand, mults) if mu)
    return Spectrum(n=n, eigenvalues=eigs)


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
    """Spectrum of the same graph measured on the adjacency matrix itself.

    Small cases factor the characteristic polynomial; larger ones certify
    the closed-form candidate values by kernel ranks, which is still an
    independent completeness proof (the dimensions must exhaust C(n,k)).
    """
    g = KneserGraph(n, k)
    a = g.adjacency_matrix()
    if g.n_vertices <= 36:
        return integer_spectrum(a, root_bound=g.degree)
    candidates = [v for v, _ in kneser_eigenvalues(n, k).eigenvalues]
    return spectrum_from_candidates(a, candidates)


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
    "certified_spectrum_945",
    "character_sum_eigenvalue",
    "derangement_class_counts",
    "derangement_spectrum",
    "eigenvalue_multiplicity",
    "integer_spectrum",
    "kneser_eigenvalues",
    "kneser_spectrum_direct",
    "module_labeling",
    "quotient_eigenvalue_candidates",
    "ratio_bound",
    "ratio_tightness_certificate",
    "spectrum_from_candidates",
    "trace_square_check",
]
