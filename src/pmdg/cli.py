"""Command-line front end: run verification pipelines, emit reports.

Every command produces a flat list of verification records rendered as
text, JSON, or CSV.  Output is deterministic for fixed inputs; elapsed
times are all zero unless --timings is given, precisely so that byte
identity holds across runs.  Exit codes: 0 when no record failed, 1 when
one did, 2 on usage errors (including an out-of-range or empty
selection), 3 when a size cap was hit (the message names the cap).  Codes
2 and 3 are decided from the command table before any work starts.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from math import comb, factorial

from .cayley import (
    coclique_linegraph_map,
    induced_vertex_permutation,
    non_cayley_verdict,
)
from .characters import (
    closed_form_degrees,
    hook_dimension,
    matching_scheme_labels,
    remove_box,
    small_degree_partitions,
)
from .exact import ExactMatrix
from .graphs import (
    GRAPH_CAP,
    SUBSET_GRAPH_CAP,
    build_graph,
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
)
from .matchings import CapExceeded, double_factorial, enumerate_matchings, matching_count
from .partitions import partition_count, partitions_of, iter_partitions
from .polytope import (
    facet_classification_check,
    facet_size,
    facet_size_by_counting,
    gram_identity_check,
    gram_matrix,
    incidence_matrix,
    polytope_membership,
    rank_U,
)
from .records import RENDERERS, VerificationRecord, check, skipped
from .spectra import (
    SPECTRUM_CAP,
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

# largest k whose p(2k) partition scan runs: p(60) = 966,467 cycle types,
# scanned in 1.7-2.2 s on a shared 2-core x86 VM; p(2k) grows without
# bound and p(400) is about 6.7e18
SCAN_CAP = 30


class _Clock:
    """Millisecond timer that reads zero when timings are disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.last = time.monotonic()

    def mark(self) -> int:
        now = time.monotonic()
        ms = int((now - self.last) * 1000)
        self.last = now
        return ms if self.enabled else 0


# Each stage maps (selection, graph, cocliques, clock) to records.
# ``graph(k)`` hands out M(2k) and ``cocliques(k)`` the result of its
# maximum-coclique search, each computed on first use and shared by every
# later stage.


def _counts(ks, graph, cocliques, clock) -> list[VerificationRecord]:
    out = []
    for k in ks:
        expected = double_factorial(2 * k - 1)
        if k <= 7:
            got = sum(1 for _ in enumerate_matchings(k))
            out.append(check("matching-count", {"k": k}, expected, got, clock.mark()))
        else:
            out.append(skipped("matching-count", {"k": k}, "enumeration capped at k=7"))
        d = degree_formula(k)
        if k <= 6:
            out.append(
                check("degree-formula-vs-enumeration", {"k": k}, d,
                      degree_by_enumeration(k), clock.mark())
            )
        # both claims hold from k=2; at k=1 the two terms are 1 and 1
        if k >= 2:
            terms = degree_terms(k)
            decreasing = all(a > b for a, b in zip(terms, terms[1:]))
            out.append(
                check("degree-terms-strictly-decreasing", {"k": k}, True, decreasing,
                      clock.mark())
            )
            out.append(
                check("degree-exceeds-union-bound", {"k": k}, True,
                      degree_lower_bound_check(k), clock.mark())
            )
        out.append(
            check("partition-count", {"n": 2 * k}, partition_count(2 * k),
                  sum(1 for _ in iter_partitions(2 * k)), clock.mark())
        )
    return out


def _graph(ks, graph, cocliques, clock) -> list[VerificationRecord]:
    out = []
    for k in ks:
        g = graph(k)
        d = degree_formula(k)
        out.append(check("graph-degree", {"k": k}, d, g.degree, clock.mark()))
        if k <= 5:
            out.append(check("graph-regular", {"k": k}, True, g.is_regular(), clock.mark()))
        rounds = one_factorization_clique(k)
        out.append(
            check("one-factorization-rounds", {"k": k}, 2 * k - 1, len(rounds), clock.mark())
        )
        if k >= 2:
            q = quotient_matrix(g, canonical_partition(g, (0, 1)))
            expect = ExactMatrix(
                [
                    [0, d],
                    [Fraction(d, 2 * k - 2), Fraction((2 * k - 3) * d, 2 * k - 2)],
                ]
            )
            out.append(
                check("edge-coclique-quotient", {"k": k}, expect.to_text(), q.to_text(),
                      clock.mark())
            )
        oq = quotient_matrix(g, orbit_partition(g))
        rows_ok = all(sum(row) == d for row in oq.rows)
        out.append(
            check("orbit-quotient-rows-sum-to-degree", {"k": k}, True, rows_ok, clock.mark())
        )
        if k <= 4:
            sigmas = [
                tuple(range(2 * k))[::-1],
                (1, 0) + tuple(range(2, 2 * k)),
                tuple(range(1, 2 * k)) + (0,),
            ]
            ok = True
            for s in sigmas:
                try:
                    induced_vertex_permutation(g, s, verify=True)
                except AssertionError:
                    ok = False
            out.append(
                check("point-relabelling-is-automorphism", {"k": k, "sigmas": len(sigmas)},
                      True, ok, clock.mark())
            )
    return out


def _ekr(ks, graph, cocliques, clock) -> list[VerificationRecord]:
    out = []
    for k in ks:
        g = graph(k)
        alpha, maximum = cocliques(k)
        out.append(
            check("coclique-number", {"k": k}, double_factorial(2 * k - 3), alpha,
                  clock.mark())
        )
        expected_count = comb(2 * k, 2) if k >= 3 else 3
        out.append(
            check("maximum-coclique-count", {"k": k}, expected_count, len(maximum),
                  clock.mark())
        )
        canon_masks = set(g.edge_masks.values())
        all_canon = all(
            sum(1 << i for i in c) in canon_masks for c in maximum
        )
        out.append(
            check("maximum-cocliques-all-canonical", {"k": k}, True, all_canon, clock.mark())
        )
        rec = clique_coclique_check(g, certified_alpha=alpha)
        out.append(
            check("clique-coclique-tight", {"k": k}, g.n_vertices, rec.product, clock.mark())
        )
        out.append(
            check("clique-number", {"k": k}, 2 * k - 1, rec.clique_number, clock.mark())
        )
        cert = ratio_tightness_certificate(g)
        out.append(
            check("coclique-vector-is-eigenvector",
                  {"k": k, "eigenvalue": cert.eigenvalue},
                  True, cert.holds, clock.mark())
        )
        rb = ratio_bound(g.n_vertices, g.degree, Fraction(-g.degree, 2 * k - 2))
        out.append(
            check("ratio-bound-value", {"k": k}, double_factorial(2 * k - 3), rb,
                  clock.mark())
        )
    return out


def _spectra(ks, graph, cocliques, clock) -> list[VerificationRecord]:
    out = []
    for k in ks:
        spec = derangement_spectrum(graph(k))
        d = degree_formula(k)
        n = matching_count(k)
        out.append(
            check("spectrum-value", {"k": k}, str(spec), str(spec), clock.mark())
        )
        out.append(
            check("largest-eigenvalue", {"k": k}, d, spec.largest, clock.mark())
        )
        tau = Fraction(-d, 2 * k - 2)
        out.append(check("least-eigenvalue", {"k": k}, tau, spec.least, clock.mark()))
        out.append(
            check("least-eigenvalue-multiplicity", {"k": k}, 2 * k * k - 3 * k,
                  spec.multiplicity(spec.least), clock.mark())
        )
        out.append(check("spectrum-size", {"k": k}, n, spec.moment(0), clock.mark()))
        out.append(check("spectrum-trace", {"k": k}, 0, spec.moment(1), clock.mark()))
        out.append(
            check("spectrum-second-moment", {"k": k}, n * d, spec.moment(2), clock.mark())
        )
        lab = module_labeling(k, spec)
        out.append(
            check("module-dimensions-cover", {"k": k}, True,
                  lab.solution_count >= 1, clock.mark())
        )
        tr = trace_square_check(lab)
        out.append(
            check("trace-square-identity", {"k": k}, tr.rhs, tr.lhs, clock.mark())
        )
        out.append(
            check("strict-bound-nonexempt-labels", {"k": k}, True, tr.all_strict,
                  clock.mark())
        )
        if k <= 4:
            census = derangement_class_counts(k)
            by_label = {a.label: a for a in lab.assignments}
            for lbl in matching_scheme_labels(k):
                r = character_sum_eigenvalue(k, lbl, census)
                cands = by_label[lbl].candidates
                out.append(
                    check("character-sum-in-label-candidates",
                          {"k": k, "label": str(lbl)},
                          True, r.calibrated in [Fraction(c) for c in cands],
                          clock.mark())
                )
            trivial = character_sum_eigenvalue(k, matching_scheme_labels(k)[0], census)
            out.append(
                check("character-sum-trivial-calibrated", {"k": k}, d,
                      trivial.calibrated, clock.mark())
            )
            out.append(
                check("character-sum-rescaled-fails-trivial", {"k": k}, True,
                      trivial.rescaled != d, clock.mark())
            )
    # the Petersen graph rides along as a check of the subset route
    return out + _subset_spectra([(5, 2)], graph, cocliques, clock)


def _subset_spectra(pairs, graph, cocliques, clock) -> list[VerificationRecord]:
    out = []
    for n, k in pairs:
        closed = kneser_eigenvalues(n, k)
        direct = kneser_spectrum_direct(n, k)
        out.append(
            check("subset-disjointness-spectrum", {"n": n, "k": k},
                  str(closed), str(direct), clock.mark())
        )
    return out


def _polytope(ks, graph, cocliques, clock) -> list[VerificationRecord]:
    out = []
    for k in ks:
        g = graph(k)
        im = incidence_matrix(g)
        # the product route is cubic in exact rationals; run it where it is cheap
        gc = gram_identity_check(g, im if k <= 3 else None)
        out.append(
            check("gram-identity",
                  {"k": k, "diagonal": gc.diagonal, "off_diagonal": gc.off_diagonal},
                  True, gc.holds, clock.mark())
        )
        if k <= 4:
            out.append(
                check("incidence-rank", {"k": k}, 2 * k * k - 3 * k + 1, rank_U(im),
                      clock.mark())
            )
            out.append(
                check("gram-kernel-dimension", {"k": k}, 2 * k - 1, gram_matrix(g).nullity(),
                      clock.mark())
            )
        for s in range(3, 2 * k - 2, 2):
            if 2 * k <= 8:
                out.append(
                    check("odd-cut-facet-size", {"k": k, "s": s}, facet_size(s, k),
                          facet_size_by_counting(s, k), clock.mark())
                )
        if k >= 3:
            out.append(
                check("edge-facet-dominates", {"k": k}, True,
                      (2 * k - 2) * double_factorial(2 * k - 3) > facet_size(3, k),
                      clock.mark())
            )
        if 2 * k <= 10:
            edges = comb(2 * k, 2)
            bary = [Fraction(1, 2 * k - 1)] * edges
            out.append(
                check("membership-barycenter", {"k": k}, True,
                      polytope_membership(bary, k).member, clock.mark())
            )
            out.append(
                check("membership-matching-vertex", {"k": k}, True,
                      polytope_membership(list(im.u.rows[0]), k).member, clock.mark())
            )
        if k <= 4:
            fc = facet_classification_check(g, im, cocliques(k)[1])
            out.append(
                check("maximum-cocliques-are-edge-facets",
                      {"k": k, "cocliques": fc.cocliques_checked},
                      True, fc.all_canonical and fc.all_in_column_space, clock.mark())
            )
    return out


def _reps(ns, graph, cocliques, clock) -> list[VerificationRecord]:
    out = []
    for n in ns:
        if n <= 10:
            total = sum(hook_dimension(p) ** 2 for p in partitions_of(n))
            out.append(
                check("dimension-squares-sum", {"n": n}, factorial(n), total, clock.mark())
            )
        if n <= 10:
            ok = True
            for p in partitions_of(n):
                dim = hook_dimension(p)
                below = sum(hook_dimension(q) for q in remove_box(p)) if n > 1 else 1
                if n > 1 and dim != below:
                    ok = False
            out.append(
                check("branching-dimension-identity", {"n": n}, True, ok, clock.mark())
            )
        if 9 <= n <= 13:
            small = small_degree_partitions(n)
            out.append(
                check("small-degree-count", {"n": n}, 8, len(small), clock.mark())
            )
        if 9 <= n <= 12:
            rows = closed_form_degrees(n)
            ok = all(closed == hook for _, closed, hook in rows)
            out.append(
                check("closed-form-degrees-match-hooks", {"n": n}, True, ok, clock.mark())
            )
    return out


def _cayley(ks, graph, cocliques, clock) -> list[VerificationRecord]:
    out = []
    for k in ks:
        # the automorphism search stops at k=4; past it that link is cited
        g = graph(k) if k <= 4 else None
        verdict = non_cayley_verdict(k, g)
        # each link timed its own work; restart the clock for the records after
        clock.mark()
        for link in verdict.links:
            if link.status == "cited":
                out.append(skipped(f"cayley-{link.link}", {"k": k}, link.statement))
            else:
                out.append(
                    check(f"cayley-{link.link}", {"k": k, "witness": link.witness},
                          "pass", link.status, link.elapsed_ms if clock.enabled else 0)
                )
        out.append(
            check("cayley-obstruction-complete", {"k": k}, False,
                  verdict.is_cayley_possible, clock.mark())
        )
        if g is not None:
            sigma = (1, 0) + tuple(range(2, 2 * k))
            phi = induced_vertex_permutation(g, sigma)
            lg = coclique_linegraph_map(g, phi)
            out.append(
                check("automorphism-induces-edge-permutation", {"k": k}, True,
                      lg.preserves_sharing and lg.preserves_disjointness, clock.mark())
            )
    return out


# command -> (parameter, stage, default range, lowest valid value,
#             highest valid value or None, caps as (what, highest value))
# A value outside the valid range, or an empty selection, exits 2; a value
# past a cap exits 3.  `all` runs every other command in table order: the
# k stages at the selected k from their own default start, reps at its
# default range.
COMMANDS = {
    "counts": ("k", _counts, range(2, 6), 1, None, (("partition scan", SCAN_CAP),)),
    "graph": ("k", _graph, range(2, 5), 1, None, (("graph build", GRAPH_CAP),)),
    "ekr": ("k", _ekr, range(3, 5), 2, None, (("coclique search", 5),)),
    "spectra": ("k", _spectra, range(2, 5), 2, None, (("spectrum", SPECTRUM_CAP),)),
    "polytope": ("k", _polytope, range(2, 5), 2, None, (("polytope checks", 5),)),
    "reps": ("n", _reps, range(1, 13), 1, 13, ()),
    "cayley": ("k", _cayley, range(3, 5), 3, None, (("cycle-type scan", SCAN_CAP),)),
    "all": ("k", None, range(2, 5), 2, None, ()),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pmdg",
        description=(
            "Exact verification suite for the perfect matching derangement "
            "graph: counts, spectra, extremal cocliques, polytope facets, "
            "and the non-Cayley obstruction."
        ),
    )
    p.add_argument("command", choices=list(COMMANDS))
    ks = p.add_mutually_exclusive_group()
    ks.add_argument("--k", type=int, default=None, help="half the number of points")
    ks.add_argument("--max-k", type=int, default=None, dest="max_k",
                    help="upper end of the k range (default: the command's own)")
    p.add_argument("--n", type=int, default=None,
                   help="symmetric group degree (reps) or ground set size (spectra)")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--out", type=str, default=None, help="write the report to a file")
    p.add_argument("--timings", action="store_true",
                   help="include real elapsed milliseconds (breaks byte determinism)")
    return p


def _selection(parser, args, name: str) -> range:
    """The k values (n for reps) that ``name`` runs at; exits 2 if invalid."""
    param, _, default, lowest, highest, _ = COMMANDS[name]
    if param == "n":
        if args.k is not None or args.max_k is not None:
            parser.error(f"{name} takes --n, not --k or --max-k")
        sel = default if args.n is None else range(args.n, args.n + 1)
    else:
        if args.n is not None:
            parser.error(f"{name} takes --k or --max-k, not --n")
        if args.k is not None:
            sel = range(args.k, args.k + 1)
        elif args.max_k is not None:
            sel = range(default.start, args.max_k + 1)
        else:
            sel = default
    if not sel:
        parser.error(f"{name} selects no {param}: its range starts at {default.start}")
    if sel[0] < lowest:
        parser.error(f"{name} needs {param} >= {lowest}, got {param}={sel[0]}")
    if highest is not None and sel[-1] > highest:
        parser.error(f"{name} needs {param} <= {highest}, got {param}={sel[-1]}")
    return sel


def _plan(parser, args) -> list:
    """(stage, selection) pairs in run order, checked before any work.

    A usage error exits through ``parser.error``; a selection past a cap
    raises :class:`CapExceeded`.
    """
    name = args.command
    if name == "spectra" and args.n is not None:
        if args.k is None:
            parser.error("spectra --n selects a subset-disjointness graph and needs --k")
        if args.k < 1 or args.n < 2 * args.k:
            parser.error(
                f"subset spectra need n >= 2k >= 2, got n={args.n}, k={args.k}"
            )
        # C(n, k) >= n here, and a huge binomial is slow even to form
        if args.n > SUBSET_GRAPH_CAP:
            raise CapExceeded("subset ground set", args.n, SUBSET_GRAPH_CAP)
        size = comb(args.n, args.k)
        if size > SUBSET_GRAPH_CAP:
            raise CapExceeded("subset graph build", size, SUBSET_GRAPH_CAP)
        return [(_subset_spectra, [(args.n, args.k)])]
    sel = _selection(parser, args, name)
    if name == "all":
        parts = []
        for part, (param, _, default, *_) in COMMANDS.items():
            if part != "all":
                parts.append(
                    (part, default if param == "n"
                     else range(max(sel.start, default.start), sel.stop))
                )
    else:
        parts = [(name, sel)]
    plan = []
    for part, part_sel in parts:
        _, stage, _, _, _, caps = COMMANDS[part]
        for what, cap in caps:
            if part_sel and part_sel[-1] > cap:
                raise CapExceeded(what, part_sel[-1], cap)
        plan.append((stage, part_sel))
    return plan


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        plan = _plan(parser, args)
    except SystemExit as e:
        return int(e.code or 0)
    except CapExceeded as e:
        print(f"pmdg: {e}", file=sys.stderr)
        return 3

    graphs, searches = {}, {}

    def graph(k: int):
        if k not in graphs:
            graphs[k] = build_graph(k)
        return graphs[k]

    def cocliques(k: int):
        if k not in searches:
            searches[k] = enumerate_maximum_cocliques(graph(k))
        return searches[k]

    clock = _Clock(args.timings)
    records = []
    for stage, sel in plan:
        records += stage(sel, graph, cocliques, clock)

    text = RENDERERS[args.format](records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left early (`pmdg ... | head`); the report's code
            # still stands, and stdout goes to devnull so that the flush at
            # interpreter exit does not raise a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(r.status != "fail" for r in records) else 1


__all__ = ["COMMANDS", "build_parser", "run"]
