"""Symmetric group characters, dimensions, branching.

Oracles: a standard-Young-tableaux counter (for dimensions), hand-frozen
character tables for Sym(3) and Sym(4), and the defining orthogonality
relations with independently computed class sizes.
"""

import math
from itertools import permutations

import pytest

from pmdg.characters import (
    add_box,
    character,
    closed_form_degrees,
    conjugacy_class_size,
    hook_dimension,
    hook_lengths,
    matching_scheme_labels,
    remove_box,
    small_degree_partitions,
)
from pmdg.matchings import matching_count
from pmdg.partitions import Partition, partitions_of


def count_syt(shape):
    """Standard tableaux counted by direct recursion on the last entry."""
    shape = tuple(shape)
    if sum(shape) == 0:
        return 1
    total = 0
    for i in range(len(shape)):
        if shape[i] and (i == len(shape) - 1 or shape[i] > shape[i + 1]):
            smaller = tuple(s - (1 if j == i else 0) for j, s in enumerate(shape))
            total += count_syt(tuple(s for s in smaller if s))
    return total


@pytest.mark.parametrize("n", range(1, 9))
def test_hook_dimension_matches_tableaux_count(n):
    for p in partitions_of(n):
        assert hook_dimension(p) == count_syt(p)


def test_hook_lengths_hand_case():
    assert hook_lengths(Partition([3, 2])) == [[4, 3, 1], [2, 1]]
    assert hook_dimension(Partition([3, 2])) == 5
    assert hook_dimension(Partition([5, 5])) == 42  # Catalan number C_5


def test_dimension_conjugate_symmetry():
    for n in range(1, 13):
        for p in partitions_of(n):
            assert hook_dimension(p) == hook_dimension(p.conjugate())


@pytest.mark.parametrize("n", range(1, 11))
def test_dimension_squares_sum_to_factorial(n):
    assert sum(hook_dimension(p) ** 2 for p in partitions_of(n)) == math.factorial(n)


S3_TABLE = {
    # rows: shape; columns: class [1,1,1], [2,1], [3]
    (3,): [1, 1, 1],
    (2, 1): [2, 0, -1],
    (1, 1, 1): [1, -1, 1],
}

S4_TABLE = {
    # columns: class [1^4], [2,1,1], [2,2], [3,1], [4]
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


def test_sym3_character_table():
    classes = [Partition([1, 1, 1]), Partition([2, 1]), Partition([3])]
    for shape, row in S3_TABLE.items():
        assert [character(Partition(shape), c) for c in classes] == row


def test_sym4_character_table():
    classes = [Partition(t) for t in ([1] * 4, [2, 1, 1], [2, 2], [3, 1], [4])]
    for shape, row in S4_TABLE.items():
        assert [character(Partition(shape), c) for c in classes] == row


def test_character_hand_values():
    assert character(Partition([1, 1, 1]), Partition([2, 1])) == -1
    assert character(Partition([2, 1]), Partition([3])) == -1


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character(Partition([2, 1]), Partition([2, 2]))


def test_character_at_identity_is_dimension():
    for n in range(1, 11):
        ident = Partition([1] * n)
        for p in partitions_of(n):
            assert character(p, ident) == hook_dimension(p)


def test_conjugacy_class_sizes():
    assert conjugacy_class_size(Partition([1, 1, 1])) == 1
    assert conjugacy_class_size(Partition([2, 1])) == 3
    assert conjugacy_class_size(Partition([3])) == 2
    assert conjugacy_class_size(Partition([2, 2])) == 3
    for n in range(1, 9):
        assert sum(conjugacy_class_size(p) for p in partitions_of(n)) == math.factorial(n)


def brute_class_size(cycle_type):
    n = sum(cycle_type)
    want = tuple(sorted(cycle_type, reverse=True))
    count = 0
    for perm in permutations(range(n)):
        seen = [False] * n
        lens = []
        for s in range(n):
            if seen[s]:
                continue
            ln, v = 0, s
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                ln += 1
            lens.append(ln)
        if tuple(sorted(lens, reverse=True)) == want:
            count += 1
    return count


def test_class_size_against_brute_force():
    for p in partitions_of(5):
        assert conjugacy_class_size(p) == brute_class_size(p)


@pytest.mark.parametrize("n", range(2, 9))
def test_column_orthogonality(n):
    shapes = partitions_of(n)
    classes = partitions_of(n)
    for i, mu in enumerate(classes):
        for nu in classes[i + 1:]:
            assert sum(character(s, mu) * character(s, nu) for s in shapes) == 0
        # the same-column sum is the centraliser order
        assert sum(character(s, mu) ** 2 for s in shapes) == \
            math.factorial(n) // conjugacy_class_size(mu)


def test_row_orthogonality_n6():
    n = 6
    shapes = partitions_of(n)
    classes = [(p, conjugacy_class_size(p)) for p in partitions_of(n)]
    for i, a in enumerate(shapes):
        for b in shapes[i:]:
            dot = sum(sz * character(a, c) * character(b, c) for c, sz in classes)
            assert dot == (math.factorial(n) if a == b else 0)


def test_remove_box():
    assert remove_box(Partition([5])) == [(4,)]
    assert remove_box(Partition([2, 1])) == [(1, 1), (2,)]
    assert remove_box(Partition([3, 3, 1])) == [(3, 2, 1), (3, 3)]


def test_add_box():
    assert add_box(Partition([2, 2])) == [(3, 2), (2, 2, 1)]
    assert add_box(Partition([1])) == [(2,), (1, 1)]


def test_boxes_are_inverse_operations():
    for n in range(1, 8):
        for p in partitions_of(n):
            for q in add_box(p):
                assert p in remove_box(q)
            for q in remove_box(p):
                assert p in add_box(q)


def test_branching_dimension_identity():
    for n in range(2, 13):
        for p in partitions_of(n):
            assert hook_dimension(p) == sum(hook_dimension(q) for q in remove_box(p))


def the_eight(n):
    return {
        Partition([n]), Partition([1] * n),
        Partition([n - 1, 1]), Partition([2] + [1] * (n - 2)),
        Partition([n - 2, 2]), Partition([2, 2] + [1] * (n - 4)),
        Partition([n - 2, 1, 1]), Partition([3] + [1] * (n - 3)),
    }


@pytest.mark.parametrize("n", [9, 11, 12, 13])
def test_small_degree_classification_clean_sizes(n):
    got = set(small_degree_partitions(n))
    assert got == the_eight(n)


def test_small_degree_classification_n10_has_two_extras():
    # the 2x5 rectangle and its conjugate sit at dimension 42, under the
    # bound (100 - 10)/2 = 45, so the eight-shape list does not hold here
    got = set(small_degree_partitions(10))
    assert got == the_eight(10) | {Partition([5, 5]), Partition([2, 2, 2, 2, 2])}
    assert hook_dimension(Partition([5, 5])) == 42


def test_small_degree_dimensions_n10():
    dims = sorted(hook_dimension(p) for p in the_eight(10))
    assert dims == [1, 1, 9, 9, 35, 35, 36, 36]
    assert all(d < 45 for d in dims)


def test_small_degree_rejects_small_n():
    with pytest.raises(ValueError):
        small_degree_partitions(8)


CONSTITUENT_ROWS = [
    # induced constituents of each small shape, one row per shape
    (lambda n: [n], lambda n: {(n + 1,), (n, 1)}),
    (lambda n: [n - 1, 1], lambda n: {(n, 1), (n - 1, 2), (n - 1, 1, 1)}),
    (lambda n: [n - 2, 2], lambda n: {(n - 1, 2), (n - 2, 3), (n - 2, 2, 1)}),
    (lambda n: [n - 2, 1, 1], lambda n: {(n - 1, 1, 1), (n - 2, 2, 1), (n - 2, 1, 1, 1)}),
    (lambda n: [1] * n, lambda n: {(2,) + (1,) * (n - 1), (1,) * (n + 1)}),
    (lambda n: [2] + [1] * (n - 2),
     lambda n: {(3,) + (1,) * (n - 2), (2, 2) + (1,) * (n - 3), (2,) + (1,) * (n - 1)}),
    (lambda n: [2, 2] + [1] * (n - 4),
     lambda n: {(3, 2) + (1,) * (n - 4), (2, 2, 2) + (1,) * (n - 5), (2, 2) + (1,) * (n - 3)}),
    (lambda n: [3] + [1] * (n - 3),
     lambda n: {(4,) + (1,) * (n - 3), (3, 2) + (1,) * (n - 4), (3,) + (1,) * (n - 2)}),
]


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_induction_constituent_table(n):
    for shape_fn, expect_fn in CONSTITUENT_ROWS:
        got = {tuple(q) for q in add_box(Partition(shape_fn(n)))}
        assert got == expect_fn(n)


def test_closed_form_degrees_hand_values():
    by_shape = {tuple(s): (c, h) for s, c, h in closed_form_degrees(9)}
    assert by_shape[(7, 3)] == (75, 75)
    assert by_shape[(7, 2, 1)] == (160, 160)
    by_shape = {tuple(s): (c, h) for s, c, h in closed_form_degrees(10)}
    assert by_shape[(8, 1, 1, 1)] == (120, 120)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_closed_forms_match_hooks_and_exceed_bound(n):
    rows = closed_form_degrees(n)
    assert len(rows) == 6
    for shape, closed, hook in rows:
        assert shape.n == n + 1
        assert closed == hook
        assert closed > (n * n + n) // 2
    with pytest.raises(ValueError):
        closed_form_degrees(8)


def test_matching_scheme_labels():
    assert [tuple(p) for p in matching_scheme_labels(3)] == [(6,), (4, 2), (2, 2, 2)]
    for k in range(1, 7):
        labels = matching_scheme_labels(k)
        # the module dimensions add up to (2k-1)!!, the vertex count
        assert sum(hook_dimension(p) for p in labels) == matching_count(k)
        assert all(all(part % 2 == 0 for part in p) for p in labels)

