"""Partition container and generators against independent oracles.

The oracle for p(n) is Euler's pentagonal number recurrence, which shares
no code with either the generator or the part-bounded recurrence in the
package.  The oracle for the order is the recursive generator that the
iterative one replaced.
"""

import pytest
from hypothesis import given, strategies as st

from pmdg.partitions import Partition, iter_partitions, partition_count, partitions_of


def pentagonal_count(n: int) -> int:
    # p(m) = sum_j (-1)^(j-1) [p(m - j(3j-1)/2) + p(m - j(3j+1)/2)]
    p = [1]
    for m in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            j += 1
        p.append(total)
    return p[n]


def recursive_partitions(n, max_part=None):
    """The generator iter_partitions replaced: largest part first, recursing."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in recursive_partitions(n - first, first):
            yield (first,) + rest


def test_pentagonal_oracle_known_values():
    assert [pentagonal_count(n) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert pentagonal_count(20) == 627
    assert pentagonal_count(30) == 5604


@pytest.mark.parametrize("n", range(1, 22))
def test_generator_count_matches_oracle(n):
    assert len(partitions_of(n)) == pentagonal_count(n)


def test_partition_count_matches_oracle_far_out():
    for n in range(60):
        assert partition_count(n) == pentagonal_count(n)


def test_generator_order_and_endpoints():
    ps = partitions_of(6)
    assert ps[0] == (6,)
    assert ps[-1] == (1, 1, 1, 1, 1, 1)
    # reverse-lexicographic: each partition strictly precedes the next
    assert all(tuple(a) > tuple(b) for a, b in zip(ps, ps[1:]))


def test_generator_yields_distinct_valid_partitions():
    for n in (5, 9):
        ps = partitions_of(n)
        assert len(set(ps)) == len(ps)
        for p in ps:
            assert sum(p) == n
            assert all(a >= b for a, b in zip(p, p[1:]))


def test_iter_partitions_max_part():
    got = list(iter_partitions(5, 2))
    assert got == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    assert list(iter_partitions(0)) == [()]


@pytest.mark.parametrize("n", range(-2, 31))
def test_iter_partitions_matches_recursive_oracle(n):
    full = list(recursive_partitions(n))
    assert list(iter_partitions(n)) == full
    for max_part in range(-1, n + 2):
        # the oracle's outer loop runs the first part down from max_part, so
        # its bounded output is its full order filtered by the first part;
        # that is checked directly where the bounded calls are cheap
        expected = [p for p in full if not p or p[0] <= max_part]
        if n <= 20:
            assert list(recursive_partitions(n, max_part)) == expected
        assert list(iter_partitions(n, max_part)) == expected


def test_iter_partitions_order_at_sixty():
    n = 60
    count = 0
    prev = (n + 1,)
    for parts in iter_partitions(n):
        # strictly below the previous one, non-increasing, summing to n
        assert prev > parts and list(parts) == sorted(parts, reverse=True)
        assert sum(parts) == n
        prev = parts
        count += 1
    assert count == partition_count(n)


def test_canonical_descending_form():
    assert Partition([1, 3, 2]) == (3, 2, 1)
    assert Partition([]) == ()


def test_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition([3, 0])
    with pytest.raises(ValueError):
        Partition([2, -1])
    with pytest.raises(ValueError):
        partitions_of(0)


def test_conjugate_hand_values():
    assert Partition([4, 2, 1]).conjugate() == (3, 2, 1, 1)
    assert Partition([3, 3]).conjugate() == (2, 2, 2)
    assert Partition([5]).conjugate() == (1, 1, 1, 1, 1)


def test_doubled():
    p = Partition([3, 1, 1])
    assert p.doubled() == (6, 2, 2)
    assert p.doubled().n == 2 * p.n


def test_string_round_trip():
    p = Partition([4, 2, 2, 1])
    assert str(p) == "[4,2,2,1]"
    assert Partition.from_string(str(p)) == p
    assert Partition.from_string(" [3,2] ") == (3, 2)
    with pytest.raises(ValueError):
        Partition.from_string("[]")
    with pytest.raises(ValueError):
        Partition.from_string("3,2")


parts_strategy = st.lists(st.integers(1, 15), min_size=1, max_size=10)


@given(parts_strategy)
def test_conjugate_is_an_involution(parts):
    p = Partition(parts)
    assert p.conjugate().conjugate() == p
    assert p.conjugate().n == p.n


@given(parts_strategy)
def test_doubled_parts_all_even(parts):
    q = Partition(parts).doubled()
    assert all(x % 2 == 0 for x in q)


@given(st.integers(1, 14))
def test_each_partition_appears_once(n):
    seen = set(iter_partitions(n))
    assert len(seen) == partition_count(n)
