"""Symmetric group representation data: dimensions, characters, branching.

Characters are computed by the classical border-strip recursion in its
beta-set form, memoised over (shape, cycle type) pairs; everything is
exact integer arithmetic.  The memo table is only ever appended to, so
concurrent readers are safe (CPython dict semantics); writes happen on
first use of each key.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .partitions import Partition, partitions_of


def hook_lengths(shape: Partition) -> list[list[int]]:
    conj = shape.conjugate()
    return [
        [shape[i] - j + conj[j] - i - 1 for j in range(shape[i])]
        for i in range(len(shape))
    ]


@cache
def hook_dimension(shape: Partition) -> int:
    """Dimension of the irreducible labelled by `shape` (hook length formula)."""
    shape = Partition(shape)
    denom = 1
    for row in hook_lengths(shape):
        for h in row:
            denom *= h
    dim, rem = divmod(factorial(shape.n), denom)
    if rem:
        raise ArithmeticError(f"hook product does not divide {shape.n}! for {shape}")
    return dim


def _beta(shape: tuple[int, ...], length: int) -> tuple[int, ...]:
    padded = tuple(shape) + (0,) * (length - len(shape))
    return tuple(padded[i] + (length - 1 - i) for i in range(length))


def _shape_from_beta(beta: tuple[int, ...]) -> tuple[int, ...]:
    b = sorted(beta, reverse=True)
    length = len(b)
    parts = [b[i] - (length - 1 - i) for i in range(length)]
    return tuple(p for p in parts if p > 0)


@cache
def _char(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    if not cycle_type:
        return 1
    t = cycle_type[0]
    rest = cycle_type[1:]
    length = len(shape)
    beta = _beta(shape, length)
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        new_beta = tuple(nb if x == b else x for x in beta)
        total += (-1) ** crossed * _char(_shape_from_beta(new_beta), rest)
    return total


def character(shape: Partition, cycle_type: Partition) -> int:
    """Irreducible character value chi_shape(cycle_type), exact."""
    shape = Partition(shape)
    cycle_type = Partition(cycle_type)
    if shape.n != cycle_type.n:
        raise ValueError(f"size mismatch: |{shape}| = {shape.n}, |{cycle_type}| = {cycle_type.n}")
    return _char(tuple(shape), tuple(cycle_type))


def conjugacy_class_size(cycle_type: Partition) -> int:
    """Number of permutations with the given cycle type."""
    cycle_type = Partition(cycle_type)
    denom = 1
    mult: dict[int, int] = {}
    for part in cycle_type:
        denom *= part
        mult[part] = mult.get(part, 0) + 1
    for m in mult.values():
        denom *= factorial(m)
    return factorial(cycle_type.n) // denom


def remove_box(shape: Partition) -> list[Partition]:
    """Shapes reachable by deleting one removable corner, top row first."""
    shape = Partition(shape)
    out = []
    for i in range(len(shape)):
        if i == len(shape) - 1 or shape[i] > shape[i + 1]:
            parts = list(shape)
            parts[i] -= 1
            out.append(Partition(p for p in parts if p > 0))
    return out


def add_box(shape: Partition) -> list[Partition]:
    """Shapes reachable by adding one box, top row first, new row last."""
    shape = Partition(shape)
    out = []
    for i in range(len(shape)):
        if i == 0 or shape[i] < shape[i - 1]:
            parts = list(shape)
            parts[i] += 1
            out.append(Partition(parts))
    out.append(Partition(list(shape) + [1]))
    return out


def small_degree_partitions(n: int) -> list[Partition]:
    """Shapes with irreducible dimension below (n^2 - n)/2, in list order.

    The classification result says eight shapes qualify for n >= 9.
    Enumeration confirms that at every n checked except n = 10, where
    [5,5] and [2,2,2,2,2] (dimension 42, under the bound 45) also pass
    the filter; callers comparing against the count of eight must treat
    n = 10 separately.
    """
    if n < 9:
        raise ValueError(f"classification needs n >= 9, got {n}")
    bound = (n * n - n) // 2
    return [p for p in partitions_of(n) if hook_dimension(p) < bound]


def closed_form_degrees(n: int) -> list[tuple[Partition, int, int]]:
    """Six mid-sized shapes of Sym(n+1) with product closed forms.

    Returns (shape, closed_form, hook_dimension) triples; the two values
    agree and each exceeds (n^2 + n)/2 for n >= 9, which tests assert.
    """
    if n < 9:
        raise ValueError(f"closed forms tabulated for n >= 9, got {n}")
    table = [
        (Partition([n - 2, 3]), n * (n + 1) * (n - 4) // 6),
        (Partition([n - 2, 2, 1]), (n + 1) * (n - 1) * (n - 3) // 3),
        (Partition([n - 2, 1, 1, 1]), n * (n - 1) * (n - 2) // 6),
        (Partition([3, 2] + [1] * (n - 4)), (n + 1) * (n - 1) * (n - 3) // 3),
        (Partition([2, 2, 2] + [1] * (n - 5)), n * (n + 1) * (n - 4) // 6),
        (Partition([4] + [1] * (n - 3)), n * (n - 1) * (n - 2) // 6),
    ]
    return [(shape, closed, hook_dimension(shape)) for shape, closed in table]


def matching_scheme_labels(k: int) -> list[Partition]:
    """Irreducible labels of the matching association scheme: doubled partitions of k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [p.doubled() for p in partitions_of(k)]

