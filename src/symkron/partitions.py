"""Integer partitions: the index set of every sparse series in this package."""

from __future__ import annotations

from functools import lru_cache


class Partition(tuple):
    """A partition as a weakly decreasing tuple of positive integers.

    Instances behave as plain tuples (hashing, equality, ordering), so they
    work directly as sparse-map keys.  Tuple comparison on the decreasing
    part vectors is the lexicographic order used throughout the package:
    among partitions of equal weight the all-ones partition is smallest and
    the one-part partition largest, e.g.

        (1,1,1,1) < (2,1,1) < (2,2) < (3,1) < (4)

    ``partitions_of`` enumerates in exactly this (ascending) order.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        try:
            parts = tuple(parts)
        except TypeError:
            raise ValueError(f"parts must be positive integers: {parts!r}") from None
        prev = None
        for p in parts:
            if type(p) is not int or p < 1:  # bool is an int subclass
                raise ValueError(f"parts must be positive integers: {parts!r}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be weakly decreasing: {parts!r}")
            prev = p
        return tuple.__new__(cls, parts)

    @property
    def weight(self) -> int:
        """Sum of the parts (the n in "partition of n")."""
        return sum(self)

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> number of occurrences; round-trips with parts."""
        mult: dict[int, int] = {}
        for p in self:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram; an involution."""
        if not self:
            return self
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def __repr__(self) -> str:
        return f"Partition{tuple(self)!r}"


def _natural(value, what: str, least: int = 0) -> int:
    """value, if it is an int of at least ``least`` (0 or 1): the package's
    one check of an integer argument, a ValueError naming ``what`` else."""
    if type(value) is not int or value < least:  # bool is an int subclass
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer: {value!r}")
    return value


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, ascending in the order documented on Partition.

    partitions_of(0) == [Partition(())].  Each call returns a new list of
    the same memoized ``Partition`` objects, so a caller may mutate its list.
    """
    return list(_partitions(_natural(n, "n")))


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    """The partitions of n in ascending order, built from the shorter lists:
    for each first part, the partitions of n - first whose parts are at
    most first, a prefix of that ascending list.  Each key is positive and
    weakly decreasing by construction, so it is built without
    re-validating its parts."""
    if n == 0:
        return (Partition(),)
    out = []
    for first in range(1, n + 1):
        for rest in _partitions(n - first):
            if rest and rest[0] > first:
                break
            out.append(tuple.__new__(Partition, (first,) + rest))
    return tuple(out)


def z(lam) -> int:
    """Centralizer size of the conjugacy class with cycle type lam.

    For lam with multiplicities r_1, r_2, ... this is the product of
    i**r_i * r_i! over the distinct part values i, taken in one pass as
    i * j for the j-th copy of each part i.  Exact; z(()) == 1.
    Memoized per partition; lam that is not a ``Partition`` is validated
    as one first (ValueError otherwise).
    """
    return _z(lam if type(lam) is Partition else Partition(lam))


@lru_cache(maxsize=None)
def _z(lam: Partition) -> int:
    result, prev, run = 1, 0, 0
    for p in lam:
        run, prev = (run + 1 if p == prev else 1), p
        result *= p * run
    return result


def conjugate(lam) -> Partition:
    """Transpose of the Young diagram of lam."""
    return Partition(lam).conjugate()
