"""Finite ordinals, monotone maps, and the circle construction.

The objects here are the ordinals [p] = {0 < 1 < ... < p}.  A morphism
[p] -> [q] is a weakly increasing map, recorded by its tuple of values.
These compose like ordinary functions and there are finitely many between
any two ordinals, so hom-sets can be enumerated outright.

The circle construction sends [p] to the pointed set {1, ..., p, *} and a
monotone map f: [p] -> [q] to the pointed map {1..q}* -> {1..p}* given by

    j  |->  the unique i with f(i-1) < j <= f(i),   basepoint otherwise.

Equivalently, j is sent through precomposition with the step map that cuts
[q] at position j; the test suite checks that reading against this module.
A monotone map is called *active* when the induced pointed map hits no
basepoint, which works out to f(0) = 0 and f(p) = q.

Everything in this module is immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement


class CompositionError(ValueError):
    """Raised when two maps do not have matching endpoints."""


@dataclass(frozen=True)
class MonotoneMap:
    """A weakly increasing map [source_rank] -> [target_rank].

    ``values[i]`` is the image of i, so the tuple has source_rank + 1
    entries, each between 0 and target_rank.
    """

    source_rank: int
    target_rank: int
    values: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.source_rank < 0 or self.target_rank < 0:
            raise ValueError("ordinal ranks must be nonnegative")
        if len(self.values) != self.source_rank + 1:
            raise ValueError(
                f"expected {self.source_rank + 1} values, got {len(self.values)}"
            )
        last = 0
        for v in self.values:
            if not (0 <= v <= self.target_rank):
                raise ValueError(f"value {v} outside [0, {self.target_rank}]")
            if v < last:
                raise ValueError(f"values {self.values} are not weakly increasing")
            last = v
        # maps are hashed constantly as cache keys; compute once
        object.__setattr__(
            self, "_hash", hash((self.source_rank, self.target_rank, self.values))
        )

    def __hash__(self) -> int:
        return self._hash

    def __call__(self, i: int) -> int:
        if not (0 <= i <= self.source_rank):
            raise ValueError(f"{i} is not an element of [{self.source_rank}]")
        return self.values[i]

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"

    @property
    def is_active(self) -> bool:
        """True when the induced pointed map hits no basepoint.

        Closed form: the two endpoints are preserved.  The equivalence with
        the pointed-map reading is exercised exhaustively by the tests.
        """
        return self.values[0] == 0 and self.values[-1] == self.target_rank


def identity_delta(rank: int) -> MonotoneMap:
    return MonotoneMap(rank, rank, tuple(range(rank + 1)))


def compose_delta(second: MonotoneMap, first: MonotoneMap) -> MonotoneMap:
    """The composite ``second`` after ``first``."""
    if first.target_rank != second.source_rank:
        raise CompositionError(
            f"cannot compose [{first.source_rank}]->[{first.target_rank}] "
            f"with [{second.source_rank}]->[{second.target_rank}]"
        )
    return MonotoneMap(
        first.source_rank,
        second.target_rank,
        tuple(second.values[v] for v in first.values),
    )


@lru_cache(maxsize=None)
def enumerate_delta_hom(
    source_rank: int, target_rank: int, active_only: bool = False
) -> tuple[MonotoneMap, ...]:
    """All monotone maps [source_rank] -> [target_rank], lexicographic order."""
    if source_rank < 0 or target_rank < 0:
        raise ValueError("ordinal ranks must be nonnegative")
    maps = (
        MonotoneMap(source_rank, target_rank, values)
        for values in combinations_with_replacement(
            range(target_rank + 1), source_rank + 1
        )
    )
    if active_only:
        return tuple(f for f in maps if f.is_active)
    return tuple(maps)


@dataclass(frozen=True)
class PointedMap:
    """A map of pointed sets {1..source_size}* -> {1..target_size}*.

    Only the elements not sent to the basepoint are recorded, as sorted
    (element, image) pairs; everything absent goes to the basepoint.
    """

    source_size: int
    target_size: int
    pairs: tuple[tuple[int, int], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = 0
        for j, i in self.pairs:
            if not (1 <= j <= self.source_size):
                raise ValueError(f"element {j} outside {{1..{self.source_size}}}")
            if not (1 <= i <= self.target_size):
                raise ValueError(f"image {i} outside {{1..{self.target_size}}}")
            if j <= seen:
                raise ValueError("pairs must be strictly sorted by element")
            seen = j
        object.__setattr__(
            self, "_hash", hash((self.source_size, self.target_size, self.pairs))
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _table(self) -> dict[int, int]:
        return dict(self.pairs)

    def apply(self, j: int) -> int | None:
        """Image of j, with None standing for the basepoint."""
        if not (1 <= j <= self.source_size):
            raise ValueError(f"{j} is not an element of {{1..{self.source_size}}}")
        return self._table.get(j)

    @property
    def is_total(self) -> bool:
        return len(self.pairs) == self.source_size


def identity_pointed(size: int) -> PointedMap:
    return PointedMap(size, size, tuple((j, j) for j in range(1, size + 1)))


def compose_pointed(second: PointedMap, first: PointedMap) -> PointedMap:
    """The composite ``second`` after ``first``; basepoints absorb."""
    if first.target_size != second.source_size:
        raise CompositionError(
            f"cannot compose pointed maps {first.source_size}->{first.target_size} "
            f"and {second.source_size}->{second.target_size}"
        )
    pairs = []
    for j, i in first.pairs:
        image = second.apply(i)
        if image is not None:
            pairs.append((j, image))
    return PointedMap(first.source_size, second.target_size, tuple(pairs))


@lru_cache(maxsize=None)
def simplicial_circle(f: MonotoneMap) -> PointedMap:
    """The pointed map {1..q}* -> {1..p}* induced by f: [p] -> [q].

    j goes to the unique i with f(i-1) < j <= f(i) when such an i exists,
    and to the basepoint when j <= f(0) or j > f(p).
    """
    pairs = []
    values = f.values
    i = 0
    for j in range(1, f.target_rank + 1):
        # values is weakly increasing, so the threshold index only moves right
        while i <= f.source_rank and values[i] < j:
            i += 1
        if i == 0 or i > f.source_rank:
            continue
        pairs.append((j, i))
    return PointedMap(f.target_rank, f.source_rank, tuple(pairs))
