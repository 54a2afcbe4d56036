"""Finite rational point configurations and straight-line exit paths.

A configuration is a finite set of distinct points in Q^n.  Projecting
away trailing coordinates one at a time turns it into a planar level tree
of height n: level k collects the distinct length-k coordinate prefixes,
ordered by the standard order of Q, and the leaves are the points
themselves in lexicographic order.

An exit path from a configuration S to a configuration T assigns each
target point an origin in S and moves it there-to-here along a straight
line, p_t(u) = (1-u) f(t) + u t.  The path is valid when, at every
projection level, strands that end apart stay apart on (0, 1] (they may
share their start: points split instantly) and strands that end together
started together.  Coordinates are scaled once, on construction, to
integer points over one denominator, and the tree, the validator and the
generators work on those; each collision test is a rational linear system
solved by cross-multiplication.  Fractions return only for text, JSON
and collision times, and floating point never enters a verdict.

A valid path induces a morphism of the two trees whose leaf row is the
point assignment, read target-to-source; ``theta.morphism_of_row``
rebuilds it one level at a time: the base map counts, for each source
prefix, how many target prefixes sit over it, and the components recurse
into the matched fibers with the leading coordinate dropped.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby, pairwise
from math import gcd, lcm
from operator import itemgetter
from random import Random

from .theta import ThetaMorphism, Tree, check_height, empty_tree, morphism_of_row

Point = tuple[Fraction, ...]


class SamplingBudgetError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


class InvalidExitPathError(ValueError):
    """Raised when a path without a passing certificate is used."""


# the one form of rational text: an integer, or p/q, optionally signed
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and not _RATIONAL_TEXT.fullmatch(value):
        raise ValueError(
            f"rationals must be integers or 'p/q' strings, got {value!r}"
        )
    # bool is an int subclass; True is not the number 1
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"rational {value!r} has a zero denominator") from None
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True, init=False, repr=False)
class Configuration:
    """Distinct points in Q^n: the integer points ``grid`` over ``scale``.

    ``grid`` is sorted lexicographically, the order of Q^n as ``scale`` > 0,
    and ``scale`` is the lcm of the reduced denominators, so equal point
    sets have equal fields.  Construction reads coordinates given as
    Fractions, ints or "p/q" strings (never bools or floats) as exact
    rationals; coincident points are rejected, not repaired.  ``points``,
    the Fractions, is built on first use, for text and JSON.
    """

    dimension: int
    grid: tuple[tuple[int, ...], ...]
    scale: int

    def __init__(self, dimension: int, points) -> None:
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        rows = []
        for point in points:
            if len(point) != dimension:
                raise ValueError(
                    f"point {_point_text(point)} does not have {dimension} coordinates"
                )
            rows.append([_as_fraction(c) for c in point])
        scale = lcm(*(c.denominator for row in rows for c in row))
        grid = [tuple(c.numerator * (scale // c.denominator) for c in r) for r in rows]
        self._fill(dimension, grid, scale)

    @classmethod
    def _from_grid(cls, dimension: int, grid: list, scale: int) -> Configuration:
        """The points grid/scale, in any order, scale > 0, reduced by gcd."""
        common = gcd(scale, *chain.from_iterable(grid))
        if common > 1:
            scale //= common
            grid = [tuple(c // common for c in p) for p in grid]
        cfg = cls.__new__(cls)
        cfg._fill(dimension, grid, scale)
        return cfg

    def _fill(self, dimension: int, grid: list, scale: int) -> None:
        check_height("dimension", dimension)
        grid.sort()
        for a, b in pairwise(grid):
            if a == b:
                point = _point_text(Fraction(c, scale) for c in a)
                raise ValueError(f"coincident point {point}")
        self.__dict__.update(dimension=dimension, grid=tuple(grid), scale=scale)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(tuple(Fraction(c, self.scale) for c in p) for p in self.grid)

    @cached_property
    def _tree(self) -> Tree:
        return _tree_of_grid(self.grid, self.dimension)

    @property
    def size(self) -> int:
        return len(self.grid)

    def __repr__(self) -> str:
        return f"Configuration(dimension={self.dimension!r}, points={self.points!r})"

    def __str__(self) -> str:
        return "{" + ", ".join(map(_point_text, self.points)) + "}"


def _point_text(point) -> str:
    """A point in the input grammar: ``(1/2, -3)``."""
    return "(" + ", ".join(map(str, point)) + ")"


# ---------------------------------------------------------------------------
# the configuration-to-tree functor on objects


def tree_of_configuration(cfg: Configuration) -> Tree:
    """The height-n tree of coordinate prefixes, built once per object."""
    return cfg._tree


def _tree_of_grid(grid: tuple[tuple[int, ...], ...], height: int) -> Tree:
    """Level k of the tree groups the sorted points by their first k
    coordinates; each group is a child, in order."""
    if not grid:
        return empty_tree(height)

    def walk(points, k: int) -> Tree:
        if k == height - 1:
            return Tree(1, len(points))
        fibers = groupby(points, itemgetter(k))
        children = tuple(walk(list(fiber), k + 1) for _, fiber in fibers)
        return Tree(height - k, len(children), children)

    return walk(grid, 0)


def realize_tree(tree: Tree) -> Configuration:
    """An integer-coordinate configuration whose tree is prune(tree).

    Child s of the root contributes first coordinate s; leafless branches
    leave no points behind, so only the pruned shape survives the round
    trip, and healthy trees come back exactly.  The points go straight
    onto the grid with scale 1.
    """
    return Configuration._from_grid(tree.height, _realize(tree), 1)


def _realize(tree: Tree) -> list[tuple[int, ...]]:
    if tree.height == 1:
        return [(i,) for i in range(1, tree.rank + 1)]
    return [(s,) + p for s, c in enumerate(tree.children, 1) for p in _realize(c)]


# ---------------------------------------------------------------------------
# exit paths and validation


@dataclass(frozen=True)
class LevelCheck:
    """Diagnostics for one projection level.

    ``collision`` holds (target index, target index, time u) for the first
    pair of separated strands meeting at some u in (0, 1]; ``incompatible``
    holds the first target pair ending together whose origins differ at
    this level.  Indices are 0-based into the canonical point order.
    """

    level: int
    separation_ok: bool
    compatibility_ok: bool
    collision: tuple[int, int, Fraction] | None = None
    incompatible: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.separation_ok and self.compatibility_ok


@dataclass(frozen=True)
class PathVerdict:
    valid: bool
    levels: tuple[LevelCheck, ...]


@dataclass(frozen=True)
class ExitPath:
    """A straight-line path datum with an optional validity certificate.

    ``mapping[t]`` is the canonical index of the source point that target
    point t travels from.  The certificate is only ever attached by
    ``build_exit_path`` after running the validator.
    """

    source: Configuration
    target: Configuration
    mapping: tuple[int, ...]
    verdict: PathVerdict | None = None

    def __post_init__(self) -> None:
        if self.source.dimension != self.target.dimension:
            raise ValueError("exit path endpoints must share a dimension")
        if len(self.mapping) != self.target.size:
            raise ValueError(
                f"mapping covers {len(self.mapping)} of {self.target.size} "
                "target points"
            )
        for idx in self.mapping:
            if not (0 <= idx < self.source.size):
                raise ValueError(f"mapping index {idx} out of range")

    @property
    def dimension(self) -> int:
        return self.source.dimension


def validate_exit_path(
    source: Configuration, target: Configuration, mapping: tuple[int, ...]
) -> PathVerdict:
    """Exact per-level validation of the straight-line path.

    Level k checks, with prefixes p[:k]: (a) target pairs with distinct
    prefixes never share one at any u in (0, 1]; (b) target pairs with
    equal prefixes have origins with equal prefixes.  Each level reports
    its first offending pair.

    Both grids are rescaled to the lcm of the two scales, the common
    denominator of all the points.  One pass per pair walks them, carrying
    the common collision root num/den and whether the targets and the
    origins still agree; the state after k coordinates is the verdict at
    level k.  In a coordinate whose gap is s at u = 0 and e at u = 1 the
    strands meet at u = s/(s-e), nowhere when s = e != 0, and everywhere
    when s = e = 0.
    """
    path = ExitPath(source, target, tuple(mapping))
    scale = lcm(source.scale, target.scale)
    src = [tuple(c * (scale // source.scale) for c in p) for p in source.grid]
    ends = [tuple(c * (scale // target.scale) for c in p) for p in target.grid]
    origins = path.mapping
    starts = [src[s_idx] for s_idx in origins]
    dims = range(path.dimension)
    collision: list[tuple[int, int, Fraction] | None] = [None] * len(dims)
    incompatible: list[tuple[int, int] | None] = [None] * len(dims)
    for a, (start_a, end_a) in enumerate(zip(starts, ends)):
        origin_a = origins[a]
        for b in range(a + 1, len(ends)):
            if origins[b] == origin_a:
                continue  # a shared origin: the only root is u = 0
            start_b = starts[b]
            end_b = ends[b]
            den = 0  # 0 until some coordinate fixes the root num/den
            apart = split = False
            # a break needs e != 0, so the pair stays apart and rootless
            for k in dims:
                s = start_a[k] - start_b[k]
                e = end_a[k] - end_b[k]
                if s != e:
                    if not den:
                        num, den = (s, s - e) if s > e else (-s, e - s)
                    elif num * (s - e) != s * den:
                        break  # two coordinates meet at different times
                elif s:
                    break  # a constant nonzero gap in this coordinate
                if e or apart:
                    apart = True
                    # den > 0 here, so 0 < u <= 1 is a sign test
                    if 0 < num <= den and collision[k] is None:
                        collision[k] = (a, b, Fraction(num, den))
                elif s or split:
                    split = True
                    if incompatible[k] is None:
                        incompatible[k] = (a, b)
    levels = tuple(
        LevelCheck(k + 1, hit is None, merge is None, hit, merge)
        for k, (hit, merge) in enumerate(zip(collision, incompatible))
    )
    return PathVerdict(all(lv.ok for lv in levels), levels)


def build_exit_path(
    source: Configuration, target: Configuration, mapping
) -> ExitPath:
    """Construct a path and attach its validation certificate."""
    mapping = tuple(mapping)
    verdict = validate_exit_path(source, target, mapping)
    return ExitPath(source, target, mapping, verdict)


def _reindexed_path(dimension: int, src_points, tgt_points, mapping) -> ExitPath:
    """A certified path between points listed in any order, ``mapping``
    indexing them as listed; both sides go to canonical sorted order."""
    src_order = sorted(range(len(src_points)), key=src_points.__getitem__)
    tgt_order = sorted(range(len(tgt_points)), key=tgt_points.__getitem__)
    src_rank = {old: new for new, old in enumerate(src_order)}
    return build_exit_path(
        Configuration(dimension, tuple(src_points)),
        Configuration(dimension, tuple(tgt_points)),
        tuple(src_rank[mapping[old]] for old in tgt_order),
    )


# ---------------------------------------------------------------------------
# the functor on morphisms


def morphism_of_exit_path(path: ExitPath) -> ThetaMorphism:
    """The tree morphism induced by a certified exit path."""
    if path.verdict is None or not path.verdict.valid:
        raise InvalidExitPathError(
            "morphisms are only extracted from paths with a passing certificate"
        )
    return induced_morphism(path.source, path.target, path.mapping)


def induced_morphism(
    source: Configuration, target: Configuration, mapping
) -> ThetaMorphism:
    """The tree morphism whose leaf row is the point assignment.

    Points are sorted, so the leaves of each tree are its points in
    order, and ``mapping`` (0-based origins) is the leaf row less one.
    morphism_of_row rebuilds the morphism from it and checks that every
    level map is well defined and monotone, raising ValueError otherwise;
    certified paths and compositions of their assignments pass.
    """
    if source.dimension != target.dimension:
        raise ValueError("endpoints must share a dimension")
    return morphism_of_row(
        tree_of_configuration(source),
        tree_of_configuration(target),
        [s_idx + 1 for s_idx in mapping],
    )


def compose_point_maps(
    second: tuple[int, ...], first: tuple[int, ...]
) -> tuple[int, ...]:
    """Origins of a two-step path: follow second's origins through first.

    ``first`` maps middle points to initial points, ``second`` maps final
    points to middle points; the composite maps final to initial.
    """
    return tuple(first[m] for m in second)


# ---------------------------------------------------------------------------
# seeded generators


def random_configuration(
    dimension: int, size: int, seed: int, budget: int = 10_000
) -> Configuration:
    """Distinct integer-grid points in a box, rejection sampled."""
    if dimension < 1 or size < 0:
        raise ValueError("need dimension >= 1 and size >= 0")
    rng = Random(seed)
    span = 4 * max(size, 1)
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(seen) < size:
        attempts += 1
        if attempts > budget:
            raise SamplingBudgetError(
                f"could not draw {size} distinct points in {budget} attempts"
            )
        seen.add(tuple(rng.randint(0, span) for _ in range(dimension)))
    return Configuration._from_grid(dimension, list(seen), 1)


def _minimum_gap(points: list[tuple[int, ...]], dimension: int) -> int:
    """Smallest positive coordinate difference, 0 when none exists."""
    axes = (sorted({p[c] for p in points}) for c in range(dimension))
    return min((hi - lo for axis in axes for lo, hi in pairwise(axis)), default=0)


def random_exit_path(source: Configuration, seed: int) -> ExitPath:
    """A certified path out of ``source``: split, keep, or drop each point.

    Every target point stays within a box of radius gap/4 around its
    origin, where gap is the smallest positive coordinate difference in
    the source; boxes of distinct origins therefore never meet at any
    projection level, and strands sharing an origin only touch at u = 0.
    So the one draw is valid, and distinct offsets give distinct points.
    The validator still certifies it; a rejection raises
    InvalidExitPathError, as it would refute the box argument.  The draw
    stays on the integer grid: the target's scale is 16 times the source's.
    """
    rng = Random(seed)
    if source.size == 0:
        return build_exit_path(source, Configuration(source.dimension, ()), ())
    # integers in units of 1/(16 scale): offsets are multiples of
    # gap/16, at most 3 per axis
    unit = 16 * source.scale
    step = _minimum_gap(source.grid, source.dimension) or source.scale
    points: list[tuple[int, ...]] = []
    origins: list[int] = []
    for s_idx, base_point in enumerate(source.grid):
        multiplicity = rng.choices((0, 1, 2, 3), weights=(1, 6, 3, 1))[0]
        offsets: set[tuple[int, ...]] = set()
        while len(offsets) < multiplicity:
            offsets.add(tuple(rng.randint(-3, 3) for _ in range(source.dimension)))
        for off in offsets:
            points.append(tuple(16 * c + step * o for c, o in zip(base_point, off)))
            origins.append(s_idx)
    shift = tuple(unit * rng.randint(-2, 2) for _ in range(source.dimension))
    shifted = [tuple(c + s for c, s in zip(p, shift)) for p in points]
    order = sorted(range(len(shifted)), key=shifted.__getitem__)
    target = Configuration._from_grid(source.dimension, shifted, unit)
    path = build_exit_path(source, target, tuple(origins[i] for i in order))
    if not path.verdict.valid:
        raise InvalidExitPathError(
            f"the drawn exit path from {source} (seed {seed}) fails validation"
        )
    return path


# ---------------------------------------------------------------------------
# file formats


def parse_rational(text) -> Fraction:
    # bool is an int subclass; a JSON true is not the number 1
    if isinstance(text, (int, str)) and not isinstance(text, bool):
        return _as_fraction(text)
    raise ValueError(f"rationals must be integers or 'p/q' strings, got {text!r}")


def _points_from_json(doc, what: str) -> list[tuple[Fraction, ...]]:
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise ValueError(
            f"{what} must be an array of points, each an array of coordinates"
        )
    return [tuple(parse_rational(c) for c in row) for row in doc]


def configuration_from_json(doc, dimension: int | None = None) -> Configuration:
    """A JSON array of points, each an array of rational strings."""
    points = _points_from_json(doc, "points")
    if dimension is None:
        if not points:
            raise ValueError("an empty point list needs an explicit dimension")
        dimension = len(points[0])
    return Configuration(dimension, tuple(points))


def exit_path_from_json(doc: dict) -> ExitPath:
    """Schema: dimension, source, target (point arrays), map.

    ``map`` pairs target file positions with source file positions; both
    sides are re-indexed into canonical sorted order on load.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            "an exit path must be a JSON object with dimension, source, "
            "target and map"
        )
    missing = [k for k in ("dimension", "source", "target", "map") if k not in doc]
    if missing:
        raise ValueError(f"the exit path has no {' and no '.join(missing)}")
    dimension = doc["dimension"]
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise ValueError(f"dimension must be a JSON integer, got {dimension!r}")
    src_raw = _points_from_json(doc["source"], "source")
    tgt_raw = _points_from_json(doc["target"], "target")
    raw_map = doc["map"]
    if not isinstance(raw_map, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in raw_map
    ):
        raise ValueError(f"map must be a list of integers, got {raw_map!r}")
    if len(raw_map) != len(tgt_raw):
        raise ValueError("map must assign every target point an origin")
    for v in raw_map:
        if not (0 <= v < len(src_raw)):
            raise ValueError(f"map index {v} out of range")
    return _reindexed_path(dimension, src_raw, tgt_raw, raw_map)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(
                f"{path} nests JSON deeper than the "
                f"{sys.getrecursionlimit()}-frame recursion limit"
            ) from None
