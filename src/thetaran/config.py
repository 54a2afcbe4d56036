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
started together.  Validation is exact: coordinates are scaled once to
integers by a common denominator, each collision test is a rational
linear system solved by cross-multiplication, and floating point never
enters a verdict.

A valid path induces a morphism of the two trees whose leaf row is the
point assignment, read target-to-source; ``theta.morphism_of_row``
rebuilds it one level at a time: the base map counts, for each source
prefix, how many target prefixes sit over it, and the components recurse
into the matched fibers with the leading coordinate dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import pairwise
from math import lcm
from random import Random

from .theta import ThetaMorphism, Tree, empty_tree, morphism_of_row

Point = tuple[Fraction, ...]


class SamplingBudgetError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


class InvalidExitPathError(ValueError):
    """Raised when a path without a passing certificate is used."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    # bool is an int subclass; True is not the number 1
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"rational {value!r} has a zero denominator") from None
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Configuration:
    """Distinct points in Q^n, stored sorted lexicographically.

    Construction canonicalizes the order and reads coordinates given as
    Fractions, ints or rational strings (never bools or floats) as exact
    rationals; coincident points are rejected, not repaired.
    """

    dimension: int
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        cleaned = []
        for point in self.points:
            if len(point) != self.dimension:
                raise ValueError(
                    f"point {point} does not have {self.dimension} coordinates"
                )
            cleaned.append(tuple(_as_fraction(c) for c in point))
        cleaned.sort()
        for a, b in zip(cleaned, cleaned[1:]):
            if a == b:
                raise ValueError(f"coincident point {a}")
        object.__setattr__(self, "points", tuple(cleaned))

    @property
    def size(self) -> int:
        return len(self.points)

    def __str__(self) -> str:
        inner = ", ".join(
            "(" + ", ".join(str(c) for c in p) + ")" for p in self.points
        )
        return "{" + inner + "}"


def configuration(dimension: int, points) -> Configuration:
    return Configuration(dimension, tuple(tuple(p) for p in points))


# ---------------------------------------------------------------------------
# the configuration-to-tree functor on objects


def tree_of_configuration(cfg: Configuration) -> Tree:
    """The height-n tree of coordinate prefixes, ordered by Q."""
    return _tree_of_points(cfg.points, cfg.dimension)


def _tree_of_points(points: tuple[Point, ...], dimension: int) -> Tree:
    if not points:
        return empty_tree(dimension)
    if dimension == 1:
        return Tree(1, len(points))
    children = []
    for _, fiber in _fibers(points):
        children.append(_tree_of_points(fiber, dimension - 1))
    return Tree(dimension, len(children), tuple(children))


def _fibers(points: tuple[Point, ...]) -> list[tuple[Fraction, tuple[Point, ...]]]:
    """Group sorted points by first coordinate and drop it, order kept."""
    out: list[tuple[Fraction, tuple[Point, ...]]] = []
    current: Fraction | None = None
    bucket: list[Point] = []
    for point in points:
        if point[0] != current:
            if bucket:
                out.append((current, tuple(bucket)))
            current = point[0]
            bucket = []
        bucket.append(point[1:])
    if bucket:
        out.append((current, tuple(bucket)))
    return out


def realize_tree(tree: Tree) -> Configuration:
    """An integer-coordinate configuration whose tree is prune(tree).

    Child s of the root contributes first coordinate s; leafless branches
    leave no points behind, so only the pruned shape survives the round
    trip, and healthy trees come back exactly.
    """
    return Configuration(tree.height, tuple(_realize(tree)))


def _realize(tree: Tree) -> list[Point]:
    if tree.height == 1:
        return [(Fraction(i),) for i in range(1, tree.rank + 1)]
    out: list[Point] = []
    for s, child in enumerate(tree.children, start=1):
        first = Fraction(s)
        out.extend((first,) + p for p in _realize(child))
    return out


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

    @cached_property
    def is_point_bijection(self) -> bool:
        return (
            self.source.size == self.target.size
            and len(set(self.mapping)) == self.target.size
        )


def _common_denominator(points: tuple[Point, ...]) -> int:
    return lcm(*{c.denominator for p in points for c in p})


def _scaled(points: tuple[Point, ...], scale: int) -> list[tuple[int, ...]]:
    """The points times ``scale``, a multiple of every denominator."""
    return [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points]


def validate_exit_path(
    source: Configuration, target: Configuration, mapping: tuple[int, ...]
) -> PathVerdict:
    """Exact per-level validation of the straight-line path.

    Level k checks, with prefixes p[:k]: (a) target pairs with distinct
    prefixes never share one at any u in (0, 1]; (b) target pairs with
    equal prefixes have origins with equal prefixes.  Each level reports
    its first offending pair.

    Coordinates are scaled once to integers by a common denominator.  One
    pass per pair walks them, carrying the common collision root num/den
    and whether the targets and the origins still agree; the state after
    k coordinates is the verdict at level k.  In a coordinate whose gap is
    s at u = 0 and e at u = 1 the strands meet at u = s/(s-e), nowhere
    when s = e != 0, and everywhere when s = e = 0.
    """
    path = ExitPath(source, target, tuple(mapping))
    scale = _common_denominator(source.points + target.points)
    src = _scaled(source.points, scale)
    ends = _scaled(target.points, scale)
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


def rescale_exit_path(path: ExitPath, factor) -> ExitPath:
    """Rescale both endpoints, re-indexing the mapping to canonical order."""
    factor = _as_fraction(factor)
    if factor == 0:
        raise ValueError("rescaling factor must be nonzero")
    src_scaled = [tuple(factor * c for c in p) for p in path.source.points]
    tgt_scaled = [tuple(factor * c for c in p) for p in path.target.points]
    return _reindexed_path(path.dimension, src_scaled, tgt_scaled, path.mapping)


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


def path_flags(path: ExitPath) -> tuple[bool, bool]:
    """(leaf bijection, levelwise surjection with nonempty endpoints)."""
    bijective = path.is_point_bijection
    if path.source.size == 0 or path.target.size == 0:
        return bijective, False
    surjective = True
    src = path.source.points
    tgt = path.target.points
    for k in range(1, path.dimension + 1):
        hit = {src[path.mapping[t]][:k] for t in range(len(tgt))}
        all_prefixes = {p[:k] for p in src}
        if hit != all_prefixes:
            surjective = False
            break
    return bijective, surjective


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
    return Configuration(dimension, tuple(tuple(map(Fraction, p)) for p in seen))


def _minimum_gap(points: list[tuple[int, ...]], dimension: int) -> int:
    """Smallest positive coordinate difference, 0 when none exists."""
    axes = (sorted({p[c] for p in points}) for c in range(dimension))
    return min((hi - lo for axis in axes for lo, hi in pairwise(axis)), default=0)


def random_exit_path(
    source: Configuration, seed: int, budget: int = 200
) -> ExitPath:
    """A certified path out of ``source``: split, keep, or drop each point.

    Every target point stays within a box of radius gap/4 around its
    origin, where gap is the smallest positive coordinate difference in
    the source; boxes of distinct origins therefore never meet at any
    projection level, and strands sharing an origin only touch at u = 0.
    The construction retries until the validator agrees.
    """
    rng = Random(seed)
    if source.size == 0:
        return build_exit_path(source, Configuration(source.dimension, ()), ())
    scale = _common_denominator(source.points)
    grid = _scaled(source.points, scale)
    # integers in units of 1/(16 scale): offsets are multiples of
    # gap/16, at most 3 per axis
    unit = 16 * scale
    step = _minimum_gap(grid, source.dimension) or scale
    for _ in range(budget):
        points: list[tuple[int, ...]] = []
        origins: list[int] = []
        for s_idx, base_point in enumerate(grid):
            multiplicity = rng.choices((0, 1, 2, 3), weights=(1, 6, 3, 1))[0]
            offsets: set[tuple[int, ...]] = set()
            while len(offsets) < multiplicity:
                offsets.add(
                    tuple(rng.randint(-3, 3) for _ in range(source.dimension))
                )
            for off in offsets:
                points.append(
                    tuple(16 * c + step * o for c, o in zip(base_point, off))
                )
                origins.append(s_idx)
        if len(set(points)) != len(points):
            continue  # cannot happen under the box bound; kept as a guard
        shift = tuple(
            unit * rng.randint(-2, 2) for _ in range(source.dimension)
        )
        shifted = [tuple(c + s for c, s in zip(p, shift)) for p in points]
        order = sorted(range(len(shifted)), key=shifted.__getitem__)
        target = Configuration(
            source.dimension,
            tuple(tuple(Fraction(c, unit) for c in shifted[i]) for i in order),
        )
        mapping = tuple(origins[i] for i in order)
        path = build_exit_path(source, target, mapping)
        if path.verdict is not None and path.verdict.valid:
            return path
    raise SamplingBudgetError(
        f"no valid exit path from {source} within {budget} attempts"
    )


# ---------------------------------------------------------------------------
# file formats


def parse_rational(text) -> Fraction:
    # bool is an int subclass; a JSON true is not the number 1
    if isinstance(text, (int, str)) and not isinstance(text, bool):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"rational {text!r} has a zero denominator") from None
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
            raise ValueError(
                "an empty point list needs an explicit dimension"
            )
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
        return json.load(handle)
