"""Tests for rational configurations, exit paths, and the induced functor."""

from __future__ import annotations

import hashlib
import json
import re
import time
from fractions import Fraction as Fr
from math import lcm
from random import Random

import pytest

from thetaran import config
from thetaran.config import (
    Configuration,
    ExitPath,
    InvalidExitPathError,
    LevelCheck,
    PathVerdict,
    SamplingBudgetError,
    compose_point_maps,
    configuration_from_json,
    exit_path_from_json,
    induced_morphism,
    morphism_of_exit_path,
    random_configuration,
    random_exit_path,
    realize_tree,
    tree_of_configuration,
    _as_fraction,
    _reindexed_path,
    validate_exit_path,
)
from thetaran.harness import run_suite
from thetaran.theta import (
    Tree,
    classify_morphism,
    compose_theta,
    decorated_trees,
    empty_tree,
    identity_theta,
    leaf_row,
    morphism_to_json,
    parse_tree,
    prune,
)


def is_point_bijection(path: ExitPath) -> bool:
    return (
        path.source.size == path.target.size
        and len(set(path.mapping)) == path.target.size
    )


def path_flags(path: ExitPath) -> tuple[bool, bool]:
    """(leaf bijection, levelwise surjection with nonempty endpoints),
    read off the points: the oracle for classify_morphism on paths."""
    bijective = is_point_bijection(path)
    if path.source.size == 0 or path.target.size == 0:
        return bijective, False
    src = path.source.points
    for k in range(1, path.dimension + 1):
        hit = {src[origin][:k] for origin in path.mapping}
        if hit != {p[:k] for p in src}:
            return bijective, False
    return bijective, True


def rescale_exit_path(path: ExitPath, factor) -> ExitPath:
    """Both endpoints times ``factor``, the mapping re-indexed to canonical
    order and the path certified again."""
    factor = _as_fraction(factor)
    if factor == 0:
        raise ValueError("rescaling factor must be nonzero")
    src_scaled = [tuple(factor * c for c in p) for p in path.source.points]
    tgt_scaled = [tuple(factor * c for c in p) for p in path.target.points]
    return _reindexed_path(path.dimension, src_scaled, tgt_scaled, path.mapping)


class TestConfiguration:
    def test_canonical_order_and_coercion(self):
        cfg = Configuration(2, [["3", "1/2"], [1, 4], [Fr(1), Fr(2)]])
        assert cfg.points == (
            (Fr(1), Fr(2)),
            (Fr(1), Fr(4)),
            (Fr(3), Fr(1, 2)),
        )
        assert cfg.size == 3

    def test_rejects_coincident_and_malformed(self):
        with pytest.raises(ValueError):
            Configuration(2, [[1, 2], [1, 2]])
        with pytest.raises(ValueError):
            Configuration(2, [[1, 2, 3]])
        with pytest.raises(ValueError):
            Configuration(0, [])
        with pytest.raises(TypeError):
            Configuration(1, [[1.5]])  # floats never enter verdicts
        with pytest.raises(TypeError):
            Configuration(1, [[True], [2]])  # nor bools, though ints
        with pytest.raises(ValueError, match="zero denominator"):
            Configuration(1, [["1/0"]])

    def test_reads_only_integer_and_fraction_text(self):
        # the documented forms, signed or not, are read exactly; decimal,
        # exponent, padded and grouped forms that Fraction would take are not
        cfg = Configuration(1, [["+3"], ["-1/2"], ["07"]])
        assert cfg.points == ((Fr(-1, 2),), (Fr(3),), (Fr(7),))
        for text in ("1e-2", "1.5", "2e1", " 1", "1_0", "1/-2", "/2", ""):
            with pytest.raises(ValueError, match="rationals must be"):
                Configuration(1, [[text]])


class TestTreeOfConfiguration:
    def test_frozen_shared_first_coordinate(self):
        cfg = Configuration(2, [[2, 1], [2, "5/2"]])
        assert tree_of_configuration(cfg) == parse_tree("[1]([2])")

    def test_frozen_distinct_first_coordinates(self):
        cfg = Configuration(2, [[2, 1], ["23/2", "5/2"]])
        assert tree_of_configuration(cfg) == parse_tree("[2]([1],[1])")

    def test_empty(self):
        assert tree_of_configuration(Configuration(2, ())) == empty_tree(2)

    def test_height_three(self):
        cfg = Configuration(3, [[0, 0, 0], [0, 0, 1], [0, 1, 0], [2, 0, 0]])
        assert tree_of_configuration(cfg) == parse_tree(
            "[2]([2]([2],[1]),[1]([1]))"
        )


def _tree_of_points(points, dimension):
    """The Fraction oracle for tree_of_configuration: group sorted points
    by first coordinate, drop it, recurse."""
    if not points:
        return empty_tree(dimension)
    if dimension == 1:
        return Tree(1, len(points))
    children = tuple(
        _tree_of_points(fiber, dimension - 1) for _, fiber in _fibers(points)
    )
    return Tree(dimension, len(children), children)


def _fibers(points):
    """Group sorted points by first coordinate and drop it, order kept."""
    out = []
    current = None
    bucket = []
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


def _on_grid(points, n: int, rng: Random) -> Configuration:
    """The points through the grid constructor, over a random multiple of
    their common denominator, listed in a random order."""
    scale = lcm(*(c.denominator for p in points for c in p)) * rng.randint(1, 5)
    grid = [tuple(int(c * scale) for c in p) for p in points]
    rng.shuffle(grid)
    return Configuration._from_grid(n, grid, scale)


class TestIntegerGrid:
    def test_grid_agrees_with_fractions(self):
        # points, tree, equality and hash against the Fraction route; the
        # validator on grids of unrelated scales against the level oracle
        rng = Random(20261019)
        for _ in range(2000):
            n = rng.randint(1, 4)
            drawn = [[] for _ in range(n)]
            ends = []
            for size in (rng.randint(1, 4), rng.randint(0, 5)):
                raw = _random_points(rng, drawn, size)
                expected = tuple(sorted(raw))
                cfg = Configuration(n, tuple(raw))
                assert cfg.points == expected
                assert tree_of_configuration(cfg) == _tree_of_points(expected, n)
                assert cfg.scale == lcm(*(c.denominator for p in raw for c in p))
                texts = [[f"{c.numerator}/{c.denominator}" for c in p] for p in raw]
                on_grid = _on_grid(raw, n, rng)
                for other in (Configuration(n, texts), on_grid):
                    assert other == cfg and hash(other) == hash(cfg)
                    assert (other.grid, other.scale) == (cfg.grid, cfg.scale)
                ends.append(on_grid)
            source, target = ends
            mapping = tuple(rng.randrange(source.size) for _ in range(target.size))
            assert repr(validate_exit_path(source, target, mapping)) == repr(
                _oracle_verdict(source, target, mapping)
            )

    def test_grid_constructor_reduces(self):
        cfg = Configuration._from_grid(2, [(6, 3), (3, 0)], 6)
        assert (cfg.grid, cfg.scale) == (((1, 0), (2, 1)), 2)
        assert cfg.points == ((Fr(1, 2), Fr(0)), (Fr(1), Fr(1, 2)))
        assert Configuration._from_grid(1, [], 5).scale == 1
        with pytest.raises(ValueError, match="coincident point"):
            Configuration._from_grid(1, [(2,), (4,), (2,)], 4)

    def test_functoriality_builds_no_fraction(self, monkeypatch):
        made = []

        class CountingFraction(Fr):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(config, "Fraction", CountingFraction)
        report = run_suite("functoriality", {"pairs": 50}, 1)
        assert report.passed and made == []
        # the boundary still builds them, through the counted name
        assert str(Configuration(1, [["1/2"]])) == "{(1/2)}" and made

    def test_one_tree_per_configuration(self, monkeypatch):
        # three configurations per case: start, middle and end
        walk = config._tree_of_grid
        built = []

        def counted(grid, height):
            built.append(grid)
            return walk(grid, height)

        monkeypatch.setattr(config, "_tree_of_grid", counted)
        for seed in range(4):
            built.clear()
            report = run_suite("functoriality", {"pairs": 1}, seed)
            assert report.passed and len(built) == 3

    def test_equal_shapes_share_one_tree(self):
        # nodes are interned: draws of one shape give the identical tree,
        # equal subtrees of distinct shapes are one object, and the
        # memoized rebuild returns one morphism for one shape and mapping
        shapes: dict[Tree, Configuration] = {}
        subtrees: dict[Tree, Tree] = {}
        for seed in range(40):
            cfg = random_configuration(2, 3, seed)
            tree = tree_of_configuration(cfg)
            drawn = shapes.setdefault(tree, cfg)
            assert tree_of_configuration(drawn) is tree
            for child in tree.children:
                assert subtrees.setdefault(child, child) is child
            assert induced_morphism(cfg, cfg, range(3)) is induced_morphism(
                drawn, drawn, range(3))
        assert len(shapes) < 40 and len(subtrees) < 3 * len(shapes)
        empty = tree_of_configuration(Configuration(3, ()))
        assert empty == empty_tree(3)
        assert tree_of_configuration(random_configuration(3, 0, 1)) is empty


class TestRealizeTree:
    def test_frozen_examples(self):
        assert realize_tree(parse_tree("[2]([1],[1])")).points == (
            (Fr(1), Fr(1)),
            (Fr(2), Fr(1)),
        )
        assert realize_tree(empty_tree(2)).points == ()
        # unhealthy trees realize their pruning: both leaves share the
        # first coordinate of the surviving branch
        cfg = realize_tree(parse_tree("[2]([0],[2])"))
        assert tree_of_configuration(cfg) == parse_tree("[1]([2])")

    def test_roundtrip_is_pruning(self):
        for t in decorated_trees(3, 4, 1):
            assert tree_of_configuration(realize_tree(t)) == prune(t).pruned

    def test_roundtrip_identity_on_healthy(self):
        for text in ["[2]([1],[1])", "[1]([3])", "[2]([1]([2]),[2]([1],[1]))"]:
            t = parse_tree(text)
            assert tree_of_configuration(realize_tree(t)) == t


def _oracle_verdict(source, target, mapping) -> PathVerdict:
    """Brute-force reference for validate_exit_path: every level from
    scratch, each pair's collision root solved anew in Fraction arithmetic."""
    levels = tuple(
        _oracle_level(source.points, target.points, mapping, k)
        for k in range(1, source.dimension + 1)
    )
    return PathVerdict(all(lv.ok for lv in levels), levels)


def _oracle_level(src, tgt, mapping, k) -> LevelCheck:
    collision = None
    incompatible = None
    for a in range(len(tgt)):
        for b in range(a + 1, len(tgt)):
            t_pref = tgt[a][:k]
            u_pref = tgt[b][:k]
            fa = src[mapping[a]][:k]
            fb = src[mapping[b]][:k]
            if t_pref == u_pref:
                if incompatible is None and fa != fb:
                    incompatible = (a, b)
                continue
            if collision is not None:
                continue
            hit = _strand_collision(fa, fb, t_pref, u_pref)
            if hit is not None:
                collision = (a, b, hit)
    return LevelCheck(
        level=k,
        separation_ok=collision is None,
        compatibility_ok=incompatible is None,
        collision=collision,
        incompatible=incompatible,
    )


def _strand_collision(start_a, start_b, end_a, end_b):
    """First u in (0, 1] where (1-u) start + u end coincide, if any."""
    root = None
    for sa, sb, ea, eb in zip(start_a, start_b, end_a, end_b):
        a = sa - sb  # difference at u = 0
        b = ea - eb  # difference at u = 1
        if a == b:
            if a != 0:
                return None  # constant nonzero gap in this coordinate
            continue  # identically zero, no constraint
        candidate = a / (a - b)
        if root is None:
            root = candidate
        elif root != candidate:
            return None
    if root is not None and 0 < root <= 1:
        return root
    return None


def _random_points(rng: Random, drawn: list[list], size: int) -> set:
    """``size`` distinct Fraction points in [-1, 1]^n, n = len(drawn),
    with denominators 1-6.

    Half the coordinates repeat one already drawn in the same position
    (``drawn`` keeps them per position), so shared prefixes are common.
    """

    def coordinate(c):
        if drawn[c] and rng.random() < 0.5:
            return rng.choice(drawn[c])
        den = rng.randint(1, 6)
        value = Fr(rng.randint(-den, den), den)
        drawn[c].append(value)
        return value

    out = set()
    while len(out) < size:
        out.add(tuple(coordinate(c) for c in range(len(drawn))))
    return out


def _random_validation_case(rng: Random):
    """Endpoints from _random_points and an arbitrary map: merges, splits
    and equal origins at a level are common."""
    n = rng.randint(1, 4)
    drawn = [[] for _ in range(n)]
    source = Configuration(n, tuple(_random_points(rng, drawn, rng.randint(0, 4))))
    size = rng.randint(0, 5) if source.size else 0
    target = Configuration(n, tuple(_random_points(rng, drawn, size)))
    mapping = tuple(rng.randrange(source.size) for _ in range(target.size))
    return source, target, mapping


class TestValidation:
    def test_validator_matches_levelwise_oracle(self):
        rng = Random(20261018)
        kinds = ("collision", "incompatible", "level one only", "shared origin")
        seen = dict.fromkeys(kinds + ("empty",), 0)
        for _ in range(6000):
            source, target, mapping = _random_validation_case(rng)
            verdict = validate_exit_path(source, target, mapping)
            expected = _oracle_verdict(source, target, mapping)
            assert repr(verdict) == repr(expected), (source, target, mapping)
            levels = expected.levels
            seen["collision"] += any(lv.collision for lv in levels)
            seen["incompatible"] += any(lv.incompatible for lv in levels)
            seen["level one only"] += (
                len(levels) > 1
                and levels[0].collision is not None
                and levels[1].collision is None
            )
            # strands split from one origin meet only at u = 0
            seen["shared origin"] += (
                len(set(mapping)) < len(mapping) and expected.valid
            )
            seen["empty"] += target.size == 0
        assert all(seen.values()), seen

    def test_frozen_split_is_valid(self):
        s = Configuration(1, [[0]])
        t = Configuration(1, [[-1], [1]])
        verdict = validate_exit_path(s, t, (0, 0))
        assert verdict.valid
        assert all(lv.ok for lv in verdict.levels)

    def test_frozen_swap_collides_halfway(self):
        s = Configuration(1, [[0], [1]])
        verdict = validate_exit_path(s, s, (1, 0))
        assert not verdict.valid
        check = verdict.levels[0]
        assert not check.separation_ok
        assert check.collision == (0, 1, Fr(1, 2))

    def test_identity_is_valid(self):
        cfg = Configuration(2, [[0, 0], [1, 3], [2, "1/3"]])
        assert validate_exit_path(cfg, cfg, (0, 1, 2)).valid

    def test_incompatible_merge(self):
        # two target points share a first coordinate but come from
        # distinct first coordinates: level 1 rejects the merge
        s = Configuration(2, [[0, 0], [4, 0]])
        t = Configuration(2, [[1, 0], [1, 1]])
        verdict = validate_exit_path(s, t, (0, 1))
        assert not verdict.valid
        level_one = verdict.levels[0]
        assert not level_one.compatibility_ok
        assert level_one.incompatible == (0, 1)

    def test_no_collision_is_pinned_at_u_one(self):
        # a pair that is apart never has its collision root at u = 1, so
        # `0 < num <= den` and `0 < num < den` decide alike.  The root
        # num/den = s/(s-e) is 1 only if the coordinate fixing it has
        # e = 0.  Being apart needs a coordinate with e != 0, and once the
        # root is 1 such a coordinate breaks the pass, either on s = e != 0
        # or on `num * (s - e) == s * den`, which with num = den reads
        # e = 0.  Here the first coordinates meet at u = 1 while the pair
        # is not apart: level 1 reports the merge of distinct origins and
        # no collision, level 2 passes
        s = Configuration(2, [[0, 0], [2, 0]])
        t = Configuration(2, [[1, 0], [1, 1]])
        verdict = validate_exit_path(s, t, (0, 1))
        level_one, level_two = verdict.levels
        assert level_one.collision is None and level_one.separation_ok
        assert level_one.incompatible == (0, 1)
        assert not level_one.compatibility_ok
        assert level_two.ok and level_two.collision is None
        assert level_two.incompatible is None

    def test_level_one_crossing_caught(self):
        # strands cross in the first coordinate while staying apart in
        # the plane: level 2 passes, level 1 does not
        s = Configuration(2, [[0, 0], [1, 5]])
        t = Configuration(2, [[0, 5], [1, 0]])
        verdict = validate_exit_path(s, t, (1, 0))
        assert not verdict.valid
        assert not verdict.levels[0].separation_ok
        assert verdict.levels[1].separation_ok

    def test_endpoint_touch_counts(self):
        # coincident targets are rejected before validation starts
        with pytest.raises(ValueError):
            Configuration(1, [[1], ["1/1"]])
        # crossing strands meet strictly inside (0, 1]
        s = Configuration(1, [[0], [2]])
        t = Configuration(1, [[1], [3]])
        verdict = validate_exit_path(s, t, (1, 0))
        assert not verdict.valid

    def test_mapping_shape_errors(self):
        s = Configuration(1, [[0]])
        t = Configuration(2, [[0, 0]])
        with pytest.raises(ValueError):
            ExitPath(s, t, (0,))
        with pytest.raises(ValueError):
            ExitPath(s, s, ())
        with pytest.raises(ValueError):
            ExitPath(s, s, (3,))


class TestInducedMorphism:
    def test_frozen_height_one_base(self):
        s = Configuration(1, [[0], [1], [2]])
        t = Configuration(1, [["-1/2"], ["1/2"], ["3/2"]])
        m = morphism_of_exit_path(ExitPath(s, t, (0, 0, 1)))
        assert m.base.values == (0, 2, 3, 3)

    def test_identity_path_gives_identity(self):
        cfg = Configuration(2, [[0, 0], [1, 3], [2, "1/3"]])
        path = ExitPath(cfg, cfg, (0, 1, 2))
        m = morphism_of_exit_path(path)
        assert m == identity_theta(tree_of_configuration(cfg))

    def test_frozen_height_two_collapse(self):
        s = Configuration(2, [[1, 1], [2, 1]])
        t = Configuration(2, [[1, 1], [1, 2], [2, 1]])
        m = morphism_of_exit_path(ExitPath(s, t, (0, 0, 1)))
        assert m.base.values == (0, 1, 2)
        assert m.components[0].base.values == (0, 2)
        assert m.components[1].base.values == (0, 1)

    def test_verdict_gate(self):
        # every path carries the verdict its construction computed
        s = Configuration(1, [[0], [1]])
        kept = ExitPath(s, s, (0, 1))
        assert kept.verdict == validate_exit_path(s, s, (0, 1))
        assert morphism_of_exit_path(kept) == identity_theta(Tree(1, 2))
        swapped = ExitPath(s, s, (1, 0))
        assert swapped.verdict == validate_exit_path(s, s, (1, 0))
        assert not swapped.verdict.valid
        with pytest.raises(InvalidExitPathError):
            morphism_of_exit_path(swapped)
        with pytest.raises(TypeError):
            ExitPath(s, s, (0, 1), swapped.verdict)  # no verdict is handed in

    def test_induced_rejects_incoherent_data(self):
        s = Configuration(2, [[1, 1], [2, 1]])
        t = Configuration(2, [[1, 1], [1, 2]])
        with pytest.raises(ValueError):
            induced_morphism(s, t, (0, 1))
        line = Configuration(1, [[0], [1]])
        with pytest.raises(ValueError):
            induced_morphism(line, line, (1, 0))

    def test_leaf_map_is_point_assignment(self):
        for seed in range(20):
            cfg = random_configuration(2, 3, seed)
            path = random_exit_path(cfg, seed + 50)
            m = morphism_of_exit_path(path)
            assert leaf_row(m) == tuple(v + 1 for v in path.mapping)

    def test_flags_match_classification(self):
        for seed in range(20):
            cfg = random_configuration(3, 3, seed)
            path = random_exit_path(cfg, seed + 90)
            flags = classify_morphism(morphism_of_exit_path(path))
            bijective, surjective = path_flags(path)
            assert flags.active
            assert flags.in_w == bijective
            assert flags.exit == surjective

    def test_functoriality_sample(self):
        for seed in range(10):
            for n in (1, 2, 3):
                start = random_configuration(n, 3, seed * 7 + n)
                first = random_exit_path(start, seed * 11 + n)
                second = random_exit_path(first.target, seed * 13 + n)
                composite = compose_point_maps(second.mapping, first.mapping)
                direct = induced_morphism(start, second.target, composite)
                staged = compose_theta(
                    morphism_of_exit_path(second), morphism_of_exit_path(first)
                )
                assert direct == staged

    @pytest.mark.parametrize("n", [5, 6])
    def test_deep_induced_morphism_reads_configuration_trees(self, n):
        for seed in range(3):
            start = random_configuration(n, 8, seed)
            path = random_exit_path(start, seed + 1)
            m = induced_morphism(path.source, path.target, path.mapping)
            assert m.source == tree_of_configuration(path.source)
            assert m.target == tree_of_configuration(path.target)
            assert leaf_row(m) == tuple(v + 1 for v in path.mapping)
            assert m == morphism_of_exit_path(path)

    def test_compose_point_maps(self):
        assert compose_point_maps((1, 0, 1), (2, 5)) == (5, 2, 5)
        assert compose_point_maps((), (0, 1)) == ()


class TestRescaleInvariance:
    def test_verdicts_survive_rescaling(self):
        factors = (Fr(3, 7), Fr(-2, 3), 5, Fr(-1), Fr(1, 12))
        checked = 0
        for seed in range(25):
            cfg = random_configuration(2, 3, seed)
            path = random_exit_path(cfg, seed + 500)
            for factor in factors:
                scaled = rescale_exit_path(path, factor)
                assert scaled.verdict.valid == path.verdict.valid
                checked += 1
        assert checked >= 100

    def test_positive_rescale_keeps_morphism(self):
        cfg = Configuration(2, [[0, 0], [1, 2]])
        path = random_exit_path(cfg, 3)
        scaled = rescale_exit_path(path, Fr(5, 3))
        assert morphism_of_exit_path(scaled) == morphism_of_exit_path(path)


class TestGenerators:
    def test_deterministic(self):
        a = random_configuration(2, 4, 99)
        b = random_configuration(2, 4, 99)
        assert a == b
        pa = random_exit_path(a, 7)
        pb = random_exit_path(b, 7)
        assert pa.target == pb.target and pa.mapping == pb.mapping

    def test_frozen_shapes(self):
        assert random_configuration(2, 0, 1).size == 0
        cfg = random_configuration(2, 3, 7)
        assert cfg.size == 3
        assert len(set(cfg.points)) == 3
        empty = Configuration(2, ())
        path = random_exit_path(empty, 4)
        assert path.target.size == 0 and path.mapping == ()
        assert path.verdict.valid
        # the general draw: no point to move, the empty certified path
        assert path == ExitPath(empty, empty, ())

    def test_large_configuration_within_budget(self):
        # about 400 targets, so 80,000 pairs: one integer pass each, where
        # recomputing Fraction roots at every level takes seconds
        cfg = random_configuration(3, 300, seed=1)
        started = time.perf_counter()
        path = random_exit_path(cfg, seed=1)
        assert time.perf_counter() - started < 3.0
        assert path.verdict.valid and path.target.size > 300

    def test_sampled_paths_are_valid(self):
        for seed in range(15):
            cfg = random_configuration(2, 4, seed)
            path = random_exit_path(cfg, seed)
            assert path.verdict.valid

    def test_budget_errors(self):
        with pytest.raises(SamplingBudgetError):
            random_configuration(1, 2, 0, budget=1)
        with pytest.raises(ValueError):
            random_configuration(0, 1, 0)

    def test_rejected_draw_is_an_invalid_path(self, monkeypatch):
        # the box argument makes the one draw valid; a validator that
        # disagrees refutes it, and the path is not redrawn
        def reject(source, target, mapping):
            return PathVerdict(False, ())

        monkeypatch.setattr(config, "validate_exit_path", reject)
        cfg = random_configuration(2, 3, 1)
        with pytest.raises(InvalidExitPathError, match=re.escape(str(cfg))):
            random_exit_path(cfg, 5)

    def test_each_path_is_built_once(self, monkeypatch):
        # a functoriality case draws two paths; the validator checks their
        # shape without a throwaway ExitPath, so each is constructed once
        built = []
        check = ExitPath.__post_init__

        def counted(path):
            built.append(path)
            check(path)

        monkeypatch.setattr(ExitPath, "__post_init__", counted)
        report = run_suite("functoriality", {"pairs": 50}, 1)
        assert report.passed and report.cases == 50
        assert len(built) == 2 * report.cases

    def test_draws_are_pinned(self):
        # the cases of the functoriality suite at pairs=2000, seed 1: the
        # start, both paths and the direct morphism, digest taken before
        # the retry loop went
        digest = hashlib.sha256()
        seed, dims = 1, (1, 2, 3)
        for i in range(2000):
            base = seed + 3 * i
            k = Random(base).randint(0, 5)
            start = random_configuration(dims[i % 3], k, seed=base)
            first = random_exit_path(start, seed=base + 1)
            second = random_exit_path(first.target, seed=base + 2)
            direct = induced_morphism(
                start, second.target,
                compose_point_maps(second.mapping, first.mapping),
            )
            for part in (start, first.target, second.target, first.mapping,
                         second.mapping, first.verdict, second.verdict):
                digest.update(repr(part).encode())
            digest.update(
                json.dumps(morphism_to_json(direct), sort_keys=True).encode()
            )
        assert digest.hexdigest() == (
            "d26be4053ad1c532b6c9a3364006e691a8d2a658c2299d151100871e0d83e0ca"
        )


class TestFileFormats:
    def test_configuration_from_json(self):
        cfg = Configuration(2, [[1, "1/2"], ["-3/4", 2]])
        assert configuration_from_json([["1", "1/2"], ["-3/4", 2]]) == cfg
        assert configuration_from_json([], dimension=3) == Configuration(3, ())
        with pytest.raises(ValueError):
            configuration_from_json([])
        with pytest.raises(ValueError):
            configuration_from_json([[1.5]])

    def test_exit_path_file_order_reindexed(self):
        # file lists points out of order; indices refer to file positions
        doc = {
            "dimension": 1,
            "source": [["1"], ["0"]],
            "target": [["3/2"], ["-1"]],
            "map": [0, 1],
        }
        path = exit_path_from_json(doc)
        assert path.source.points == ((Fr(0),), (Fr(1),))
        assert path.mapping == (0, 1)
        assert path.verdict.valid

    def test_exit_path_schema_errors(self):
        base = {
            "dimension": 1,
            "source": [["0"]],
            "target": [["1"]],
            "map": [0, 0],
        }
        with pytest.raises(ValueError):
            exit_path_from_json(base)
        base["map"] = [2]
        with pytest.raises(ValueError):
            exit_path_from_json(base)
