"""Tests for rational configurations, exit paths, and the induced functor."""

from __future__ import annotations

import time
from fractions import Fraction as Fr
from random import Random

import pytest

from thetaran.config import (
    Configuration,
    ExitPath,
    InvalidExitPathError,
    LevelCheck,
    PathVerdict,
    SamplingBudgetError,
    build_exit_path,
    compose_point_maps,
    configuration,
    configuration_from_json,
    exit_path_from_json,
    induced_morphism,
    morphism_of_exit_path,
    path_flags,
    random_configuration,
    random_exit_path,
    realize_tree,
    rescale_exit_path,
    tree_of_configuration,
    validate_exit_path,
)
from thetaran.theta import (
    classify_morphism,
    compose_theta,
    decorated_trees,
    empty_tree,
    identity_theta,
    leaf_row,
    parse_tree,
    prune,
)


class TestConfiguration:
    def test_canonical_order_and_coercion(self):
        cfg = configuration(2, [["3", "1/2"], [1, 4], [Fr(1), Fr(2)]])
        assert cfg.points == (
            (Fr(1), Fr(2)),
            (Fr(1), Fr(4)),
            (Fr(3), Fr(1, 2)),
        )
        assert cfg.size == 3

    def test_rejects_coincident_and_malformed(self):
        with pytest.raises(ValueError):
            configuration(2, [[1, 2], [1, 2]])
        with pytest.raises(ValueError):
            configuration(2, [[1, 2, 3]])
        with pytest.raises(ValueError):
            configuration(0, [])
        with pytest.raises(TypeError):
            configuration(1, [[1.5]])  # floats never enter verdicts
        with pytest.raises(TypeError):
            configuration(1, [[True], [2]])  # nor bools, though ints
        with pytest.raises(ValueError, match="zero denominator"):
            configuration(1, [["1/0"]])


class TestTreeOfConfiguration:
    def test_frozen_shared_first_coordinate(self):
        cfg = configuration(2, [[2, 1], [2, "5/2"]])
        assert tree_of_configuration(cfg) == parse_tree("[1]([2])")

    def test_frozen_distinct_first_coordinates(self):
        cfg = configuration(2, [[2, 1], ["23/2", "5/2"]])
        assert tree_of_configuration(cfg) == parse_tree("[2]([1],[1])")

    def test_empty(self):
        assert tree_of_configuration(Configuration(2, ())) == empty_tree(2)

    def test_height_three(self):
        cfg = configuration(3, [[0, 0, 0], [0, 0, 1], [0, 1, 0], [2, 0, 0]])
        assert tree_of_configuration(cfg) == parse_tree(
            "[2]([2]([2],[1]),[1]([1]))"
        )


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


def _random_validation_case(rng: Random):
    """Endpoints in [-1, 1]^n with denominators 1-6 and an arbitrary map.

    Half the coordinates repeat one already drawn in the same position,
    so shared prefixes (merges, splits, equal origins at a level) are
    common.
    """
    n = rng.randint(1, 4)
    drawn = [[] for _ in range(n)]

    def coordinate(c):
        if drawn[c] and rng.random() < 0.5:
            return rng.choice(drawn[c])
        den = rng.randint(1, 6)
        value = Fr(rng.randint(-den, den), den)
        drawn[c].append(value)
        return value

    def points(size):
        out = set()
        while len(out) < size:
            out.add(tuple(coordinate(c) for c in range(n)))
        return Configuration(n, tuple(out))

    source = points(rng.randint(0, 4))
    target = points(rng.randint(0, 5) if source.size else 0)
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
        s = configuration(1, [[0]])
        t = configuration(1, [[-1], [1]])
        verdict = validate_exit_path(s, t, (0, 0))
        assert verdict.valid
        assert all(lv.ok for lv in verdict.levels)

    def test_frozen_swap_collides_halfway(self):
        s = configuration(1, [[0], [1]])
        verdict = validate_exit_path(s, s, (1, 0))
        assert not verdict.valid
        check = verdict.levels[0]
        assert not check.separation_ok
        assert check.collision == (0, 1, Fr(1, 2))

    def test_identity_is_valid(self):
        cfg = configuration(2, [[0, 0], [1, 3], [2, "1/3"]])
        assert validate_exit_path(cfg, cfg, (0, 1, 2)).valid

    def test_incompatible_merge(self):
        # two target points share a first coordinate but come from
        # distinct first coordinates: level 1 rejects the merge
        s = configuration(2, [[0, 0], [4, 0]])
        t = configuration(2, [[1, 0], [1, 1]])
        verdict = validate_exit_path(s, t, (0, 1))
        assert not verdict.valid
        level_one = verdict.levels[0]
        assert not level_one.compatibility_ok
        assert level_one.incompatible == (0, 1)

    def test_level_one_crossing_caught(self):
        # strands cross in the first coordinate while staying apart in
        # the plane: level 2 passes, level 1 does not
        s = configuration(2, [[0, 0], [1, 5]])
        t = configuration(2, [[0, 5], [1, 0]])
        verdict = validate_exit_path(s, t, (1, 0))
        assert not verdict.valid
        assert not verdict.levels[0].separation_ok
        assert verdict.levels[1].separation_ok

    def test_endpoint_touch_counts(self):
        # coincident targets are rejected before validation starts
        with pytest.raises(ValueError):
            configuration(1, [[1], ["1/1"]])
        # crossing strands meet strictly inside (0, 1]
        s = configuration(1, [[0], [2]])
        t = configuration(1, [[1], [3]])
        verdict = validate_exit_path(s, t, (1, 0))
        assert not verdict.valid

    def test_mapping_shape_errors(self):
        s = configuration(1, [[0]])
        t = configuration(2, [[0, 0]])
        with pytest.raises(ValueError):
            ExitPath(s, t, (0,))
        with pytest.raises(ValueError):
            ExitPath(s, s, ())
        with pytest.raises(ValueError):
            ExitPath(s, s, (3,))


class TestInducedMorphism:
    def test_frozen_height_one_base(self):
        s = configuration(1, [[0], [1], [2]])
        t = configuration(1, [["-1/2"], ["1/2"], ["3/2"]])
        m = morphism_of_exit_path(build_exit_path(s, t, (0, 0, 1)))
        assert m.base.values == (0, 2, 3, 3)

    def test_identity_path_gives_identity(self):
        cfg = configuration(2, [[0, 0], [1, 3], [2, "1/3"]])
        path = build_exit_path(cfg, cfg, (0, 1, 2))
        m = morphism_of_exit_path(path)
        assert m == identity_theta(tree_of_configuration(cfg))

    def test_frozen_height_two_collapse(self):
        s = configuration(2, [[1, 1], [2, 1]])
        t = configuration(2, [[1, 1], [1, 2], [2, 1]])
        m = morphism_of_exit_path(build_exit_path(s, t, (0, 0, 1)))
        assert m.base.values == (0, 1, 2)
        assert m.components[0].base.values == (0, 2)
        assert m.components[1].base.values == (0, 1)

    def test_verdict_gate(self):
        s = configuration(1, [[0], [1]])
        bare = ExitPath(s, s, (0, 1))  # no certificate attached
        with pytest.raises(InvalidExitPathError):
            morphism_of_exit_path(bare)
        swapped = build_exit_path(s, s, (1, 0))
        with pytest.raises(InvalidExitPathError):
            morphism_of_exit_path(swapped)

    def test_induced_rejects_incoherent_data(self):
        s = configuration(2, [[1, 1], [2, 1]])
        t = configuration(2, [[1, 1], [1, 2]])
        with pytest.raises(ValueError):
            induced_morphism(s, t, (0, 1))
        line = configuration(1, [[0], [1]])
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
            assert flags.in_w == bijective == path.is_point_bijection
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
        cfg = configuration(2, [[0, 0], [1, 2]])
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
            assert path.verdict is not None and path.verdict.valid

    def test_budget_errors(self):
        with pytest.raises(SamplingBudgetError):
            random_configuration(1, 2, 0, budget=1)
        cfg = random_configuration(2, 3, 1)
        with pytest.raises(SamplingBudgetError):
            random_exit_path(cfg, 5, budget=0)
        with pytest.raises(ValueError):
            random_configuration(0, 1, 0)


class TestFileFormats:
    def test_configuration_from_json(self):
        cfg = configuration(2, [[1, "1/2"], ["-3/4", 2]])
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
