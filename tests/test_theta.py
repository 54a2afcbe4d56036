"""Tests for planar level trees and wreath-product morphisms.

Derived expectations are computed by independent means inside the test
(direct recursion, brute-force filtering) before being compared with the
library's answer; frozen literals carry a note saying how they were
obtained.
"""

from __future__ import annotations

import hashlib
import inspect
import random
import sys
from collections import Counter
from itertools import accumulate, chain, combinations_with_replacement, product
from math import comb

import pytest

from thetaran import theta
from thetaran.harness import _enumerate_w, verify_initiality
from thetaran.simplex import MonotoneMap, compose_delta, enumerate_delta_hom
from thetaran.theta import (
    _assemble_disjoint,
    _enumerate_plain,
    _injective_bases,
    _injective_row_bound,
    _injective_rows,
    CompositionError,
    ResourceCapError,
    ThetaMorphism,
    Tree,
    classify_morphism,
    compose_theta,
    count_filtered_hom,
    decorated_trees,
    empty_tree,
    enumerate_theta_hom,
    format_tree,
    healthy_trees,
    identity_theta,
    leaf_row,
    leaves,
    morphism_of_row,
    parse_tree,
    prune,
    verify_initiality_by_rows,
    w_hom_rows,
)


def truncate(obj: Tree | ThetaMorphism, level: int):
    """Forget all structure above the given level: for trees the vertices
    at levels > level, for morphisms the corresponding components,
    leaving the wreath datum of the truncated endpoints."""
    if isinstance(obj, Tree):
        return _truncate_tree(obj, level)
    if isinstance(obj, ThetaMorphism):
        return _truncate_morphism(obj, level)
    raise TypeError(f"cannot truncate {type(obj).__name__}")


def _truncate_tree(tree: Tree, level: int) -> Tree:
    if not (1 <= level <= tree.height):
        raise ValueError(f"level {level} outside 1..{tree.height}")
    if level == tree.height:
        return tree
    if level == 1:
        return Tree(1, tree.rank)
    return Tree(
        level, tree.rank, tuple(_truncate_tree(c, level - 1) for c in tree.children)
    )


def _truncate_morphism(m: ThetaMorphism, level: int) -> ThetaMorphism:
    if not (1 <= level <= m.height):
        raise ValueError(f"level {level} outside 1..{m.height}")
    if level == m.height:
        return m
    src = _truncate_tree(m.source, level)
    tgt = _truncate_tree(m.target, level)
    if level == 1:
        return ThetaMorphism(src, tgt, m.base)
    comps = tuple(_truncate_morphism(c, level - 1) for c in m.components)
    return ThetaMorphism(src, tgt, m.base, comps)


class TestTreeBasics:
    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Tree(0, 1)
        with pytest.raises(ValueError):
            Tree(1, -1)
        with pytest.raises(ValueError):
            Tree(1, 1, (Tree(1, 1),))
        with pytest.raises(ValueError):
            Tree(2, 2, (Tree(1, 1),))
        with pytest.raises(ValueError):
            Tree(3, 1, (Tree(1, 1),))  # child height must be 2

    def test_leaf_and_vertex_counts(self):
        t = parse_tree("[3]([1],[3],[0])")
        assert t.leaf_count == 4
        assert t.vertex_count == 7
        assert empty_tree(4).leaf_count == 0
        assert empty_tree(4).vertex_count == 0

    def test_health(self):
        assert parse_tree("[2]([1],[1])").is_healthy
        assert not parse_tree("[2]([0],[2])").is_healthy
        assert empty_tree(3).is_healthy
        # leafless but nonempty branches are unhealthy wherever they sit
        assert not parse_tree("[1]([1]([0]))").is_healthy
        assert not parse_tree("[2]([1]([1]),[1]([0]))").is_healthy

    def test_parse_format_roundtrip(self):
        texts = [
            "[0]",
            "[3]",
            "[2]([1],[1])",
            "[3]([1],[3],[0])",
            "[3]([1]([2]),[3]([0],[2],[0]),[0])",
        ]
        for text in texts:
            assert format_tree(parse_tree(text)) == text

    def test_parse_lifts_empty_siblings(self):
        t = parse_tree("[2]([1]([1]),[0])")
        assert t.children[1] == empty_tree(2)
        assert parse_tree("[0]", 3) == empty_tree(3)
        assert parse_tree("[0]()", 2) == empty_tree(2)

    def test_parse_rejections(self):
        for bad in ["", "[2]([1])", "[1]([1],[1])", "[1]([1)", "(1)", "[x]"]:
            with pytest.raises(ValueError):
                parse_tree(bad)
        with pytest.raises(ValueError):
            parse_tree("[1]([1])", 3)  # nonempty trees cannot be lifted
        with pytest.raises(ValueError):
            parse_tree("[1]([1])", 1)


class TestLayerDiagrams:
    def test_frozen_two_level_example(self):
        # four leaves over three root children, fiber sizes 1, 3, 0
        d = leaves(parse_tree("[3]([1],[3],[0])"))
        assert d.sizes == (4, 3)
        assert d.parent_maps == ((1, 2, 2, 2),)

    def test_empty_tree_layers(self):
        d = leaves(empty_tree(3))
        assert d.sizes == (0, 0, 0)
        assert all(row == () for row in d.parent_maps)

    def test_two_leaf_bijection(self):
        d = leaves(parse_tree("[2]([1],[1])"))
        assert d.sizes == (2, 2)
        assert d.parent_maps == ((1, 2),)

    def test_sizes_match_truncation_leaf_counts(self):
        t = parse_tree("[3]([1]([2]),[3]([0],[2],[0]),[0])")
        d = leaves(t)
        for lvl in range(1, t.height + 1):
            assert d.sizes[t.height - lvl] == truncate(t, lvl).leaf_count

    def test_level_projection_composes_parent_maps(self):
        # each leaf followed down the parent maps to the vertex below it
        t = parse_tree("[2]([2]([1],[1]),[2]([2],[1]))")
        d = leaves(t)
        projections = [tuple(range(1, d.sizes[0] + 1))]
        for row in d.parent_maps:
            projections.append(tuple(row[v - 1] for v in projections[-1]))
        assert projections == [(1, 2, 3, 4, 5), (1, 2, 3, 3, 4), (1, 1, 2, 2, 2)]

    def test_health_iff_all_layers_surjective(self):
        for t in decorated_trees(3, 3, 1):
            d = leaves(t)
            assert t.is_healthy == all(
                len(set(row)) == below
                for row, below in zip(d.parent_maps, d.sizes[1:])
            )


class TestComposition:
    def test_identity_neutral(self):
        t = parse_tree("[2]([1]([2]),[1]([1]))")
        s = parse_tree("[1]([1]([3]))")
        ident_t, ident_s = identity_theta(t), identity_theta(s)
        for m in enumerate_theta_hom(t, s):
            assert compose_theta(m, ident_t) == m
            assert compose_theta(ident_s, m) == m

    def test_height_one_reduces_to_delta(self):
        f = ThetaMorphism(Tree(1, 2), Tree(1, 1), MonotoneMap(2, 1, (0, 1, 1)))
        g = ThetaMorphism(Tree(1, 1), Tree(1, 2), MonotoneMap(1, 2, (0, 2)))
        composite = compose_theta(g, f)
        assert composite.base == compose_delta(g.base, f.base)
        assert composite.base.values == (0, 2, 2)

    def test_object_mismatch_raises(self):
        t = parse_tree("[1]([1])")
        s = parse_tree("[1]([2])")
        with pytest.raises(CompositionError):
            compose_theta(identity_theta(t), identity_theta(s))

    def test_associativity_exhaustive_small(self):
        a = parse_tree("[1]([2])")
        b = parse_tree("[2]([1],[1])")
        c = parse_tree("[1]([1])")
        fs = enumerate_theta_hom(a, b)
        gs = enumerate_theta_hom(b, c)
        hs = enumerate_theta_hom(c, b)
        for f, g, h in product(fs[:6], gs[:6], hs[:6]):
            left = compose_theta(h, compose_theta(g, f))
            right = compose_theta(compose_theta(h, g), f)
            assert left == right

    def test_leaf_rows_compose_contravariantly(self):
        t = parse_tree("[2]([1],[2])")
        u = parse_tree("[1]([2])")
        s = parse_tree("[2]([2],[1])")
        for f in enumerate_theta_hom(t, u):
            row_f = leaf_row(f)
            for g in enumerate_theta_hom(u, s):
                row_g = leaf_row(g)
                expected = tuple(
                    None if v is None else row_f[v - 1] for v in row_g
                )
                assert leaf_row(compose_theta(g, f)) == expected


class TestEnumeration:
    def test_frozen_hom_counts(self):
        # bases (0,0) and (1,1) contribute one morphism each, the active
        # base (0,1) contributes the 3 maps [1] -> [1]
        t = parse_tree("[1]([1])")
        homs = enumerate_theta_hom(t, t)
        assert len(homs) == 5
        assert len(enumerate_theta_hom(t, t, "active")) == 1
        assert enumerate_theta_hom(t, t, "active")[0] == identity_theta(t)

    def test_identity_always_present(self):
        for text in ["[0]", "[2]([0],[2])", "[2]([1]([2]),[1]([1]))"]:
            t = parse_tree(text)
            assert identity_theta(t) in enumerate_theta_hom(t, t)

    def test_counts_match_enumeration(self):
        pairs = [
            ("[1]([1])", "[1]([1])"),
            ("[2]([0],[2])", "[1]([2])"),
            ("[2]([1],[2])", "[2]([2],[1])"),
            ("[1]([1]([2]))", "[1]([2]([1],[1]))"),
        ]
        for src_text, tgt_text in pairs:
            s, t = parse_tree(src_text), parse_tree(tgt_text)
            assert count_filtered_hom(s, t) == len(enumerate_theta_hom(s, t))
            assert count_filtered_hom(s, t, "active") == len(
                enumerate_theta_hom(s, t, "active")
            )

    def test_no_duplicates(self):
        s = parse_tree("[2]([1],[2])")
        t = parse_tree("[2]([2],[1])")
        homs = enumerate_theta_hom(s, t)
        assert len(set(homs)) == len(homs)

    def test_filters_agree_with_classification(self):
        # w and equal-leaf exit into a healthy target are rebuilt from
        # rows, the rest filtered from the active hom-set: same morphisms
        # in the same order either way, healthy or unhealthy target
        pairs = [
            ("[2]([1],[2])", "[3]([1],[1],[1])"),
            ("[2]([1],[2])", "[3]([1],[0],[2])"),
            ("[1]([3])", "[2]([1],[2])"),
            ("[1]([2])", "[2]([1],[2])"),
        ]
        for source, target in pairs:
            s, t = parse_tree(source), parse_tree(target)
            active = enumerate_theta_hom(s, t, "active")
            assert active == tuple(
                m for m in enumerate_theta_hom(s, t) if classify_morphism(m).active
            )
            assert enumerate_theta_hom(s, t, "w") == tuple(
                m for m in active if classify_morphism(m).in_w
            )
            assert enumerate_theta_hom(s, t, "exit") == tuple(
                m for m in active if classify_morphism(m).exit
            )

    def test_height_one_counts_in_closed_form(self):
        for p, q in product(range(7), repeat=2):
            for active in (False, True):
                counted = "active" if active else "all"
                assert count_filtered_hom(Tree(1, p), Tree(1, q), counted) == len(
                    enumerate_delta_hom(p, q, active)
                )

    def test_filtered_counts_match_enumeration(self):
        # healthy and unhealthy targets, equal and unequal leaf counts
        trees = [
            parse_tree(text)
            for text in [
                "[1]([1])",
                "[1]([2])",
                "[2]([1],[1])",
                "[2]([0],[2])",
                "[2]([1],[2])",
                "[3]([1],[1],[1])",
            ]
        ]
        for s, t in product(trees, repeat=2):
            for morphism_filter in ("all", "active", "exit", "w"):
                assert count_filtered_hom(s, t, morphism_filter) == len(
                    enumerate_theta_hom(s, t, morphism_filter)
                )
        # the exit count decides from health and leaf counts where it can
        for height in (1, 2, 3):
            trees = [t for k in range(3) for t in decorated_trees(height, k, 1)]
            for s, t in product(trees, repeat=2):
                assert count_filtered_hom(s, t, "exit") == len(
                    enumerate_theta_hom(s, t, "exit")
                )

    def test_filtered_count_caps_before_listing(self):
        # 155,117,520 rows [30] -> [15] per child pair; nothing is listed
        s, t = parse_tree("[1]([30])"), parse_tree("[2]([15],[15])")
        with pytest.raises(ResourceCapError):
            count_filtered_hom(s, t, "w")
        assert count_filtered_hom(Tree(1, 30), Tree(1, 30), "w") == 1
        # no row reaches [1]([2]) from [2]([1],[1]), but the walk lists the
        # rows of the first child pair before it meets the empty second
        s = parse_tree("[2]([1]([30]),[2]([1],[1]))")
        t = parse_tree("[2]([2]([15],[15]),[1]([2]))")
        assert _injective_row_bound(s, t, 0) == comb(30, 15) ** 2
        with pytest.raises(ResourceCapError):
            count_filtered_hom(s, t, "w")

    def test_unknown_filter(self):
        t = parse_tree("[1]([1])")
        with pytest.raises(ValueError):
            enumerate_theta_hom(t, t, "bogus")

    def test_resource_cap(self):
        s = parse_tree("[2]([2],[2])")
        t = parse_tree("[3]([2],[2],[2])")
        with pytest.raises(ResourceCapError):
            enumerate_theta_hom(s, t, cap=10)


class TestClassification:
    def test_identity_on_healthy_tree(self):
        flags = classify_morphism(identity_theta(parse_tree("[2]([1],[1])")))
        assert flags.active and flags.exit and flags.in_w

    def test_unhealthy_source_blocks_exit(self):
        s = parse_tree("[2]([0],[2])")
        t = parse_tree("[1]([2])")
        w_homs = enumerate_theta_hom(s, t, "w")
        assert len(w_homs) == 1
        flags = classify_morphism(w_homs[0])
        assert flags.active and flags.in_w and not flags.exit

    def test_leaf_merge_blocks_w(self):
        two = parse_tree("[1]([2])")
        comp = ThetaMorphism(Tree(1, 2), Tree(1, 2), MonotoneMap(2, 2, (0, 2, 2)))
        m = ThetaMorphism(two, two, MonotoneMap(1, 1, (0, 1)), (comp,))
        flags = classify_morphism(m)
        assert flags.active
        assert leaf_row(m) == (1, 1)
        assert not flags.in_w and not flags.exit

    def test_ladders_commute(self):
        # the map on each level is the leaf row of the truncation to that
        # level; these maps commute with the layer diagrams' parent maps
        pairs = [
            ("[2]([1],[2])", "[2]([2],[1])"),
            ("[2]([1]([2]),[2]([1],[1]))", "[1]([2]([2],[1]))"),
        ]
        for src_text, tgt_text in pairs:
            s, t = parse_tree(src_text), parse_tree(tgt_text)
            src, tgt = leaves(s), leaves(t)
            for m in enumerate_theta_hom(s, t):
                rows = [leaf_row(truncate(m, lvl)) for lvl in range(m.height, 0, -1)]
                for d in range(m.height - 1):
                    for x, image in enumerate(rows[d], start=1):
                        if image is None:
                            continue
                        below_target = tgt.parent_maps[d][x - 1]
                        below_image = src.parent_maps[d][image - 1]
                        assert rows[d + 1][below_target - 1] == below_image

    def test_flags_closed_under_composition(self):
        a = parse_tree("[2]([1],[1])")
        b = parse_tree("[1]([2])")
        c = parse_tree("[2]([1],[1])")
        for f in enumerate_theta_hom(a, b):
            ff = classify_morphism(f)
            for g in enumerate_theta_hom(b, c):
                gf = classify_morphism(g)
                cf = classify_morphism(compose_theta(g, f))
                if ff.active and gf.active:
                    assert cf.active
                if ff.in_w and gf.in_w:
                    assert cf.in_w
                if ff.exit and gf.exit:
                    assert cf.exit


class TestTruncation:
    def test_frozen_height_three_chain(self):
        t = parse_tree("[3]([1]([2]),[3]([0],[2],[0]),[0])")
        assert truncate(t, 3) == t
        assert truncate(t, 2) == parse_tree("[3]([1],[3],[0])")
        assert truncate(t, 1) == parse_tree("[3]")

    def test_level_bounds(self):
        t = parse_tree("[2]([1],[1])")
        with pytest.raises(ValueError):
            truncate(t, 0)
        with pytest.raises(ValueError):
            truncate(t, 3)
        with pytest.raises(TypeError):
            truncate("[2]", 1)

    def test_morphism_truncation_is_functorial(self):
        s = parse_tree("[1]([1]([2]))")
        t = parse_tree("[2]([1]([1]),[1]([1]))")
        u = parse_tree("[1]([2]([1],[1]))")
        for f in enumerate_theta_hom(s, t):
            for g in enumerate_theta_hom(t, u):
                for lvl in (1, 2):
                    assert truncate(compose_theta(g, f), lvl) == compose_theta(
                        truncate(g, lvl), truncate(f, lvl)
                    )

    def test_classification_matches_levelwise_definition(self):
        # the definitions level by level, each level's map read from the
        # leaf row of the truncation to it: active = no level hits the
        # basepoint; in_w = active with a bijective leaf row; exit =
        # active, healthy nonempty endpoints, every level surjective.
        # classify_morphism reads the top row only.
        seen = set()
        for height in (2, 3):
            family = [t for k in range(3) for t in decorated_trees(height, k, 1)]
            for s in family:
                sizes = leaves(s).sizes
                for t in family:
                    if count_filtered_hom(s, t) > 60:
                        continue
                    for m in enumerate_theta_hom(s, t):
                        rows = [
                            leaf_row(truncate(m, lvl))
                            for lvl in range(height, 0, -1)
                        ]
                        active = all(None not in row for row in rows)
                        in_w = active and sorted(rows[0]) == list(
                            range(1, sizes[0] + 1)
                        )
                        exit_flag = (
                            active
                            and s.is_healthy
                            and t.is_healthy
                            and s.leaf_count > 0
                            and t.leaf_count > 0
                            and all(
                                set(row) == set(range(1, size + 1))
                                for row, size in zip(rows, sizes)
                            )
                        )
                        flags = classify_morphism(m)
                        assert (flags.active, flags.in_w, flags.exit) == (
                            active,
                            in_w,
                            exit_flag,
                        ), (format_tree(s), format_tree(t), m)
                        seen.add((active, in_w, exit_flag, s.is_healthy))
        # every kind of case occurred, unhealthy and non-active included
        assert {key[:3] for key in seen} == {
            (False, False, False),
            (True, False, False),
            (True, True, False),
            (True, False, True),
            (True, True, True),
        }
        assert any(not healthy and w for (_, w, _, healthy) in seen)


class TestPruning:
    def test_frozen_height_two_example(self):
        res = prune(parse_tree("[2]([0],[2])"))
        assert res.pruned == parse_tree("[1]([2])")
        assert res.morphism.base.values == (0, 0, 1)
        assert leaf_row(res.morphism) == (1, 2)

    def test_frozen_height_three_example(self):
        res = prune(parse_tree("[2]([1]([2]),[2]([0],[1]))"))
        assert res.pruned == parse_tree("[2]([1]([2]),[1]([1]))")

    def test_healthy_fixed_pointwise(self):
        for text in ["[0]", "[2]([1],[1])", "[2]([1]([2]),[1]([1]))"]:
            t = parse_tree(text)
            res = prune(t)
            assert res.pruned == t
            assert res.morphism == identity_theta(t)

    def test_laws_on_decorated_family(self):
        for t in decorated_trees(3, 3, 1):
            res = prune(t)
            # a tree is its own pruning exactly when it is healthy, the
            # test verify_initiality_by_rows reads
            assert (res.pruned == t) is t.is_healthy
            assert res.pruned.is_healthy
            assert res.pruned.leaf_count == t.leaf_count
            flags = classify_morphism(res.morphism)
            assert flags.active and flags.in_w
            again = prune(res.pruned)
            assert again.pruned == res.pruned
            assert again.morphism == identity_theta(res.pruned)

    def test_initiality_frozen_cases(self):
        assert verify_initiality(parse_tree("[2]([0],[2])"), 4).passed
        assert verify_initiality(parse_tree("[2]([1],[1])"), 4).passed
        assert verify_initiality(Tree(1, 3), 4).passed
        report = verify_initiality(parse_tree("[2]([1]([0]),[1]([2]))"), 4)
        assert report.passed
        assert report.morphisms_checked > 0
        with pytest.raises(ValueError):
            verify_initiality(parse_tree("[5]([1],[1],[1],[1],[1])"), 4)


def datum_values(m: ThetaMorphism) -> int:
    """The base values a wreath datum holds, counted by walking it."""
    return len(m.base.values) + sum(map(datum_values, m.components))


class TestListedValues:
    """Each listing's values are held to DEFAULT_HOM_CAP, compared exactly
    at the count (the cached functions run unwrapped, so a cached answer
    cannot hide the check)."""

    def test_prune_counts_vertices(self, monkeypatch):
        tree = parse_tree("[2]([0],[3])")  # 2 + 3 vertices
        monkeypatch.setattr(theta, "DEFAULT_HOM_CAP", 4)
        with pytest.raises(ResourceCapError, match="^5 vertices to prune exceed"):
            prune.__wrapped__(tree)
        monkeypatch.setattr(theta, "DEFAULT_HOM_CAP", 5)
        assert prune.__wrapped__(tree).pruned == parse_tree("[1]([3])")

    def test_layer_diagram_counts_parent_entries(self, monkeypatch):
        tree = parse_tree("[2]([3],[1])")  # 4 vertices above the root's 2
        monkeypatch.setattr(theta, "DEFAULT_HOM_CAP", 3)
        with pytest.raises(ResourceCapError, match="^4 parent-map entries exceed"):
            leaves.__wrapped__(tree)
        monkeypatch.setattr(theta, "DEFAULT_HOM_CAP", 4)
        assert leaves.__wrapped__(tree).parent_maps == ((1, 1, 1, 2),)

    def test_rows_count_rows_times_leaves(self, monkeypatch):
        # 2 rows of 2 leaves, bounded by 2 x 2 rows (the child pair
        # [2] -> [1] has 2 rows under each target child)
        s, t = parse_tree("[1]([2])"), parse_tree("[2]([1],[1])")
        assert _injective_row_bound(s, t, 0) == 4
        monkeypatch.setattr(theta, "DEFAULT_HOM_CAP", 7)
        with pytest.raises(ResourceCapError, match="^8 leaf-row values"):
            count_filtered_hom(s, t, "w")
        monkeypatch.setattr(theta, "DEFAULT_HOM_CAP", 8)
        assert count_filtered_hom(s, t, "w") == 2

    @pytest.mark.parametrize("source, target, morphism_filter, values", [
        ("[2]", "[1]", "all", 4 * 1 * 3),  # C(4, 1) data, one base of 3
        ("[1]([2])", "[2]([1],[1])", "w", 2 * 3 * 4),  # from 2 rows
    ])
    def test_listing_counts_data_times_bases(self, monkeypatch, source, target,
                                             morphism_filter, values):
        s, t = parse_tree(source), parse_tree(target)
        monkeypatch.setattr(theta, "DEFAULT_HOM_CAP", values - 1)
        with pytest.raises(ResourceCapError, match=f"^{values} datum values"):
            enumerate_theta_hom(s, t, morphism_filter)
        monkeypatch.setattr(theta, "DEFAULT_HOM_CAP", values)
        assert len(enumerate_theta_hom(s, t, morphism_filter)) == values // (
            t.vertex_count - t.leaf_count + 1) // (s.vertex_count + 1)

    def test_datum_bound_holds(self):
        # a base per target vertex below the leaf level, the root
        # included, each of at most source vertices + 1 values
        trees = [parse_tree(x) for x in ("[1]([0])", "[1]([2])", "[2]([1],[0])",
                                         "[2]([1],[2])", "[3]([0],[2],[1])")]
        checked = 0
        for s, t in product(trees, repeat=2):
            bound = (t.vertex_count - t.leaf_count + 1) * (s.vertex_count + 1)
            for m in enumerate_theta_hom(s, t):
                assert datum_values(m) <= bound
                checked += 1
        assert checked > 100


class TestHomRows:
    def test_rows_match_enumeration_exhaustively(self):
        # every decorated source, every healthy target, rows versus the
        # hom-set of the harness's wreath-level walk; length equality
        # doubles as the check that distinct morphisms into healthy
        # targets have distinct leaf rows
        for height, k in product((1, 2, 3), (0, 1, 2, 3)):
            for source in decorated_trees(height, k, 1):
                for target in healthy_trees(height, k):
                    direct = _enumerate_w(source, target)
                    rows = w_hom_rows(source, target)
                    assert len(rows) == len(direct)
                    assert set(rows) == {leaf_row(m) for m in direct}

    def test_w_enumeration_is_the_reference_walk(self):
        # into a healthy target the w hom-set is rebuilt from its rows and
        # sorted; that is the reference walk's hom-set in the same order
        for height, k in product((1, 2, 3), (0, 1, 2, 3)):
            for source in decorated_trees(height, k, 1):
                for target in healthy_trees(height, k):
                    assert enumerate_theta_hom(source, target, "w") == (
                        _enumerate_w(source, target)
                    )

    def test_bases_match_the_active_base_scan(self):
        # the scan of every active base, kept as the oracle: same bases in
        # the same order, leafless children on either side included; each
        # base read as its fiber plan, pairs from fiber_pairs made
        # zero-based, offsets the source leaves before the source child
        def scan(src, tgt):
            prefix = (0, *accumulate(tgt))
            return tuple(
                base
                for base in enumerate_delta_hom(len(src), len(tgt), True)
                if all(
                    prefix[base.values[i]] - prefix[base.values[i - 1]]
                    <= src[i - 1]
                    for i in range(1, len(src) + 1)
                )
            )

        def plan(src, base):
            offsets = (0, *accumulate(src))
            return tuple(
                (i - 1, j - 1, offsets[i - 1]) for i, j in theta.fiber_pairs(base)
            )

        for top, rank in ((1, 5), (3, 3)):
            profiles = [
                p for r in range(rank + 1) for p in product(range(top + 1), repeat=r)
            ]
            for src, tgt in product(profiles, repeat=2):
                plans = tuple(plan(src, base) for base in scan(src, tgt))
                assert _injective_bases(src, tgt) == plans

    def test_walk_pops_only_prefixes_whose_sums_agree(self):
        # with equal leaf totals every fiber must fill its source child:
        # the fit test bounds the prefix sum at v_i from above by the source
        # leaves through child i, and the room test from below, so the walk
        # pops exactly the prefixes (0, v_1, ..., v_i) whose sums agree with
        # the source's (v_p = q), counted here over all nondecreasing tuples;
        # a weaker room test follows prefixes that leave the children after
        # v_i more target leaves than they hold.  Pops are counted by
        # tracing the uncached walk's line events.
        walk = _injective_bases.__wrapped__
        lines, first = inspect.getsourcelines(walk)
        pop_line = first + next(
            n for n, line in enumerate(lines) if "= stack.pop()" in line
        )
        pops = 0

        def count(frame, event, arg):
            nonlocal pops
            pops += event == "line" and frame.f_lineno == pop_line
            return count

        def enter(frame, event, arg):
            return count if frame.f_code is walk.__code__ else None

        profiles = [p for r in (1, 2, 3) for p in product(range(3), repeat=r)]
        pairs = [(src, tgt) for src, tgt in product(profiles, repeat=2)
                 if sum(src) == sum(tgt)]
        pruned = 0
        for src, tgt in pairs:
            p, q = len(src), len(tgt)
            src_prefix = tuple(accumulate(src, initial=0))
            tgt_prefix = tuple(accumulate(tgt, initial=0))
            agreeing = sum(
                all(v == q if j == p else tgt_prefix[v] == src_prefix[j]
                    for j, v in enumerate(values, start=1))
                for i in range(p + 1)
                for values in combinations_with_replacement(range(q + 1), i)
            )
            fitting = sum(
                all(tgt_prefix[v] - tgt_prefix[u] <= src[j - 1]
                    for j, (u, v) in enumerate(zip((0,) + values, values), start=1))
                for i in range(p + 1)
                for values in combinations_with_replacement(range(q + 1), i)
                if i < p or values[-1] == q
            )
            pops = 0
            traced = sys.gettrace()
            sys.settrace(enter)
            try:
                plans = walk(src, tgt)
            finally:
                sys.settrace(traced)
            assert plans == _injective_bases(src, tgt)
            assert pops == agreeing, (src, tgt)
            pruned += fitting > agreeing
        # without the room test the walk would pop more on most of these
        assert (len(pairs), pruned) == (285, 228)

    def test_injective_rows_match_plain_enumeration(self):
        # the base filter skips bases that cannot carry an injective leaf
        # map; against the unfiltered active enumeration, nothing is lost,
        # also between unequal leaf counts
        for height, k in product((1, 2, 3), range(5)):
            for source in decorated_trees(height, k, 1):
                for target_k in range(k + 1):
                    for target in healthy_trees(height, target_k):
                        oracle = [
                            row
                            for row in map(
                                leaf_row, _enumerate_plain(source, target, True)
                            )
                            if len(set(row)) == len(row)
                        ]
                        rows = tuple(_injective_rows(source, target))
                        assert len(rows) == len(oracle)
                        assert set(rows) == set(oracle)

    @pytest.mark.parametrize(
        "fault",
        [
            lambda plan: (plan[0][:2] + (plan[0][2] + 1,),) + plan[1:],
            lambda plan: plan[:-1],
        ],
        ids=["shifted", "dropped"],
    )
    def test_planted_plan_fault_is_caught_by_plain_enumeration(
        self, monkeypatch, fault
    ):
        # one offset shifted, or one triple dropped, in the first fiber
        # plan of every profile pair: the rows disagree with the plain
        # enumeration's; the row verifier cannot see such a fault, as the
        # tree and its pruning read the same faulty plans, so only the
        # oracle catches it
        plans_of = theta._injective_bases

        def planted(src, tgt):
            plans = plans_of(src, tgt)
            if not plans or not plans[0]:
                return plans
            return (fault(plans[0]),) + plans[1:]

        source, target = parse_tree("[2]([1],[2])"), parse_tree("[3]([1],[1],[1])")
        oracle = {
            row
            for row in map(leaf_row, _enumerate_plain(source, target, True))
            if len(set(row)) == len(row)
        }
        assert oracle == set(_injective_rows(source, target)) == {
            (1, 2, 3), (1, 3, 2)
        }
        monkeypatch.setattr(theta, "_injective_bases", planted)
        assert set(_injective_rows(source, target)) != oracle
        unhealthy = parse_tree("[3]([1],[0],[2])")
        assert prune(unhealthy).pruned == source
        assert verify_initiality_by_rows(unhealthy, 4).passed

    def test_masked_rows_shift_and_group(self, monkeypatch):
        # each entry is a child row shifted by the offset with the OR of
        # its leaves' bits; by_mask groups the same rows by mask in list
        # order; at offset 0 the row tuples are the child's own (checked
        # uncached, on rows handed in)
        pairs = [
            (Tree(1, 4), Tree(1, 2)),
            (parse_tree("[2]([2],[2])"), parse_tree("[2]([1],[2])")),
            (parse_tree("[1]([3])"), parse_tree("[3]([1],[1],[1])")),
        ]
        for source, target in pairs:
            rows = _injective_rows(source, target)
            assert len(rows) > 1
            for offset in (0, 3):
                masked, by_mask = theta._masked_rows(source, target, offset)
                shifted = [tuple(v + offset for v in row) for row in rows]
                masks = []
                for row in shifted:
                    mask = 0
                    for v in row:
                        mask |= 1 << v
                    masks.append(mask)
                assert masked == tuple(zip(shifted, masks))
                grouped = {}
                for row, mask in zip(shifted, masks):
                    grouped.setdefault(mask, []).append(row)
                assert list(by_mask.items()) == [
                    (mask, tuple(group)) for mask, group in grouped.items()
                ]
            monkeypatch.setattr(theta, "_injective_rows", lambda s, t: rows)
            masked, _ = theta._masked_rows.__wrapped__(source, target, 0)
            assert all(a is b for (a, _), b in zip(masked, rows, strict=True))
            monkeypatch.undo()

    def test_row_bounds_cover_rows(self):
        for height, k in product((1, 2, 3), range(4)):
            for source in decorated_trees(height, k, 1):
                for target_k in range(k + 1):
                    for target in healthy_trees(height, target_k):
                        rows = len(tuple(_injective_rows(source, target)))
                        bound = _injective_row_bound(source, target, 0)
                        assert rows <= bound
                        if height == 1:
                            assert rows == bound

    def test_disjoint_assembly_is_filtered_product(self):
        # against the cartesian product in lexicographic order, keeping
        # the choices whose rows share no value (rows have no repeats);
        # with a cover holding every row, only the choices that use all
        # of it; 0-7 lists, as many as the child pairs of a height-2
        # target with 7 leaves
        def entry(rows):
            by_mask = {}
            for row in rows:
                by_mask.setdefault(sum(1 << v for v in row), []).append(row)
            return (
                tuple((row, sum(1 << v for v in row)) for row in rows),
                {mask: tuple(rows) for mask, rows in by_mask.items()},
            )

        rng = random.Random(5)
        covered = 0
        for _ in range(600):
            cover = rng.sample(range(8), rng.randrange(7))
            lists = [
                [
                    tuple(rng.sample(cover, rng.randrange(min(3, len(cover) + 1))))
                    for _ in range(rng.randrange(5))
                ]
                for _ in range(rng.randrange(8))
            ]
            disjoint = [
                tuple(chain.from_iterable(combo))
                for combo in product(*lists)
                if len(set(chain.from_iterable(combo))) == sum(map(len, combo))
            ]
            entries = [entry(rows) for rows in lists]
            assert _assemble_disjoint(entries) == disjoint
            exact = [row for row in disjoint if set(row) == set(cover)]
            mask = sum(1 << v for v in cover)
            assert _assemble_disjoint(entries, mask) == exact
            covered += bool(exact)
        assert covered > 100

    def test_frozen_shuffle_rows(self):
        src = parse_tree("[1]([2])")
        tgt = parse_tree("[2]([1],[1])")
        assert sorted(w_hom_rows(src, tgt)) == [(1, 2), (2, 1)]

    def test_full_permutations_on_singleton_fan(self):
        rows = w_hom_rows(parse_tree("[1]([3])"), parse_tree("[3]([1],[1],[1])"))
        assert sorted(rows) == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (2, 3, 1),
            (3, 1, 2),
            (3, 2, 1),
        ]

    def test_empty_trees_have_one_row(self):
        assert w_hom_rows(empty_tree(2), empty_tree(2)) == ((),)
        assert w_hom_rows(parse_tree("[2]([0],[0])"), empty_tree(2)) == ((),)

    def test_leaf_count_mismatch_has_no_rows(self):
        # equal heights, healthy target, two leaves into one
        assert w_hom_rows(parse_tree("[1]([2])"), parse_tree("[1]([1])")) == ()

    def test_rejects_unhealthy_target(self):
        with pytest.raises(ValueError):
            w_hom_rows(parse_tree("[1]([2])"), parse_tree("[2]([0],[2])"))

    def test_rejects_height_mismatch(self):
        with pytest.raises(ValueError):
            w_hom_rows(Tree(1, 2), parse_tree("[1]([2])"))

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            w_hom_rows(parse_tree("[1]([2])"), parse_tree("[2]([1],[1])"), cap=1)

    def test_cap_boundary(self):
        # the singleton fan has 3! = 6 rows: a cap of 6 lists them all,
        # a cap of 5 raises, also right after the same walk was listed
        source, target = parse_tree("[1]([3])"), parse_tree("[3]([1],[1],[1])")
        listed = w_hom_rows(source, target, cap=6)
        assert len(listed) == 6
        with pytest.raises(ResourceCapError, match="more than 5 leaf rows"):
            w_hom_rows(source, target, cap=5)

    def test_no_base_reads_no_child_rows(self, monkeypatch):
        # no active base sends leaf profile (2, 1) into (1, 2) injectively,
        # so the walk returns before any child pair's rows are read
        def unread(source, target, offset):
            raise AssertionError("child rows read without a base")

        monkeypatch.setattr(theta, "_masked_rows", unread)
        rows = w_hom_rows(parse_tree("[2]([1],[2])"), parse_tree("[2]([2],[1])"))
        assert rows == ()

    def test_duplicate_row_is_named(self, monkeypatch):
        # a child pair listing its first row twice makes two choices give
        # one row; the walk refuses and names the row
        masked_rows = theta._masked_rows

        def doubled(source, target, offset):
            masked, by_mask = masked_rows(source, target, offset)
            return masked[:1] + masked, {
                mask: rows[:1] + rows for mask, rows in by_mask.items()
            }

        monkeypatch.setattr(theta, "_masked_rows", doubled)
        # a rejected walk is not kept, so repeating it raises again
        for _ in range(2):
            with pytest.raises(RuntimeError) as info:
                w_hom_rows(parse_tree("[1]([2])"), parse_tree("[2]([1],[1])"))
            assert str(info.value) == (
                "duplicate leaf row (1, 2) for distinct morphisms "
                "[1]([2]) -> [2]([1],[1]); rows do not determine morphisms here"
            )

    def test_duplicate_row_is_the_repeated_one(self, monkeypatch):
        # the named row is the first one seen twice, not the first listed:
        # a base assembling its last row twice lists (1, 2), (2, 1), (2, 1)
        def repeated(entries, cover=None):
            rows = _assemble_disjoint(entries, cover)
            return rows + rows[-1:]

        monkeypatch.setattr(theta, "_assemble_disjoint", repeated)
        with pytest.raises(RuntimeError, match=r"^duplicate leaf row \(2, 1\) "):
            w_hom_rows(parse_tree("[1]([2])"), parse_tree("[2]([1],[1])"))

    def test_rows_pinned_in_order(self):
        # one-graft decorated sources of height 1-3 with at most 5 leaves
        # against every healthy target with as many: 76,700 pairs and
        # 186,291 rows; the digest of their reprs, in order, was taken
        # from the scan-only walk before the mask lookup replaced it
        digest = hashlib.sha256()
        pairs = rows = 0
        for height, k in product((1, 2, 3), range(6)):
            for source in decorated_trees(height, k, 1):
                for target in healthy_trees(height, k):
                    listed = w_hom_rows(source, target)
                    pairs += 1
                    rows += len(listed)
                    digest.update(repr(listed).encode())
        assert (pairs, rows) == (76700, 186291)
        assert digest.hexdigest() == (
            "634a21680a82294dd659de7e61ef0e4a36769b5cf8a2509742651c4cbb48c3e2"
        )

    def test_rows_pinned_for_six_and_seven_leaves(self):
        # one-graft decorated height-2 sources with 6 and 7 leaves against
        # every healthy target with as many, so up to 7 child lists per
        # base: 30,208 pairs and 249,808 rows; the digest of their reprs,
        # in order, was taken from the depth-first walk before the
        # level-wise assembly replaced it
        digest = hashlib.sha256()
        pairs = rows = 0
        for k in (6, 7):
            for source in decorated_trees(2, k, 1):
                for target in healthy_trees(2, k):
                    listed = w_hom_rows(source, target)
                    pairs += 1
                    rows += len(listed)
                    digest.update(repr(listed).encode())
        assert (pairs, rows) == (30208, 249808)
        assert digest.hexdigest() == (
            "447a7d8a33eed9580f464f8ae3f8cf3f805756420eb89e3b36e04e69551f2484"
        )

    def test_row_verifier_agrees_with_direct(self):
        for tree in decorated_trees(3, 3, 1) + decorated_trees(2, 4, 1):
            direct = verify_initiality(tree, 4)
            by_rows = verify_initiality_by_rows(tree, 4)
            assert direct.passed == by_rows.passed
            assert direct.targets_checked == by_rows.targets_checked
            assert direct.morphisms_checked == by_rows.morphisms_checked

    @pytest.mark.parametrize(
        "text, healthy",
        [("[2]([1],[2])", True), ("[3]([1],[0],[2])", False)],
    )
    def test_row_verifier_walks_each_side_once(self, monkeypatch, text, healthy):
        # a healthy tree is its own pruning, so its rows are listed once
        # per target through w_hom_rows; an unhealthy tree's rows are
        # assembled once per target, and its pruning's walk, equal to the
        # tree's, is gathered and never assembled
        tree = parse_tree(text)
        pruned = prune(tree).pruned
        assert (pruned == tree) is healthy
        read, gathered, assembled = Counter(), Counter(), Counter()
        w_hom_rows, gather, assemble = (
            theta.w_hom_rows, theta._gathered_walk, theta._assembled_rows)

        def counted_read(source, target, cap=theta.DEFAULT_HOM_CAP):
            read[source] += 1
            return w_hom_rows(source, target, cap)

        def counted_gather(source, target):
            gathered[source] += 1
            return gather(source, target)

        def counted_assemble(walk, source, target, cap):
            assembled[source] += 1
            return assemble(walk, source, target, cap)

        monkeypatch.setattr(theta, "w_hom_rows", counted_read)
        monkeypatch.setattr(theta, "_gathered_walk", counted_gather)
        monkeypatch.setattr(theta, "_assembled_rows", counted_assemble)
        report = verify_initiality_by_rows(tree, 4)
        targets = len(healthy_trees(2, 3))
        assert report.passed and report.targets_checked == targets
        if healthy:
            assert read == gathered == assembled == {tree: targets}
        else:
            assert read == {}
            assert gathered == {tree: targets, pruned: targets}
            assert assembled == {tree: targets}

    @pytest.mark.parametrize(
        "patch, counterexample",
        [
            (lambda rows: rows[::-1], None),
            (
                lambda rows: rows[:-1],
                "tree=[2]([0],[3]) target=[3]([1],[1],[1]) "
                "rows: 6 direct vs 5 factored, 5 shared",
            ),
            (
                lambda rows: rows + rows[:1],
                "tree=[2]([0],[3]) target=[3]([1],[1],[1]) "
                "rows: 6 direct vs 7 factored, 6 shared",
            ),
            (
                lambda rows: rows[:-1] + ((1, 1, 1),),
                "tree=[2]([0],[3]) target=[3]([1],[1],[1]) "
                "rows: 6 direct vs 6 factored, 5 shared",
            ),
        ],
        ids=["reordered", "dropped", "duplicated", "replaced"],
    )
    def test_row_verifier_compares_row_sets(
        self, monkeypatch, patch, counterexample
    ):
        # a reordering of the factored rows passes; a missing, repeated or
        # foreign row fails with the counts.  The pruned walk into the
        # patched target comes back as a tuple, never equal to the tree's
        # list, so it is assembled, and the patch applies to its rows
        tree = parse_tree("[2]([0],[3])")
        pruned = prune(tree).pruned
        patched = parse_tree("[3]([1],[1],[1])")
        gather, assemble = theta._gathered_walk, theta._assembled_rows

        def gathered(source, target):
            walk = gather(source, target)
            return tuple(walk) if (source, target) == (pruned, patched) else walk

        def factored(walk, source, target, cap):
            rows = assemble(list(walk), source, target, cap)
            if isinstance(walk, tuple):
                assert len(rows) == 6
                return patch(rows)
            return rows

        monkeypatch.setattr(theta, "_gathered_walk", gathered)
        monkeypatch.setattr(theta, "_assembled_rows", factored)
        report = verify_initiality_by_rows(tree, 4)
        assert report.passed is (counterexample is None)
        assert report.counterexample == counterexample

    def test_row_verifier_lists_a_changed_pruned_walk(self, monkeypatch):
        # [1]([2]([0],[3])) prunes to [1]([1]([3])): one child pair each
        # into [1]([3]([1],[1],[1])), equal in value, so the pruned walk
        # reuses the tree's rows; a row dropped from the pruned child's
        # rows alone is a different walk, listed anew and caught
        tree = parse_tree("[1]([2]([0],[3]))")
        child = prune(tree).pruned.children[0]
        target_child = parse_tree("[3]([1],[1],[1])")
        masked_rows = theta._masked_rows

        def dropped(source, target, offset):
            masked, by_mask = masked_rows(source, target, offset)
            if (source, target) != (child, target_child):
                return masked, by_mask
            gone = masked[-1][1]
            return masked[:-1], {**by_mask, gone: by_mask[gone][:-1]}

        monkeypatch.setattr(theta, "_masked_rows", dropped)
        report = verify_initiality_by_rows(tree, 4)
        assert not report.passed
        assert report.counterexample == (
            "tree=[1]([2]([0],[3])) target=[1]([3]([1],[1],[1])) "
            "rows: 6 direct vs 5 factored, 5 shared"
        )

    def test_pruning_unit_row_is_the_identity(self):
        # pruning drops leafless branches only, so over the criterion-4
        # family the unit's leaf row is (1..k) and the row verifier needs
        # no transport
        family = [
            tree
            for height in (1, 2, 3)
            for k in range(7)
            for tree in decorated_trees(height, k, 2 if k <= 3 else 1)
        ]
        assert len(family) == 4717
        for tree in family:
            row = leaf_row(prune(tree).morphism)
            assert row == tuple(range(1, tree.leaf_count + 1))

    def test_row_verifier_checks_the_unit_row(self, monkeypatch):
        # a unit whose leaf row swaps two leaves is the counterexample,
        # before any target is read
        tree = parse_tree("[2]([0],[2])")
        unit = prune(tree).morphism

        def swapped(m):
            row = leaf_row(m)
            return (row[1], row[0]) + row[2:] if m == unit else row

        monkeypatch.setattr(theta, "leaf_row", swapped)
        report = verify_initiality_by_rows(tree, 4)
        assert not report.passed
        assert report.targets_checked == report.morphisms_checked == 0
        assert report.counterexample == (
            "tree=[2]([0],[2]) unit leaf row (2, 1) is not (1..2)"
        )

    def test_row_verifier_bound(self):
        with pytest.raises(ValueError):
            verify_initiality_by_rows(parse_tree("[5]([1],[1],[1],[1],[1])"), 4)
        # six leaves by default
        assert verify_initiality_by_rows(Tree(1, 6)).passed
        with pytest.raises(ValueError, match="7 leaves, above the bound 6"):
            verify_initiality_by_rows(Tree(1, 7))


class TestMorphismOfRow:
    def test_inverts_leaf_row_both_ways(self):
        # one-graft decorated sources of height 1-3 with at most 4 leaves
        # against every healthy target with at most as many: each active
        # morphism with an injective row comes back from its row, and
        # each injective row from the morphism rebuilt from it
        rows = 0
        for height, k in product((1, 2, 3), range(5)):
            for source in decorated_trees(height, k, 1):
                for target_k in range(k + 1):
                    for target in healthy_trees(height, target_k):
                        for m in _enumerate_plain(source, target, True):
                            row = leaf_row(m)
                            if len(set(row)) == len(row):
                                assert morphism_of_row(source, target, row) == m
                        for row in _injective_rows(source, target):
                            m = morphism_of_row(source, target, row)
                            assert leaf_row(m) == row
                            rows += 1
        assert rows == 25373

    def test_rebuilds_exactly_the_active_rows(self):
        # every row of the right length and range: the leaf row of each
        # active morphism, injective or not, rebuilds it, and every other
        # row raises
        for height, k in product((1, 2, 3), range(4)):
            for source in decorated_trees(height, k, 1):
                for target_k in range(4):
                    for target in healthy_trees(height, target_k):
                        active = set()
                        for m in _enumerate_plain(source, target, True):
                            row = leaf_row(m)
                            assert morphism_of_row(source, target, row) == m
                            active.add(row)
                        for row in product(range(1, k + 1), repeat=target_k):
                            if row in active:
                                continue
                            with pytest.raises(ValueError):
                                morphism_of_row(source, target, row)

    @pytest.mark.parametrize(
        "source, target, row",
        [
            ("[2]", "[2]", (2, 1)),
            ("[2]([1],[1])", "[1]([2])", (1, 2)),
            ("[2]([1],[1])", "[2]([1],[1])", (2, 1)),
            ("[1]([2])", "[2]([1],[1])", (1,)),
            ("[1]([2])", "[2]([1],[1])", (1, 3)),
            ("[1]([2])", "[2]([1],[1])", (0, 1)),
            ("[1]([2])", "[2]([1],[1])", (1, None)),
            ("[1]([1])", "[2]([0],[1])", (1,)),
        ],
        ids=[
            "decreasing",
            "child-split",
            "level-map-decreasing",
            "short",
            "out-of-range",
            "zero",
            "basepoint",
            "unhealthy-target",
        ],
    )
    def test_rejects_rows(self, source, target, row):
        with pytest.raises(ValueError):
            morphism_of_row(parse_tree(source), parse_tree(target), row)

    def test_equal_inputs_share_one_morphism(self):
        # the rebuild is memoized: equal (source, target, row) give the
        # identical morphism, and equal child rows one component
        m = morphism_of_row(parse_tree("[2]([1],[1])"),
                            parse_tree("[2]([1],[1])"), (1, 2))
        again = morphism_of_row(parse_tree("[2]([1],[1])"),
                                parse_tree("[2]([1],[1])"), [1, 2])
        assert again is m and m == identity_theta(parse_tree("[2]([1],[1])"))
        assert m.components[0] is m.components[1]
        assert morphism_of_row(Tree(1, 1), Tree(1, 1), (1,)) is m.components[0]

    @pytest.mark.parametrize(
        "source, target, row, message",
        [
            ("[2]([1],[1])", "[1]([2])", (1, 2), "distinct source children"),
            ("[1]([2])", "[1]([2])", (2, 1), "not monotone"),
        ],
        ids=["root-level", "child-level"],
    )
    def test_rejected_row_raises_every_time(self, source, target, row, message):
        # a failure is never stored, at the root or below it
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                morphism_of_row(parse_tree(source), parse_tree(target), row)

    def test_rank_thirty_identity(self):
        fan = parse_tree("[30](" + ",".join(["[1]"] * 30) + ")")
        assert morphism_of_row(fan, fan, range(1, 31)) == identity_theta(fan)
        assert enumerate_theta_hom(fan, fan, "w") == (identity_theta(fan),)
        assert enumerate_theta_hom(fan, fan, "exit") == (identity_theta(fan),)


class TestFamilies:
    def test_healthy_counts(self):
        # height 2: compositions of k, so 2^(k-1); height 3: refine each
        # part again, 3^(k-1) in total
        for k in range(1, 6):
            assert len(healthy_trees(2, k)) == 2 ** (k - 1)
            assert len(healthy_trees(3, k)) == 3 ** (k - 1)
        assert healthy_trees(3, 0) == (empty_tree(3),)

    def test_healthy_trees_are_healthy_and_distinct(self):
        family = healthy_trees(3, 4)
        assert len(set(family)) == len(family)
        for t in family:
            assert t.is_healthy and t.leaf_count == 4 and t.height == 3

    def test_decorated_trees_extend_healthy(self):
        base = set(healthy_trees(2, 2))
        fam = set(decorated_trees(2, 2, 1))
        assert base <= fam
        assert parse_tree("[3]([0],[1],[1])") in fam
        assert parse_tree("[2]([0],[2])") in set(decorated_trees(2, 2, 1))
        deeper = set(decorated_trees(3, 1, 2))
        assert parse_tree("[2]([1]([0]),[1]([1]))") in deeper
        for t in fam:
            assert t.leaf_count == 2
