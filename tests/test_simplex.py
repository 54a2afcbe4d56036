"""Monotone maps, pointed maps, and the circle construction.

The independent oracle for the circle construction: the image of j under
gamma(f) can be read off by composing f with the j-th step map
[q] -> [1] (0 below j, 1 from j up).  The composite is a step map again
exactly when some fiber boundary crosses j, and its own step position is
the preimage index; constant composites mean j fell off the ends.
"""

from __future__ import annotations

import pytest

from thetaran.simplex import (
    CompositionError,
    MonotoneMap,
    PointedMap,
    compose_delta,
    compose_pointed,
    enumerate_delta_hom,
    identity_delta,
    identity_pointed,
    simplicial_circle,
)


def step_map(q: int, j: int) -> MonotoneMap:
    """[q] -> [1]: values 0 strictly below j, 1 from j on."""
    return MonotoneMap(q, 1, tuple(0 if v < j else 1 for v in range(q + 1)))


def circle_by_steps(f: MonotoneMap) -> PointedMap:
    """Oracle: gamma via precomposition with every step map."""
    pairs = []
    for j in range(1, f.target_rank + 1):
        composite = compose_delta(step_map(f.target_rank, j), f)
        values = composite.values
        if values[0] == 1 or values[-1] == 0:
            continue  # constant on one side: basepoint
        i = values.index(1)
        pairs.append((j, i))
    return PointedMap(f.target_rank, f.source_rank, tuple(pairs))


RANKS = range(0, 6)


def all_pairs():
    for p in RANKS:
        for q in RANKS:
            yield p, q


class TestMonotoneMap:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            MonotoneMap(2, 3, (0, 2, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MonotoneMap(1, 2, (0, 3))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            MonotoneMap(2, 2, (0, 1))

    def test_text_form(self):
        assert str(MonotoneMap(2, 3, (0, 1, 3))) == "(0,1,3)"
        assert str(MonotoneMap(0, 0, (0,))) == "(0)"

    def test_identity_and_composition(self):
        f = MonotoneMap(2, 3, (0, 2, 3))
        assert compose_delta(identity_delta(3), f) == f
        assert compose_delta(f, identity_delta(2)) == f

    def test_composition_mismatch(self):
        f = MonotoneMap(1, 2, (0, 1))
        with pytest.raises(CompositionError):
            compose_delta(f, f)

    def test_enumeration_counts(self):
        # monotone maps [p] -> [q] are multisets: C(p+q+1, p+1)
        from math import comb

        for p, q in all_pairs():
            expected = comb(p + q + 1, p + 1)
            assert len(enumerate_delta_hom(p, q)) == expected

    def test_enumeration_distinct_and_sorted(self):
        for p, q in all_pairs():
            homs = enumerate_delta_hom(p, q)
            assert len(set(homs)) == len(homs)
            values = [f.values for f in homs]
            assert values == sorted(values)

    def test_active_enumeration_matches_predicate(self):
        for p, q in all_pairs():
            expected = [f for f in enumerate_delta_hom(p, q) if f.is_active]
            assert list(enumerate_delta_hom(p, q, True)) == expected


class TestPointedMap:
    def test_table_and_apply(self):
        m = PointedMap(3, 2, ((1, 2), (3, 1)))
        assert m.apply(1) == 2
        assert m.apply(2) is None
        assert m.apply(3) == 1

    def test_compose_absorbs_basepoint(self):
        inner = PointedMap(2, 2, ((1, 1),))  # 2 -> basepoint
        outer = PointedMap(2, 2, ((1, 2), (2, 1)))
        composite = compose_pointed(outer, inner)
        assert composite.apply(1) == 2
        assert composite.apply(2) is None

    def test_identity_neutral(self):
        m = PointedMap(3, 2, ((1, 2), (3, 1)))
        assert compose_pointed(m, identity_pointed(3)) == m
        assert compose_pointed(identity_pointed(2), m) == m


class TestCircleConstruction:
    def test_frozen_example_gaps(self):
        # f = (0,1,3): fiber over 1 is {1}, fibers over 2,3 are {2}
        g = simplicial_circle(MonotoneMap(2, 3, (0, 1, 3)))
        assert g.pairs == ((1, 1), (2, 2), (3, 2))
        assert g.is_total

    def test_frozen_example_basepoint(self):
        # f = (1,2): [1] -> [2], nothing sits over 1
        g = simplicial_circle(MonotoneMap(1, 2, (1, 2)))
        assert g.apply(1) is None
        assert g.apply(2) == 1
        assert not g.is_total

    def test_constant_map_all_basepoint(self):
        g = simplicial_circle(MonotoneMap(2, 3, (3, 3, 3)))
        assert g.pairs == ()

    def test_matches_step_map_oracle(self):
        for p, q in all_pairs():
            for f in enumerate_delta_hom(p, q):
                assert simplicial_circle(f) == circle_by_steps(f)

    def test_identity_goes_to_identity(self):
        for p in RANKS:
            assert simplicial_circle(identity_delta(p)) == identity_pointed(p)

    def test_contravariant_functoriality(self):
        bound = 4
        for p in range(bound + 1):
            for q in range(bound + 1):
                for f in enumerate_delta_hom(p, q):
                    gamma_f = simplicial_circle(f)
                    for r in range(bound + 1):
                        for g in enumerate_delta_hom(q, r):
                            left = simplicial_circle(compose_delta(g, f))
                            right = compose_pointed(
                                gamma_f, simplicial_circle(g)
                            )
                            assert left == right

    def test_injective_away_from_constants(self):
        # The circle construction is NOT injective on full hom-sets: every
        # constant map composes with every step map to a constant, so all
        # q+1 constants share the all-basepoint image.  Away from that
        # collapse it is injective, and on active maps it is injective
        # outright (an active constant forces q = 0).
        from collections import defaultdict

        for p, q in all_pairs():
            by_image = defaultdict(list)
            for f in enumerate_delta_hom(p, q):
                by_image[simplicial_circle(f)].append(f)
            for image, group in by_image.items():
                if len(group) > 1:
                    assert image.pairs == ()
                    assert all(f.values[0] == f.values[-1] for f in group)
                    assert len(group) == q + 1

    def test_injective_on_active_maps(self):
        for p, q in all_pairs():
            homs = enumerate_delta_hom(p, q, True)
            images = {simplicial_circle(f) for f in homs}
            assert len(images) == len(homs)

    def test_constant_collapse_witness(self):
        low = MonotoneMap(1, 1, (0, 0))
        high = MonotoneMap(1, 1, (1, 1))
        assert low != high
        assert simplicial_circle(low) == simplicial_circle(high)

    def test_active_iff_total(self):
        for p, q in all_pairs():
            for f in enumerate_delta_hom(p, q):
                assert f.is_active == simplicial_circle(f).is_total
