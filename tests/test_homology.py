"""Tests for Smith normal form, finite categories, nerves, and homology.

The Smith normal form is checked against an independent oracle written
first: the product of the first k elementary divisors equals the gcd of
all k x k minors (determinants computed by cofactor expansion over exact
integers, no reuse of library code).
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial, gcd
from random import Random

import pytest

from thetaran import homology
from thetaran.harness import (
    ORDERED_CASES,
    UNORDERED_FIXTURES,
    _enumerate_w,
    minor_gcd,
    ordered_betti_oracle,
)
from thetaran.homology import (
    CategoryValidation,
    FiniteCategoryView,
    HomologyResult,
    IntegerMatrix,
    build_category,
    chain_poset,
    homology_from_boundaries,
    homology_of_category,
    nerve_chain_complex,
    poset_category,
    smith_normal_form,
)
from thetaran.theta import (
    ResourceCapError,
    compose_theta,
    format_tree,
    healthy_trees,
    identity_theta,
    leaf_row,
)


def cofactor_determinant(rows: tuple[tuple[int, ...], ...]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for c in range(len(rows)):
        if rows[0][c] != 0:
            minor = tuple(
                tuple(v for j, v in enumerate(row) if j != c) for row in rows[1:]
            )
            total += sign * rows[0][c] * cofactor_determinant(minor)
        sign = -sign
    return total


def minor_gcd_oracle(matrix: IntegerMatrix, k: int) -> int:
    """gcd of all k x k minors, 0 when every minor vanishes."""
    result = 0
    for row_pick in combinations(range(matrix.rows), k):
        for col_pick in combinations(range(matrix.cols), k):
            sub = tuple(
                tuple(matrix.entries[i][j] for j in col_pick) for i in row_pick
            )
            result = gcd(result, cofactor_determinant(sub))
            if result == 1:
                return 1
    return result


class TestSmithNormalForm:
    def test_frozen_small_cases(self):
        identity = IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert smith_normal_form(identity).divisors == (1, 1, 1)
        # gcd of entries 2, determinant -8, so divisors 2 and 8/2
        two_by_two = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        assert smith_normal_form(two_by_two).divisors == (2, 4)
        zero = IntegerMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
        form = smith_normal_form(zero)
        assert form.divisors == () and form.rank == 0
        # no unit entries: the diagonal pivots must still form a chain
        for diagonal, divisors in [
            ((2, 3), (1, 6)),
            ((4, 6), (2, 12)),
            ((6, 10, 15), (1, 30, 30)),
        ]:
            size = len(diagonal)
            m = IntegerMatrix.from_rows(
                [[v if i == j else 0 for j in range(size)]
                 for i, v in enumerate(diagonal)]
            )
            assert smith_normal_form(m).divisors == divisors

    def test_divisibility_chain_and_positivity(self):
        rng = Random(5)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                cols,
            )
            div = smith_normal_form(m).divisors
            assert all(v > 0 for v in div)
            for a, b in zip(div, div[1:]):
                assert b % a == 0

    def test_matches_minor_gcd_oracle(self):
        rng = Random(11)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)],
                cols,
            )
            form = smith_normal_form(m)
            product = 1
            for k, d in enumerate(form.divisors, start=1):
                product *= d
                assert product == minor_gcd_oracle(m, k)
            if form.rank < min(rows, cols):
                assert minor_gcd_oracle(m, form.rank + 1) == 0

    def test_unit_elimination_matches_oracles(self):
        # sparse entries: in -2..2, so most matrices carry unit pivots,
        # then with no unit entry at all
        rng = Random(23)
        no_units = (2, -2, 3, -3, 4, -4, 6, -6, 9, -9)
        for entry in [lambda: rng.randint(-2, 2)] * 200 + [
            lambda: rng.choice(no_units)
        ] * 200:
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = IntegerMatrix.from_rows(
                [
                    [entry() if rng.random() < 0.3 else 0 for _ in range(cols)]
                    for _ in range(rows)
                ],
                cols,
            )
            form = smith_normal_form(m)
            product = 1
            for k, d in enumerate(form.divisors, start=1):
                product *= d
                assert product == minor_gcd(m, k)
            if form.rank < min(rows, cols):
                assert minor_gcd(m, form.rank + 1) == 0

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            IntegerMatrix(2, 2, ({0: 1},))
        with pytest.raises(ValueError):
            IntegerMatrix(1, 2, ({0: 1}, {1: 1}))
        with pytest.raises(ValueError):
            IntegerMatrix(1, 1, ({0: 0},))
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([])
        sparse = IntegerMatrix.from_rows([[0, 2], [0, 0], [-1, 0]])
        assert sparse.columns == ({2: -1}, {0: 2})
        assert sparse.entries == ((0, 2), (0, 0), (-1, 0))
        a = IntegerMatrix.from_rows([[1, 2]])
        b = IntegerMatrix.from_rows([[3], [4]])
        assert a.multiply(b).entries == ((11,),)
        with pytest.raises(ValueError):
            b.multiply(b)


class TestFiniteCategories:
    def test_poset_closure(self):
        cat = poset_category("abc", [("a", "b"), ("b", "c")])
        assert len(cat.morphisms) == 6  # 3 identities + ab, bc, ac
        assert cat.validate().ok
        assert cat.max_hom_size == 1

    def test_chain_poset_shape(self):
        cat = chain_poset(3)
        assert len(cat.objects) == 4
        assert len(cat.morphisms) == 10
        assert cat.validate().ok

    def test_validate_flags_broken_composition(self):
        cat = poset_category("ab", [("a", "b")])
        broken = FiniteCategoryView.from_table(
            cat.objects, cat.morphisms, cat.identities, {}
        )
        validation = broken.validate()
        assert not validation.ok
        assert not validation.identities_ok

    def test_validate_catches_one_wrong_composite_in_w_hlt_34(self):
        # a random sample of 20,000 of w_hlt(3,4)'s 139,553 composable
        # triples passes this table; the wrong composite has the true one's
        # endpoints, so only associativity can tell
        cat = build_category("w_hlt", 3, 4)
        names = [format_tree(t) for t in cat.objects]
        arrow = {
            (names[a], names[b], row): m for m, (a, b, row) in enumerate(cat.morphisms)
        }
        one = "[2]([1]([1]),[1]([3]))"
        two = "[3]([1]([1]),[1]([1]),[2]([1],[1]))"
        three = "[4]([1]([1]),[1]([1]),[1]([1]),[1]([1]))"
        f = arrow[(one, two, (1, 2, 3, 4))]
        g = arrow[(two, three, (1, 2, 4, 3))]
        wrong = arrow[(one, three, (1, 2, 3, 4))]
        assert cat.composition[(g, f)] == arrow[(one, three, (1, 2, 4, 3))]
        broken = FiniteCategoryView.from_table(
            cat.objects, cat.morphisms, cat.identities,
            {**cat.composition, (g, f): wrong},
        )
        validation = broken.validate()
        assert validation.identities_ok and validation.composition_ok
        assert not validation.associativity_ok
        assert not validation.ok

    def test_validate_stores_no_triples(self):
        # a stored triple list peaks at about 11 MB on w_hlt(3,4)
        cat = build_category("w_hlt", 3, 4)
        cat.outgoing
        tracemalloc.start()
        try:
            assert cat.validate().ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_composition_view_reads_composites(self):
        # one slot per g out of f's target, in outgoing order; a missing
        # entry is None and a pair that does not compose is dropped; the
        # mapping lists the filled slots f by f, and looks each up by place
        cat = groupoid()
        assert cat.outgoing == ((0, 2), (1, 3)) and cat.position == (0, 0, 1, 1)
        assert cat.composites == ((0, 2), (1, 3), (2, 0), (3, 1))
        table = dict(cat.composition)
        del table[(2, 3)]
        view = FiniteCategoryView.from_table(
            cat.objects, cat.morphisms, cat.identities, {**table, (2, 2): 0}
        )
        assert view.composites == ((0, 2), (1, 3), (2, 0), (3, None))
        assert list(view.composition.items()) == [
            ((0, 0), 0), ((2, 0), 2), ((1, 1), 1), ((3, 1), 3),
            ((1, 2), 2), ((3, 2), 0), ((0, 3), 3),
        ]
        assert len(view.composition) == len(table) == 7
        assert view.composition == table
        for absent in [(2, 3), (2, 2), (4, 0), (0, 4), (-1, 0), (1, -1)]:
            assert absent not in view.composition
        assert not view.validate().composition_ok

    def test_permuted_preserves_laws(self):
        cat = build_category("w_hlt", 2, 2)
        shuffled = cat.permuted((1, 0))
        assert shuffled.validate().ok
        assert {format_tree(o) for o in shuffled.objects} == {
            format_tree(o) for o in cat.objects
        }


def triple_walk_validation(cat: FiniteCategoryView) -> CategoryValidation:
    """Brute-force oracle for ``validate``: each law entry by entry, and
    every composable triple h, g, f walked one at a time with four table
    lookups.  Arrows out of each object are listed here, not read from
    the view."""
    arrows, comp, units = cat.morphisms, cat.composition, cat.identities
    if any(arrows[m][:2] != (i, i) for i, m in enumerate(units)):
        return CategoryValidation(False, False, False)
    out = {}
    for m, (a, _, _) in enumerate(arrows):
        out.setdefault(a, []).append(m)
    identities_ok = all(
        comp.get((m, units[a])) == m and comp.get((units[b], m)) == m
        for m, (a, b, _) in enumerate(arrows)
    )
    composition_ok = all(
        (g, f) in comp and arrows[comp[(g, f)]][:2] == (a, arrows[g][1])
        for f, (a, b, _) in enumerate(arrows)
        for g in out.get(b, ())
    )
    if not composition_ok:
        return CategoryValidation(identities_ok, False, False)
    for f, (_, b, _) in enumerate(arrows):
        for g in out.get(b, ()):
            gf = comp[(g, f)]
            for h in out.get(arrows[g][1], ()):
                if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                    return CategoryValidation(identities_ok, True, False)
    return CategoryValidation(identities_ok, True, True)


def _shifted_identity(cat: FiniteCategoryView) -> FiniteCategoryView:
    """Object 0's identity replaced by object 1's, an arrow 1 -> 1."""
    identities = (cat.identities[1],) + cat.identities[1:]
    return FiniteCategoryView(cat.objects, cat.morphisms, identities,
                              cat.composites)


def groupoid() -> FiniteCategoryView:
    """Two objects and an inverse pair f: x -> y, g: y -> x."""
    morphisms = ((0, 0, "1x"), (1, 1, "1y"), (0, 1, "f"), (1, 0, "g"))
    composition = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2, (3, 1): 3,
                   (0, 3): 3, (3, 2): 0, (2, 3): 1}
    return FiniteCategoryView.from_table(("x", "y"), morphisms, (0, 1), composition)


ORACLE_CATEGORIES = {
    "poset-abc": lambda: poset_category("abc", [("a", "b"), ("b", "c")]),
    "chain-3": lambda: chain_poset(3),
    "empty-table": lambda: FiniteCategoryView.from_table(
        chain_poset(1).objects, chain_poset(1).morphisms,
        chain_poset(1).identities, {}
    ),
    "w_hlt-2-2-permuted": lambda: build_category("w_hlt", 2, 2).permuted((1, 0)),
    "w_hlt-2-4-shifted-identity": lambda: _shifted_identity(
        build_category("w_hlt", 2, 4)
    ),
    "groupoid": groupoid,
    **{f"{kind}-{n}-{k}": lambda kind=kind, n=n, k=k: build_category(kind, n, k)
       for kind, n, k in [("w_hlt", 2, 3), ("w_hlt", 3, 2), ("w_hlt", 2, 4),
                          ("w_hlt", 2, 5), ("w_hlt", 3, 3), ("w_hlt", 3, 4),
                          ("nord", 2, 3), ("nord", 3, 3), ("nord", 1, 0)]},
}


@pytest.mark.parametrize("name", ORACLE_CATEGORIES)
def test_validate_matches_triple_walk_oracle(name):
    cat = ORACLE_CATEGORIES[name]()
    assert cat.validate() == triple_walk_validation(cat)


def _planted_faults(cat: FiniteCategoryView, rng: Random, per_kind: int = 25):
    """(kind, broken view) pairs: up to ``per_kind`` seeded sites per kind.

    ``missing``: a composable pair loses its entry.  ``endpoints``: a pair's
    composite is an arrow with other endpoints.  ``identity``: m∘id or
    id∘m is another arrow, one with m's endpoints where there is one.
    ``associativity``: a pair's composite is another arrow with the true
    one's endpoints, so only associativity can tell.  In a category with
    at most one arrow per object pair (a poset, nord) that arrow is the
    composite, so the last kind has no site there."""
    arrows, comp = cat.morphisms, cat.composition
    between = {}
    for m, (a, b, _) in enumerate(arrows):
        between.setdefault((a, b), []).append(m)
    units = set(cat.identities)
    pairs = sorted(comp)
    plants = {"missing": [], "endpoints": [], "identity": [], "associativity": []}
    for g, f in pairs:
        ends = arrows[comp[(g, f)]][:2]
        plants["missing"].append(((g, f), None))
        others = [m for m, arrow in enumerate(arrows) if arrow[:2] != ends]
        if others:
            plants["endpoints"].append(((g, f), rng.choice(others)))
        alternatives = [m for m in between[ends] if m != comp[(g, f)]]
        if g in units or f in units:
            fallback = [m for m in range(len(arrows)) if m != comp[(g, f)]]
            plants["identity"].append(((g, f), rng.choice(alternatives or fallback)))
        elif alternatives:
            plants["associativity"].append(((g, f), rng.choice(alternatives)))
    for kind, sites in plants.items():
        for key, value in rng.sample(sites, min(per_kind, len(sites))):
            table = dict(comp)
            if value is None:
                del table[key]
            else:
                table[key] = value
            yield kind, FiniteCategoryView.from_table(
                cat.objects, arrows, cat.identities, table
            )


@pytest.mark.parametrize(
    "name", ["chain-3", "groupoid", "w_hlt-2-4", "w_hlt-3-3", "nord-2-3"]
)
def test_validate_matches_oracle_on_planted_faults(name):
    cat = ORACLE_CATEGORIES[name]()
    seen = Counter()
    for kind, broken in _planted_faults(cat, Random(name)):
        validation = broken.validate()
        assert validation == triple_walk_validation(broken), (kind, name)
        seen[kind] += 1
        if kind in ("missing", "endpoints"):
            assert not validation.composition_ok
            assert not validation.associativity_ok
        elif kind == "identity":
            assert not validation.identities_ok
        else:
            # a wrong composite with the true endpoints may still give a
            # lawful table; each of these seeded sites breaks a triple
            assert (validation.identities_ok, validation.composition_ok,
                    validation.associativity_ok) == (True, True, False)
    assert min(seen["missing"], seen["endpoints"], seen["identity"]) > 0
    assert seen["associativity"] == (0 if cat.max_hom_size == 1 else 25)


class TestBuildCategory:
    def test_w_hlt_objects(self):
        cat = build_category("w_hlt", 2, 3)
        names = [format_tree(t) for t in cat.objects]
        assert sorted(names) == [
            "[1]([3])",
            "[2]([1],[2])",
            "[2]([2],[1])",
            "[3]([1],[1],[1])",
        ]
        assert len(cat.morphisms) == 20
        assert cat.validate().ok

    def test_w_hlt_branch_levels(self):
        cat = build_category("w_hlt", 3, 2)
        assert len(cat.objects) == 3
        assert len(cat.morphisms) == 9
        assert cat.validate().ok

    def test_nord_object_count(self):
        # ordered variants: over compositions (b_1..b_r) of 3 there are
        # prod b_i! fiber orders times 3! global labelings... counted
        # directly instead: the library must produce 24
        cat = build_category("nord", 2, 3)
        assert len(cat.objects) == 24
        assert len(cat.morphisms) == 120
        assert cat.max_hom_size == 1
        assert cat.validate().ok

    def test_nord_is_poset_like(self):
        for n, k in [(1, 3), (2, 2), (3, 2)]:
            assert build_category("nord", n, k).max_hom_size == 1

    def test_object_count_is_closed_form(self):
        # n^(k-1) healthy trees, one for k = 0, and k! labelings of each
        for n in range(1, 7):
            for k in range(8):
                if n**k <= 10**6:
                    trees = len(healthy_trees(n, k))
                    assert trees == (n ** (k - 1) if k else 1)
                    assert homology._object_count("w_hlt", n, k, 10**9) == trees
                    assert (homology._object_count("nord", n, k, 10**9)
                            == trees * factorial(k))

    def test_object_count_saturates_past_the_bound(self):
        # neither 3^(10^7 - 1) nor (10^6)! is built
        started = time.monotonic()
        assert homology._object_count("w_hlt", 3, 10**7, 500_000) == 500_001
        assert homology._object_count("nord", 1, 10**6, 500_000) == 500_001
        assert homology._object_count("w_hlt", 1, 10**7, 500_000) == 1
        assert homology._object_count("w_hlt", 2, 19, 2**18) == 2**18
        assert homology._object_count("w_hlt", 2, 20, 2**18) == 2**18 + 1
        assert time.monotonic() - started < 1.0

    @pytest.mark.parametrize("kind", ["w_hlt", "nord"])
    def test_missing_identity_or_composite_raises(self, monkeypatch, kind):
        # the table looks arrows up by source, target and row id; an arrow
        # left out of a hom-set must raise, never stand in for another
        cat = build_category("w_hlt", 2, 3)
        units = set(cat.identities)
        gf = next(gf for (g, f), gf in cat.composition.items()
                  if not {f, g, gf} & units)
        for a, c, dropped in (cat.morphisms[cat.identities[1]], cat.morphisms[gf]):
            source, target = cat.objects[a], cat.objects[c]
            listed = homology.w_hom_rows

            def without(s, t, source=source, target=target, dropped=dropped):
                rows = listed(s, t)
                if (s, t) == (source, target):
                    rows = [row for row in rows if row != dropped]
                return rows

            monkeypatch.setattr(homology, "w_hom_rows", without)
            with pytest.raises(KeyError):
                build_category(kind, 2, 3)
            monkeypatch.undo()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_category("mystery", 2, 2)
        with pytest.raises(ValueError):
            build_category("nord", 0, 2)


def wreath_category(kind: str, n: int, k: int) -> FiniteCategoryView:
    """Reference build from wreath morphisms: hom-sets from the harness's
    wreath-level walk, nord arrows found by filtering on labels,
    composition by ``compose_theta``.  Arrows carry their
    ``ThetaMorphism``."""
    trees = healthy_trees(n, k)
    if kind == "w_hlt":
        objects = list(trees)
        arrows = [
            (a, b, m)
            for a, tree_a in enumerate(trees)
            for b, tree_b in enumerate(trees)
            for m in _enumerate_w(tree_a, tree_b)
        ]
    else:
        labelings = list(permutations(range(1, k + 1)))
        objects = [(tree, lab) for tree in trees for lab in labelings]
        arrows = [
            (a, b, m)
            for a, (tree_a, lab_a) in enumerate(objects)
            for b, (tree_b, lab_b) in enumerate(objects)
            for m in _enumerate_w(tree_a, tree_b)
            if all(lab_a[v - 1] == lab_b[x] for x, v in enumerate(leaf_row(m)))
        ]
    index = {arrow: i for i, arrow in enumerate(arrows)}
    identities = tuple(
        index[(i, i, identity_theta(obj if kind == "w_hlt" else obj[0]))]
        for i, obj in enumerate(objects)
    )
    composition = {
        (g, f): index[(a, c, compose_theta(second, first))]
        for f, (a, b, first) in enumerate(arrows)
        for g, (b2, c, second) in enumerate(arrows)
        if b2 == b
    }
    return FiniteCategoryView.from_table(
        tuple(objects), tuple(arrows), identities, composition
    )


ORACLE_CASES = [
    (kind, n, k) for kind in ("w_hlt", "nord") for n in (1, 2, 3) for k in range(4)
] + [("w_hlt", 2, 4)]


@pytest.mark.parametrize("kind,n,k", ORACLE_CASES)
def test_leaf_row_build_matches_wreath_build(kind, n, k):
    cat = build_category(kind, n, k)
    ref = wreath_category(kind, n, k)
    assert cat.objects == ref.objects
    # leaf rows match the reference arrows one to one; carry the identities
    # and the composition table across that bijection
    ref_index = {(a, b, leaf_row(m)): i for i, (a, b, m) in enumerate(ref.morphisms)}
    assert len(ref_index) == len(ref.morphisms) == len(cat.morphisms)
    to_ref = [ref_index[arrow] for arrow in cat.morphisms]
    assert tuple(to_ref[m] for m in cat.identities) == ref.identities
    assert {
        (to_ref[g], to_ref[f]): to_ref[c] for (g, f), c in cat.composition.items()
    } == ref.composition
    assert cat.validate() == ref.validate()
    if kind == "nord":
        w_arrows = len(build_category("w_hlt", n, k).morphisms)
        assert len(cat.morphisms) == factorial(k) * w_arrows


def row_composition_oracle(cat: FiniteCategoryView) -> dict[tuple[int, int], int]:
    """``build_category``'s composition table with each composable pair's
    rows composed afresh, in the build's loop order."""
    arrows = cat.morphisms
    index = {arrow: i for i, arrow in enumerate(arrows)}
    table = {}
    for f, (a, b, first) in enumerate(arrows):
        for g in cat.outgoing[b]:
            _, c, second = arrows[g]
            table[(g, f)] = index[(a, c, tuple(first[v - 1] for v in second))]
    return table


def method_call_boundaries(cat: FiniteCategoryView, max_dim: int) -> list:
    """``nerve_chain_complex``'s columns through the view's methods, one
    call per endpoint, composite and identity test."""
    bases = homology._nerve_bases(cat, max_dim)
    out = []
    for d in range(1, max_dim + 1):
        position = {chain: i for i, chain in enumerate(bases[d - 1])}
        columns = []
        for chain in bases[d]:
            coeffs = Counter()
            if d == 1:
                coeffs[cat.target(chain[0])] += 1
                coeffs[cat.morphisms[chain[0]][0]] -= 1
            else:
                coeffs[position[chain[1:]]] += 1
                sign = -1
                for i in range(1, d):
                    composite = cat.composition[(chain[i], chain[i - 1])]
                    if not cat.is_identity(composite):
                        face = chain[: i - 1] + (composite,) + chain[i + 1 :]
                        coeffs[position[face]] += sign
                    sign = -sign
                coeffs[position[chain[:-1]]] += sign
            columns.append({i: v for i, v in coeffs.items() if v})
        out.append(columns)
    return out


@pytest.mark.parametrize("kind,n,k", [
    ("w_hlt", 2, 4), ("w_hlt", 3, 3), ("w_hlt", 2, 5), ("w_hlt", 3, 4),
    ("nord", 2, 3), ("nord", 3, 3),
])
def test_composition_table_matches_row_oracle(kind, n, k):
    cat = build_category(kind, n, k)
    oracle = row_composition_oracle(cat)
    assert cat.composition == oracle
    assert list(cat.composition.items()) == list(oracle.items())
    matrices = nerve_chain_complex(cat, 4)
    for matrix, columns in zip(matrices, method_call_boundaries(cat, 4),
                               strict=True):
        assert list(matrix.columns) == columns
        assert [list(c.items()) for c in matrix.columns] == [
            list(c.items()) for c in columns
        ]


class TestNerve:
    def test_walking_arrow(self):
        cat = poset_category("ab", [("a", "b")])
        matrices = nerve_chain_complex(cat, 3)
        assert [m.cols for m in matrices] == [1, 0, 0]
        result = homology_of_category(cat, 2)
        assert result.betti == (1, 0, 0)
        assert result.chain_sizes == (2, 1, 0, 0)

    def test_boundary_squares_vanish(self):
        for cat in [
            chain_poset(3),
            build_category("w_hlt", 2, 3),
            build_category("nord", 2, 2),
            build_category("w_hlt", 3, 3),
        ]:
            matrices = nerve_chain_complex(cat, 4)
            for lower, upper in zip(matrices, matrices[1:]):
                assert lower.multiply(upper).is_zero()

    def test_engine_never_builds_dense_view(self):
        matrices = nerve_chain_complex(build_category("w_hlt", 3, 2), 4)
        homology_from_boundaries(matrices, 3)
        assert all(lower.multiply(upper).is_zero()
                   for lower, upper in zip(matrices, matrices[1:]))
        assert not any("entries" in vars(m) for m in matrices)

    def test_chain_cap(self, monkeypatch):
        cat = build_category("w_hlt", 2, 3)
        monkeypatch.setattr(homology, "DEFAULT_CHAIN_CAP", 10)
        with pytest.raises(ResourceCapError):
            nerve_chain_complex(cat, 4)

    def test_chain_cap_counts_only_the_dimensions_built(self, monkeypatch):
        # w_hlt(2, 3) has cells (4, 16, 12): through dimension 1 the nerve
        # fits a cap of 20, and the walk lists no 2-chains beyond it
        cat = build_category("w_hlt", 2, 3)
        monkeypatch.setattr(homology, "DEFAULT_CHAIN_CAP", 20)
        (boundary,) = nerve_chain_complex(cat, 1)
        assert (boundary.rows, boundary.cols) == (4, 16)
        with pytest.raises(ResourceCapError, match="32 nerve cells in dimensions 0..2"):
            nerve_chain_complex(cat, 2)

    def test_arrow_cap_stops_listing_rows(self, monkeypatch):
        # w_hlt(2,5): 16 objects and their 5 x 16 row entries fit a cap of
        # 80 cells, its 848 arrows do not; the running count raises before
        # all 16 x 16 hom-sets are listed
        listed = homology.w_hom_rows
        calls = []

        def counted(source, target):
            calls.append((source, target))
            return listed(source, target)

        monkeypatch.setattr(homology, "DEFAULT_CHAIN_CAP", 80)
        monkeypatch.setattr(homology, "w_hom_rows", counted)
        with pytest.raises(ResourceCapError, match="arrows"):
            build_category("w_hlt", 2, 5)
        assert len(calls) < 16 * 16

    def test_row_entry_cap_stops_before_any_tree(self, monkeypatch):
        # every arrow's row has k entries and there are at least as many
        # arrows as objects: w_hlt(2,5) holds at least 5 x 16 of them,
        # counted before a tree is built
        built = []
        monkeypatch.setattr(homology, "healthy_trees",
                            lambda *args: built.append(args))
        monkeypatch.setattr(homology, "DEFAULT_CHAIN_CAP", 79)
        with pytest.raises(ResourceCapError,
                           match="^80 w_hlt.2,5. row entries exceed the cap of 79$"):
            build_category("w_hlt", 2, 5)
        assert built == []

    def test_tree_pair_cap_stops_before_any_row(self, monkeypatch):
        # w_hlt(2,5): 16 trees, so 256 hom-sets to list; one more than the
        # cap raises before the first, and the pair cap then applies
        calls = []
        monkeypatch.setattr(homology, "w_hom_rows",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(homology, "COMPOSITION_CAP", 255)
        with pytest.raises(ResourceCapError, match="256 w_hlt.2,5. tree pairs"):
            build_category("w_hlt", 2, 5)
        assert calls == []
        monkeypatch.undo()
        monkeypatch.setattr(homology, "COMPOSITION_CAP", 256)
        with pytest.raises(ResourceCapError, match="5808 w_hlt.2,5. composable"):
            build_category("w_hlt", 2, 5)

    def test_composition_cap_counts_pairs_before_the_table(self, monkeypatch):
        # the closed form sum in(b) * out(b) is the table's size exactly:
        # w_hlt(2,5) has 5,808 composable pairs
        monkeypatch.setattr(homology, "COMPOSITION_CAP", 5808)
        assert len(build_category("w_hlt", 2, 5).composition) == 5808
        monkeypatch.setattr(homology, "COMPOSITION_CAP", 5807)
        with pytest.raises(ResourceCapError, match="5808 w_hlt.2,5. composable"):
            build_category("w_hlt", 2, 5)

    def test_nord_pairs_are_k_factorial_times_w_hlt(self, monkeypatch):
        # each labeling of a tree has the tree's in- and out-degree
        pairs = len(build_category("w_hlt", 2, 3).composition)
        assert len(build_category("nord", 2, 3).composition) == 6 * pairs
        monkeypatch.setattr(homology, "COMPOSITION_CAP", 6 * pairs - 1)
        with pytest.raises(ResourceCapError, match="composable"):
            build_category("nord", 2, 3)

    def test_identity_free_bases(self):
        cat = chain_poset(2)
        matrices = nerve_chain_complex(cat, 3)
        # 3 non-identity arrows, one composable pair, nothing longer
        assert [m.cols for m in matrices] == [3, 1, 0]


class TestHomology:
    def test_posets_are_contractible(self):
        for length in range(5):
            result = homology_of_category(chain_poset(length), 3)
            assert result.betti == (1, 0, 0, 0)
            assert all(t == () for t in result.torsion)

    def test_circle_poset(self):
        # two objects under two objects, no middle: the nerve is a circle
        cat = poset_category("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        result = homology_of_category(cat, 2)
        assert result.betti == (1, 1, 0)
        assert all(t == () for t in result.torsion)

    def test_frozen_category_fixtures(self):
        res = homology_of_category(build_category("w_hlt", 2, 2), 3)
        assert res.betti == (1, 1, 0, 0)
        assert all(t == () for t in res.torsion)

        res = homology_of_category(build_category("w_hlt", 3, 2), 3)
        assert res.betti == (1, 0, 0, 0)
        assert res.torsion == ((), (2,), (), ())
        assert res.chain_sizes[:3] == (3, 6, 4)

        res = homology_of_category(build_category("nord", 3, 2), 3)
        assert res.betti == (1, 0, 1, 0)
        assert all(t == () for t in res.torsion)

    def test_homology_invariant_under_relabeling(self):
        for kind, n, k, perm in [
            ("nord", 2, 2, (2, 0, 3, 1)),
            ("w_hlt", 3, 2, (1, 2, 0)),
        ]:
            cat = build_category(kind, n, k)
            base = homology_of_category(cat, 2)
            moved = homology_of_category(cat.permuted(perm), 2)
            assert base.betti == moved.betti
            assert base.torsion == moved.torsion

    def test_group_display(self):
        res = homology_of_category(build_category("w_hlt", 3, 2), 2)
        assert res.group(0) == "Z"
        assert res.group(1) == "Z/2"
        assert res.group(2) == "0"
        assert str(res) == "(Z, Z/2, 0)"

    def test_boundary_list_too_short(self):
        with pytest.raises(ValueError):
            homology_from_boundaries(
                [IntegerMatrix.from_rows([()], 0)], max_degree=1
            )

    def test_boundary_shapes_must_chain(self):
        # ∂_2 has 3 rows but ∂_1 has 2 columns: 1-cells disagree
        lower = IntegerMatrix.from_rows([[1, -1], [-1, 1]])
        upper = IntegerMatrix.from_rows([[1], [0], [0]])
        with pytest.raises(ValueError, match="degree 1 has 3 rows.* 2 columns"):
            homology_from_boundaries([lower, upper], max_degree=1)
        third = IntegerMatrix.from_rows([[0]], 1)
        with pytest.raises(ValueError, match="degree 2 has 1 rows.* 0 columns"):
            homology_from_boundaries(
                [lower, IntegerMatrix.from_rows([[], []], 0), third], max_degree=1
            )


def separate_smith_homology(
    matrices: list[IntegerMatrix], max_degree: int
) -> HomologyResult:
    """``homology_from_boundaries`` without clearing: one Smith form of
    each whole boundary matrix, every degree on its own."""
    sizes = [matrices[0].rows] + [m.cols for m in matrices]
    forms = [smith_normal_form(m) for m in matrices]
    ranks = [0] + [f.rank for f in forms]
    betti = []
    torsion = []
    for d in range(max_degree + 1):
        betti_d = sizes[d] - ranks[d] - ranks[d + 1]
        assert betti_d >= 0
        betti.append(betti_d)
        torsion.append(tuple(v for v in forms[d].divisors if v > 1))
    return HomologyResult(max_degree, tuple(betti), tuple(torsion), tuple(sizes))


FIXTURE_NERVES = (
    [("nord", n, k) for n, k in ORDERED_CASES]
    + [("w_hlt", n, k) for n, k in UNORDERED_FIXTURES]
    + [("w_hlt", 2, 4), ("w_hlt", 3, 3)]
)


@pytest.mark.parametrize("kind,n,k", FIXTURE_NERVES)
def test_clearing_matches_separate_smith_on_fixture_nerves(kind, n, k):
    matrices = nerve_chain_complex(build_category(kind, n, k), 4)
    assert homology_from_boundaries(matrices, 3) == separate_smith_homology(
        matrices, 3
    )


def random_poset(rng: Random) -> FiniteCategoryView:
    """Up to 12 elements, each i < j a generating relation at rate 1/4:
    over seeds 0..29, nerves up to dimension 5 and H_1 up to Z^4."""
    size = rng.randint(3, 12)
    relations = [(i, j) for i in range(size) for j in range(i + 1, size)
                 if rng.random() < 0.25]
    return poset_category(range(size), relations)


@pytest.mark.parametrize("seed", range(30))
def test_clearing_matches_separate_smith_on_random_posets(seed):
    rng = Random(seed)
    cat = random_poset(rng)
    top = len(nerve_cell_counts(cat)) - 1
    perm = list(range(len(cat.objects)))
    rng.shuffle(perm)
    results = []
    for view in (cat, cat.permuted(tuple(perm))):
        matrices = nerve_chain_complex(view, top + 1)
        result = homology_from_boundaries(matrices, top)
        assert result == separate_smith_homology(matrices, top)
        results.append(result)
    assert results[0] == results[1]


def test_clearing_empties_columns_of_w_hlt_33(monkeypatch):
    # reduced from the top down: ∂_4 (448 x 192) clears nothing, its 191
    # unit pivot rows clear as many of ∂_3's 448 columns, and so on down
    seen = []
    reduce = homology._smith_and_unit_rows

    def recorded(matrix, cleared):
        seen.append((matrix.rows, matrix.cols, len(cleared)))
        return reduce(matrix, cleared)

    monkeypatch.setattr(homology, "_smith_and_unit_rows", recorded)
    result = homology_of_category(build_category("w_hlt", 3, 3), 3)
    assert str(result) == "(Z, Z/2, 0, Z/3)"
    assert seen == [(448, 192, 0), (344, 448, 191), (96, 344, 256), (9, 96, 87)]


def nerve_cell_counts(cat: FiniteCategoryView) -> tuple[int, ...]:
    """Cells of the whole nerve by dimension, counted without listing them:
    strings of d non-identity arrows, tallied by the object they end at."""
    counts = [len(cat.objects)]
    ending = [1] * len(cat.objects)
    while True:
        step = [0] * len(cat.objects)
        for a, arrows in enumerate(cat.outgoing_non_identity):
            for m in arrows:
                step[cat.target(m)] += ending[a]
        if not any(step):
            return tuple(counts)
        counts.append(sum(step))
        ending = step


def euler(values) -> int:
    return sum((-1) ** d * v for d, v in enumerate(values))


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in (1, 2, 3) for k in range(4)] + [(2, 4)]
)
def test_cover_euler_characteristics(n, k):
    ordered = euler(nerve_cell_counts(build_category("nord", n, k)))
    unordered = euler(nerve_cell_counts(build_category("w_hlt", n, k)))
    assert ordered == factorial(k) * unordered == euler(ordered_betti_oracle(n, k))


# Full-degree homology: max_degree is the nerve's top nonempty dimension,
# so every group is final and the Betti numbers' Euler characteristic is
# the space's, checked against the oracle below.  Each case has a 10 s
# budget.
FULL_DEGREE_CASES = [
    ("nord", 3, 3, (1, 0, 3, 0, 2), ((),) * 5),
    ("nord", 2, 4, (1, 6, 11, 6), ((),) * 4),
    ("w_hlt", 2, 5, (1, 1, 0, 0, 0), ((), (), (2,), (), ())),
    ("w_hlt", 4, 3, (1, 0, 0, 1, 0, 0, 0), ((), (2,), (), (3,), (), (), ())),
]


@pytest.mark.parametrize("kind,n,k,betti,torsion", FULL_DEGREE_CASES)
def test_full_degree_homology(kind, n, k, betti, torsion):
    started = time.perf_counter()
    cat = build_category(kind, n, k)
    cells = nerve_cell_counts(cat)
    result = homology_of_category(cat, len(cells) - 1)
    assert time.perf_counter() - started < 10.0
    assert result.chain_sizes == cells + (0,)
    assert result.betti == betti
    assert result.torsion == torsion
    if kind == "nord":
        assert betti == ordered_betti_oracle(n, k)
    else:
        assert euler(betti) == 0


@pytest.mark.parametrize("kind,n,k,betti,torsion", FULL_DEGREE_CASES)
def test_full_degree_clearing_matches_separate_smith(kind, n, k, betti, torsion):
    top = len(betti) - 1
    matrices = nerve_chain_complex(build_category(kind, n, k), top + 1)
    assert matrices[-1].cols == 0
    assert homology_from_boundaries(matrices, top) == separate_smith_homology(
        matrices, top
    )


def one_object_tables():
    """Every table on the arrows 1 (identity), a, b of one object that
    obeys the identity laws: the four products of a and b chosen freely,
    3^4 = 81 tables, each with its two non-identity endomorphisms."""
    morphisms = ((0, 0, "1"), (0, 0, "a"), (0, 0, "b"))
    units = {(m, 0): m for m in range(3)} | {(0, m): m for m in range(3)}
    for products in product(range(3), repeat=4):
        table = dict(zip([(1, 1), (1, 2), (2, 1), (2, 2)], products))
        yield FiniteCategoryView.from_table(("x",), morphisms, (0,), {**units, **table})


def test_validate_matches_oracle_on_one_object_tables():
    # a and b are no composite of two non-identity arrows in 27 of the 70
    # non-associative tables; in the other 43 both are, so a check of the
    # irreducible arrows alone would pass those: a cycle means every arrow
    seen = Counter()
    for cat in one_object_tables():
        validation = cat.validate()
        assert validation == triple_walk_validation(cat), cat.composition
        assert validation.identities_ok and validation.composition_ok
        reducible = {1, 2} <= {cat.composition[p] for p in product((1, 2), repeat=2)}
        seen[validation.associativity_ok, reducible] += 1
    assert sum(seen.values()) == 81
    assert seen[False, True] == 43
    assert seen[False, True] + seen[False, False] == 70


def irreducible_arrows(cat: FiniteCategoryView) -> list[int]:
    """Non-identity arrows that no entry of the table gives as g∘f with g
    and f both non-identity."""
    made = {gf for (g, f), gf in cat.composition.items()
            if not cat.is_identity(g) and not cat.is_identity(f)}
    return [m for m in range(len(cat.morphisms))
            if not cat.is_identity(m) and m not in made]


def test_associativity_compares_only_irreducible_arrows(monkeypatch):
    # the planted fault of test_validate_catches_one_wrong_composite_in_w_hlt_34
    # is caught through this domain
    domains = []
    choose = FiniteCategoryView._associativity_domain

    def recorded(self, identities_ok):
        domains.append(list(choose(self, identities_ok)))
        return domains[-1]

    monkeypatch.setattr(FiniteCategoryView, "_associativity_domain", recorded)
    cat = build_category("w_hlt", 3, 4)
    assert cat.validate().ok
    assert domains[-1] == irreducible_arrows(cat)
    assert len(domains[-1]) == 142
    # a cycle, or a broken identity law, compares every arrow
    groupoid().validate()
    assert domains[-1] == [0, 1, 2, 3]
    small = build_category("w_hlt", 2, 4)
    broken_laws = 0
    for kind, broken in _planted_faults(small, Random("identity")):
        domains.clear()
        if kind == "identity" and broken.validate().composition_ok:
            assert domains == [list(range(len(small.morphisms)))]
            broken_laws += 1
    assert broken_laws > 0
