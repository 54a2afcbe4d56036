"""Seeded verification suites and machine-readable reports.

Each suite exercises one family of invariants end to end and reports case
and pass counts plus the first counterexample, serialized tightly enough
to replay by hand.  Reports are deterministic functions of (suite,
params, seed): canonical JSON drops the wall-clock field, so equal inputs
give byte-identical reports.

The "all" suite strings together exactly the five batteries the
acceptance checklist draws from: exit-path functoriality, pruning
initiality, the geometric round trip, homology fixtures with engine
sanity, and the simplicial-circle laws.  Each is one entry of the suite
table ``_SUITES``, its runner and its parameters' defaults, stated there
only; the cap checks and the runner read the same merged params.

The pruning suite keeps its own reference for the w hom-sets that
``theta`` lists as leaf rows: the wreath-level walk (_enumerate_w over
_w_candidates), which builds every morphism datum by datum, and
verify_initiality, which checks the pruning factorization on those
morphisms by composition and compares each hom-set with the rows.
Nothing outside the harness and the tests reads them.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, gcd
from random import Random

from .config import (
    compose_point_maps,
    induced_morphism,
    morphism_of_exit_path,
    random_configuration,
    random_exit_path,
    tree_of_configuration,
    realize_tree,
)
from .homology import (
    _KINDS,
    COMPOSITION_CAP,
    DEFAULT_CHAIN_CAP,
    _object_count,
    FiniteCategoryView,
    HomologyResult,
    IntegerMatrix,
    build_category,
    chain_poset,
    homology_from_boundaries,
    nerve_chain_complex,
    poset_category,
    smith_normal_form,
)
from .simplex import (
    compose_delta,
    compose_pointed,
    enumerate_delta_hom,
    simplicial_circle,
)
from .theta import (
    DEFAULT_HOM_CAP,
    MAX_TREE_DEPTH,
    InitialityReport,
    ThetaMorphism,
    Tree,
    _base_of,
    _enumerate_plain,
    _injective_bases,
    check_cap,
    check_height,
    compose_theta,
    count_filtered_hom,
    decorated_trees,
    format_tree,
    healthy_trees,
    identity_theta,
    leaf_row,
    prune,
    verify_initiality_by_rows,
    w_hom_rows,
)

def _check_params(name: str, params: dict) -> dict:
    """The given params merged over the suite's defaults in _SUITES (for
    "all": such a dict per suite, in table order), once they pass.

    ValueError on a key the suite does not read, a value that is no
    integer (``dims``: comma-separated integers; ``kind``: any), a ``dims``
    entry outside 1..``MAX_TREE_DEPTH``, a negative integer value, a height
    over ``MAX_TREE_DEPTH`` or a homology case without an oracle, and
    ResourceCapError on a tree family past its cap (see _check_family), on
    the homology suite's nerve degrees, max_degree + 2 per nerve, past
    ``DEFAULT_CHAIN_CAP``, or on the delta-laws suite's maps or composed
    pairs past theirs (see _check_delta_laws), before any case runs."""
    if name == "all":
        if not all(k in _SUITES and isinstance(v, dict) for k, v in params.items()):
            raise ValueError("suite 'all' takes no --param, only a dict per suite name")
        given = {part: _check_params(part, sub) for part, sub in params.items()}
        return {part: given[part] if part in given else _check_params(part, {})
                for part in _SUITES}
    defaults = _SUITES[name][1]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"suite {name!r} reads no parameter {', '.join(unknown)}; "
                         f"it reads {', '.join(defaults)}")
    for key, value in params.items():
        if key != "kind" and not _integral(key, value):
            what = "comma-separated integers" if key == "dims" else "an integer"
            raise ValueError(f"suite {name!r} needs {key} as {what}, got {value!r}")
    if "dims" in params:
        bad = [n for n in _dims(params["dims"]) if not 1 <= n <= MAX_TREE_DEPTH]
        if bad:
            raise ValueError(f"dimension {bad[0]} in dims is outside "
                             f"1..{MAX_TREE_DEPTH}")
    negative = sorted(k for k, v in params.items() if isinstance(v, int) and v < 0)
    if negative:
        raise ValueError(f"suite {name!r} needs nonnegative {', '.join(negative)}")
    params = {**defaults, **params}
    if "max_height" in params:
        check_height("max_height", params["max_height"])
    if name in ("pruning", "roundtrip"):
        _check_family(name, params)
    elif name == "homology":
        _check_homology_case(params)
        nerves = _HOMOLOGY_NERVES if params["kind"] is None else 1
        check_cap(nerves * (params["max_degree"] + 2), DEFAULT_CHAIN_CAP,
                  "nerve degrees in suite 'homology'")
    elif name == "delta-laws":
        _check_delta_laws(params)
    return params


def _integral(key: str, value) -> bool:
    """An int (no bool); for ``dims`` also a nonempty sequence of ints or a
    string of comma-separated ints."""
    if key == "dims" and isinstance(value, str):
        try:
            value = _dims(value)
        except ValueError:
            return False
    if key == "dims" and isinstance(value, (tuple, list)):
        return bool(value) and all(type(v) is int for v in value)
    return type(value) is int


def _dims(value) -> tuple[int, ...]:
    """The dimensions of a ``dims`` value: an int, a comma-separated
    string or a sequence; ValueError on a string part that is no int."""
    if isinstance(value, int):
        return (value,)
    if isinstance(value, str):
        return tuple(int(v) for v in value.split(","))
    return tuple(value)


def _check_homology_case(params: dict) -> None:
    """One homology case: a known kind with both n and k, and for w_hlt
    an (n, k) of UNORDERED_FIXTURES, its only oracle."""
    kind = params["kind"]
    size = sorted(key for key in ("n", "k") if params[key] is not None)
    if kind is None:
        if size:
            raise ValueError(f"suite 'homology' reads {', '.join(size)} only with kind")
        return
    if kind not in _KINDS:
        raise ValueError(f"unknown category kind {kind!r}; pick from {_KINDS}")
    if len(size) < 2:
        raise ValueError(f"suite 'homology' with kind={kind} needs both n and k")
    n, k = params["n"], params["k"]
    if kind == "w_hlt" and (n, k) not in UNORDERED_FIXTURES:
        raise ValueError(f"no w_hlt fixture for n={n} k={k}; fixtures: "
                         f"{', '.join(map(str, UNORDERED_FIXTURES))}")


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    params: dict
    seed: int
    cases: int
    passes: int
    first_counterexample: str | None
    wall_ms: float

    @property
    def passed(self) -> bool:
        return self.passes == self.cases

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "seed": self.seed,
            "cases": self.cases,
            "passes": self.passes,
            "passed": self.passed,
            "first_counterexample": self.first_counterexample,
        }


def canonical_report(report: SuiteReport) -> str:
    """Byte-stable serialization: sorted keys, no timing."""
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))


class _Tally:
    """Sequential case runner; counts passes, keeps the first failure.

    ``describe()`` gives a case's name and detail (or None); it runs only
    for the first failing case, so passing cases format no text.
    """

    def __init__(self) -> None:
        self.cases = 0
        self.passes = 0
        self.first: str | None = None

    def record(self, ok: bool, describe) -> None:
        self.cases += 1
        if ok:
            self.passes += 1
        elif self.first is None:
            name, detail = describe()
            self.first = name if detail is None else f"{name}: {detail}"


def run_suite(name: str, params: dict | None = None, seed: int = 0) -> SuiteReport:
    """ValueError on an unknown suite or key; "all" takes a dict per suite.
    The report records the params as given, not the defaults merged in."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; pick from {SUITE_NAMES}")
    params = dict(params or {})
    merged = _check_params(name, params)
    started = time.perf_counter()
    if name == "all":
        tally = _Tally()
        for part, part_params in merged.items():
            sub = _SUITES[part][0](part_params, seed)
            tally.cases += sub.cases
            tally.passes += sub.passes
            if tally.first is None and sub.first is not None:
                tally.first = f"{part}: {sub.first}"
        params = {}
    else:
        tally = _SUITES[name][0](merged, seed)
    wall_ms = (time.perf_counter() - started) * 1000.0
    return SuiteReport(
        suite=name,
        params=params,
        seed=seed,
        cases=tally.cases,
        passes=tally.passes,
        first_counterexample=tally.first,
        wall_ms=wall_ms,
    )


# ---------------------------------------------------------------------------
# functoriality of the exit-path functor


def _run_functoriality(params: dict, seed: int) -> _Tally:
    """Composable path pairs: the composed data's morphism is the composite.

    Case i draws its configuration and two chained paths from sub-seeds
    3i, 3i+1, 3i+2 on top of the suite seed, cycling the dimension through
    ``dims`` and the point count through 0..max_k.
    """
    max_k = params["max_k"]
    dims = _dims(params["dims"])
    tally = _Tally()
    for i in range(params["pairs"]):
        base = seed + 3 * i
        n = dims[i % len(dims)]
        k = Random(base).randint(0, max_k)
        start = random_configuration(n, k, seed=base)
        first = random_exit_path(start, seed=base + 1)
        second = random_exit_path(first.target, seed=base + 2)
        composite_map = compose_point_maps(second.mapping, first.mapping)
        direct = induced_morphism(start, second.target, composite_map)
        staged = compose_theta(
            morphism_of_exit_path(second), morphism_of_exit_path(first)
        )
        tally.record(direct == staged, lambda: (
            f"case {i} n={n} k={k}",
            f"start={start} mid={first.target} end={second.target} "
            f"maps={first.mapping}/{second.mapping}",
        ))
    return tally


# ---------------------------------------------------------------------------
# pruning initiality


def _family_shapes(params: dict):
    """(height, ks, graft rounds): decorated_trees calls, one per k in ks."""
    leaf_bound, deep_leaves = params["leaf_bound"], params["deep_leaf_bound"]
    for height in range(1, params["max_height"] + 1):
        yield height, range(min(deep_leaves, leaf_bound) + 1), params["deep_extra"]
        yield height, range(deep_leaves + 1, leaf_bound + 1), params["extra"]


def _check_family(name: str, params: dict) -> None:
    """ResourceCapError once a suite's tree family may pass DEFAULT_HOM_CAP
    trees: h^(k-1) healthy trees of height h with k leaves, each of at most
    h * k vertices, and a graft round multiplies by at most 2V + 1, V the
    largest vertex count, which the round raises by one.  The pruning
    suite's healthy probe grid adds its ordered tree pairs, (h^(k-1))^2 per
    height and k up to ``probe_leaf_bound``, to the same count.  The count
    is checked after each step, and every step adds at least one tree or
    pair, growing with k, so it stops within a few thousand steps whatever
    the bounds.  At height 1 each k adds one probe pair, and one tree if
    ungrafted: such runs are one step."""
    what = f"{name} trees by the closed-form bound"
    max_height = params["max_height"]
    probe_bound = params["probe_leaf_bound"] if name == "pruning" else -1  # -1: none
    total = probe_bound + 1 if max_height else 0  # height 1: one pair per k
    for height in range(2, max_height + 1):
        for k in range(probe_bound + 1):
            total += _object_count("w_hlt", height, k, DEFAULT_HOM_CAP) ** 2
            check_cap(total, DEFAULT_HOM_CAP, what, exact=False)
    for height, ks, rounds in _family_shapes(params):
        if height == 1 and not rounds:
            total += len(ks)
            check_cap(total, DEFAULT_HOM_CAP, what, exact=False)
            continue
        for k in ks:
            trees = _object_count("w_hlt", height, k, DEFAULT_HOM_CAP)
            for vertices in range(height * k, height * k + rounds + 1):
                total += trees
                check_cap(total, DEFAULT_HOM_CAP, what, exact=False)
                trees *= 2 * vertices + 1


def _decoration_family(params: dict):
    for height, ks, rounds in _family_shapes(params):
        for k in ks:
            yield from decorated_trees(height, k, rounds)


@lru_cache(maxsize=None)
def _w_candidates(source: Tree, target: Tree) -> tuple[ThetaMorphism, ...]:
    """Active morphisms with injective leaf map, the building blocks of w."""
    out = []
    for m in _enumerate_plain(source, target, True):
        row = leaf_row(m)
        if len(set(row)) == len(row):
            out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def _enumerate_w(source: Tree, target: Tree) -> tuple[ThetaMorphism, ...]:
    """The w hom-set walked datum by datum: every base of
    _injective_bases, rebuilt from its fiber plan, every choice of
    injective components, kept when the component rows are disjoint and
    cover the source leaves."""
    if source.leaf_count != target.leaf_count:
        return ()
    if source.height == 1:
        # an active monotone self-map with bijective fibers is the identity
        if source.rank == target.rank:
            return (identity_theta(source),)
        return ()
    out = []
    for plan in _injective_bases(source.leaf_profile, target.leaf_profile):
        candidate_lists = [
            _w_candidates(source.children[i], target.children[j])
            for i, j, _ in plan
        ]
        if any(not c for c in candidate_lists):
            continue
        base = _base_of([i + 1 for i, _, _ in plan], source.rank, target.rank)
        for combo in product(*candidate_lists):
            seen: set[int] = set()
            ok = True
            for (_, _, off), comp in zip(plan, combo):
                for v in leaf_row(comp):
                    shifted = v + off
                    if shifted in seen:
                        ok = False
                        break
                    seen.add(shifted)
                if not ok:
                    break
            if ok and len(seen) == source.leaf_count:
                out.append(ThetaMorphism(source, target, base, combo))
    return tuple(out)


def _reference_w_hom(source: Tree, target: Tree) -> tuple[ThetaMorphism, ...]:
    """_enumerate_w, once the active count is within ``DEFAULT_HOM_CAP``."""
    check_cap(count_filtered_hom(source, target, "active"), DEFAULT_HOM_CAP,
              "active morphisms", source, target)
    return _enumerate_w(source, target)


def verify_initiality(tree: Tree, leaf_bound: int = 6) -> InitialityReport:
    """Check that the pruning unit is initial among maps to healthy trees.

    For every healthy tree S of the same height with at most ``leaf_bound``
    leaves and every leaf-bijective active morphism f: tree -> S, exactly
    one g: prune(tree) -> S satisfies g after unit == f.  Targets with a
    different leaf count are skipped: a leaf bijection forces equality.
    Hom-sets come from the reference walk, and on each target the leaf
    rows of w_hom_rows must be exactly those of the reference hom-set.
    """
    if tree.leaf_count > leaf_bound:
        raise ValueError(
            f"tree has {tree.leaf_count} leaves, above the bound {leaf_bound}"
        )
    result = prune(tree)
    targets_checked = 0
    morphisms_checked = 0

    def failure(problem: str) -> InitialityReport:
        where = f"tree={format_tree(tree)} target={format_tree(target)}"
        return InitialityReport(
            False, targets_checked, morphisms_checked, f"{where} {problem}"
        )

    for target in healthy_trees(tree.height, tree.leaf_count):
        targets_checked += 1
        outgoing = _reference_w_hom(tree, target)
        rows = w_hom_rows(tree, target)
        if len(rows) != len(outgoing) or set(rows) != {
            leaf_row(f) for f in outgoing
        }:
            return failure("hom rows disagree with the reference hom-set")
        if not outgoing:
            continue
        factored = _reference_w_hom(result.pruned, target)
        composites = Counter(
            compose_theta(g, result.morphism) for g in factored
        )
        # per-morphism counts of 1 plus equal sizes pin down a bijection;
        # without the size check a composite falling outside the hom-set
        # could hide
        if len(factored) != len(outgoing):
            return failure(
                f"hom sizes differ: {len(outgoing)} direct vs "
                f"{len(factored)} factored"
            )
        for f in outgoing:
            morphisms_checked += 1
            matches = composites.get(f, 0)
            if matches != 1:
                return failure(f"morphism base={f.base} factors {matches} times")
    return InitialityReport(True, targets_checked, morphisms_checked)


def _run_pruning(params: dict, seed: int) -> _Tally:
    """Unique factorization of leaf-bijective maps through the pruning unit.

    The tree family covers every healthy tree up to the leaf bound plus
    all single leafless graftings (and double graftings at small leaf
    counts); targets range over all healthy trees of matching height and
    leaf count.  Trees with at most ``direct_leaf_bound`` leaves run the
    wreath-level verifier, which also compares each hom-set with the leaf
    rows, and then the leaf-row verifier; larger trees run the row
    verifier alone, whose reduction those comparisons (and the
    healthy-grid probe one size up) pin down.
    """
    leaf_bound = params["leaf_bound"]
    tally = _Tally()
    for height in range(1, params["max_height"] + 1):
        for k in range(params["probe_leaf_bound"] + 1):
            grid = healthy_trees(height, k)
            agreements = 0
            pairs = 0
            bad = None
            for s in grid:
                for t in grid:
                    direct = {leaf_row(m) for m in _reference_w_hom(s, t)}
                    rows = w_hom_rows(s, t)
                    pairs += 1
                    if len(rows) == len(direct) and set(rows) == direct:
                        agreements += 1
                    elif bad is None:
                        bad = f"{format_tree(s)} -> {format_tree(t)}"
            tally.record(agreements == pairs, lambda: (
                f"row/direct agreement on the healthy ({height},{k}) grid", bad
            ))
    for tree in _decoration_family(params):  # none has more than leaf_bound leaves
        report = verify_initiality_by_rows(tree, leaf_bound=leaf_bound)
        if report.passed and tree.leaf_count <= params["direct_leaf_bound"]:
            report = verify_initiality(tree, leaf_bound=leaf_bound)
        tally.record(report.passed, lambda: (
            f"tree {format_tree(tree)} height {tree.height}",
            report.counterexample,
        ))
    return tally


# ---------------------------------------------------------------------------
# geometric round trip


def _run_roundtrip(params: dict, seed: int) -> _Tally:
    tally = _Tally()
    for tree in _decoration_family(params):
        back = tree_of_configuration(realize_tree(tree))
        expected = prune(tree).pruned
        ok = back == expected
        if ok and tree.is_healthy:
            ok = back == tree
        tally.record(ok, lambda: (
            f"tree {format_tree(tree)} height {tree.height}",
            f"round trip gave {format_tree(back)}",
        ))
    return tally


# ---------------------------------------------------------------------------
# homology fixtures and engine sanity


def ordered_betti_oracle(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of the ordered configuration Poincaré polynomial.

    The product over i < k of (1 + i t^(n-1)), exact integers; degree d
    Betti number of the space of k labeled points in R^n.
    """
    poly = [1]
    for i in range(1, k):
        shifted = [0] * (n - 1) + [i * c for c in poly]
        width = max(len(poly), len(shifted))
        poly = [
            (poly[d] if d < len(poly) else 0)
            + (shifted[d] if d < len(shifted) else 0)
            for d in range(width)
        ]
    return tuple(poly)


UNORDERED_FIXTURES = {
    (2, 2): ((1, 1, 0, 0), ((), (), (), ())),
    (2, 3): ((1, 1, 0, 0), ((), (), (), ())),
    (3, 2): ((1, 0, 0, 0), ((), (2,), (), ())),
}

ORDERED_CASES = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))

# the nerves the homology suite builds without ``kind``: one per oracle
# case, five chain posets and the circle, and two categories with a
# relabeled copy of each
_HOMOLOGY_NERVES = len(ORDERED_CASES) + len(UNORDERED_FIXTURES) + 6 + 2 * 2


def _pad(values: tuple, length: int, fill=0) -> tuple:
    return tuple(values[d] if d < len(values) else fill for d in range(length))


def _boundary_squares(matrices) -> bool:
    return all(
        matrices[d].multiply(matrices[d + 1]).is_zero()
        for d in range(len(matrices) - 1)
    )


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact integer determinant."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def minor_gcd(matrix: IntegerMatrix, d: int) -> int:
    """gcd of all d x d minors (0 when every minor vanishes)."""
    if d == 0:
        return 1
    best = 0
    for row_set in combinations(range(matrix.rows), d):
        for col_set in combinations(range(matrix.cols), d):
            sub = [[matrix.entries[i][j] for j in col_set] for i in row_set]
            best = gcd(best, bareiss_determinant(sub))
            if best == 1:
                return 1
    return best


def _snf_agrees_with_minors(matrix: IntegerMatrix) -> tuple[bool, str | None]:
    form = smith_normal_form(matrix)
    for a, b in zip(form.divisors, form.divisors[1:]):
        if a <= 0 or b % a != 0:
            return False, f"divisors {form.divisors} not a chain"
    product = 1
    for d, divisor in enumerate(form.divisors, start=1):
        product *= divisor
        if minor_gcd(matrix, d) != product:
            return False, f"minor gcd at size {d} is not {product}"
    if form.rank < min(matrix.rows, matrix.cols):
        if minor_gcd(matrix, form.rank + 1) != 0:
            return False, f"rank {form.rank} too small"
    return True, None


def _run_homology(params: dict, seed: int) -> _Tally:
    max_degree = params["max_degree"]
    tally = _Tally()

    if params["kind"] is not None:
        _homology_case(tally, params["kind"], params["n"], params["k"], max_degree)
        return tally

    for n, k in ORDERED_CASES:
        _homology_case(tally, "nord", n, k, max_degree)
    for n, k in UNORDERED_FIXTURES:
        _homology_case(tally, "w_hlt", n, k, max_degree)

    circle = poset_category("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    posets = [(f"chain poset length {n}", chain_poset(n), (1,)) for n in range(5)]
    for label, cat, betti in posets + [("two-minima two-maxima poset", circle, (1, 1))]:
        result = _checked_homology(cat, max_degree)
        tally.record(
            result.betti == _pad(betti, max_degree + 1)
            and all(not t for t in result.torsion),
            lambda: (label, str(result)),
        )

    rng = Random(seed)
    for index in range(params["matrices"]):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        matrix = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
            cols,
        )
        ok, why = _snf_agrees_with_minors(matrix)
        tally.record(ok, lambda: (f"random matrix {index} ({rows}x{cols})", why))

    for label, builder in (
        ("nord22", lambda: build_category("nord", 2, 2)),
        ("w_hlt32", lambda: build_category("w_hlt", 3, 2)),
    ):
        cat = builder()
        base = _checked_homology(cat, max_degree)
        perm = list(range(len(cat.objects)))
        Random(seed + 1).shuffle(perm)
        moved = _checked_homology(cat.permuted(tuple(perm)), max_degree)
        tally.record(
            base.betti == moved.betti and base.torsion == moved.torsion,
            lambda: (f"object order invariance {label}", f"{base} vs {moved}"),
        )
    return tally


def _checked_homology(
    cat: FiniteCategoryView, max_degree: int
) -> HomologyResult:
    """Homology plus the boundary-square check in one pass."""
    matrices = nerve_chain_complex(cat, max_degree + 1)
    if not _boundary_squares(matrices):
        raise AssertionError("boundary of boundary is nonzero")
    return homology_from_boundaries(matrices, max_degree)


def _homology_case(
    tally: _Tally, kind: str, n: int, k: int, max_degree: int
) -> None:
    cat = build_category(kind, n, k)
    validation = cat.validate()
    result = _checked_homology(cat, max_degree)
    if kind == "nord":
        betti, torsion = ordered_betti_oracle(n, k), ()
    else:
        betti, torsion = UNORDERED_FIXTURES[(n, k)]
    expected_betti = _pad(betti, max_degree + 1)
    expected_torsion = _pad(torsion, max_degree + 1, ())
    # a nerve with no cells past its top built dimension is complete: its
    # cells' Euler characteristic is P(-1) of the ordered oracle, over k! in w_hlt
    chi = sum((-1) ** d * b for d, b in enumerate(ordered_betti_oracle(n, k)))
    chi //= factorial(k) if kind == "w_hlt" else 1
    cells_chi = sum((-1) ** d * c for d, c in enumerate(result.chain_sizes))
    euler_ok = result.chain_sizes[-1] > 0 or cells_chi == chi
    ok = (
        validation.ok
        and euler_ok
        and result.betti == expected_betti
        and result.torsion == expected_torsion
    )
    tally.record(ok, lambda: (
        f"{kind} n={n} k={k}",
        f"got {result} expected betti {expected_betti} "
        f"torsion {expected_torsion} (category valid: {validation.ok}, "
        f"cells' Euler characteristic {cells_chi}, oracle's {chi}, "
        f"max hom size {cat.max_hom_size})",
    ))


# ---------------------------------------------------------------------------
# simplicial-circle laws


def _check_delta_laws(params: dict) -> None:
    """ResourceCapError once the delta-laws suite would list more than
    ``DEFAULT_HOM_CAP`` maps, sum of |hom(p, q)| = C(p + q + 1, q) over
    p, q <= max_rank, or compose more than ``COMPOSITION_CAP`` pairs,
    |hom(p, q)| * |hom(q, r)| over p, q, r <= compose_rank; summed by the
    hockey-stick identity once the shape counts, lower bounds, pass.  The
    message gives no count, which can run to hundreds of digits."""
    m, c = params["max_rank"], params["compose_rank"]
    what = "delta-laws maps"
    check_cap((m + 1) ** 2, DEFAULT_HOM_CAP, what, exact=False)
    check_cap(comb(2 * m + 3, m + 1) - m - 2, DEFAULT_HOM_CAP, what, exact=False)
    what = "delta-laws composed pairs"
    check_cap((c + 1) ** 3, COMPOSITION_CAP, what, exact=False)
    check_cap(sum((comb(q + c + 2, c + 1) - 1) * comb(q + c + 2, c)
                  for q in range(c + 1)), COMPOSITION_CAP, what, exact=False)


def _run_delta_laws(params: dict, seed: int) -> _Tally:
    max_rank, compose_rank = params["max_rank"], params["compose_rank"]
    tally = _Tally()

    for p in range(max_rank + 1):
        for q in range(max_rank + 1):
            homs = enumerate_delta_hom(p, q)
            # Constant maps all share the all-basepoint image, and they are
            # the only collisions; every non-constant map is pinned down by
            # its circle, and active maps in particular are.
            constants = [f for f in homs if f.values[0] == f.values[-1]]
            rest = [f for f in homs if f.values[0] != f.values[-1]]
            rest_images = {simplicial_circle(f).pairs for f in homs}
            sharp = len(rest_images) == len(rest) + (1 if constants else 0)
            sharp = sharp and all(
                simplicial_circle(f).pairs == () for f in constants
            )
            tally.record(sharp, lambda: (
                f"injectivity p={p} q={q}",
                f"{len(homs)} maps, {len(rest_images)} images, "
                f"{len(constants)} constants",
            ))
            actives = [f for f in homs if f.is_active]
            active_images = {simplicial_circle(f).pairs for f in actives}
            tally.record(len(active_images) == len(actives), lambda: (
                f"active injectivity p={p} q={q}",
                f"{len(actives)} active maps, {len(active_images)} images",
            ))
            totals = sum(1 for f in homs if simplicial_circle(f).is_total)
            matched = all(
                f.is_active == simplicial_circle(f).is_total for f in homs
            )
            tally.record(matched and len(actives) == totals, lambda: (
                f"active equivalence p={p} q={q}",
                f"{len(actives)} active vs {totals} total",
            ))

    for p in range(compose_rank + 1):
        for q in range(compose_rank + 1):
            inner = enumerate_delta_hom(p, q)
            for r in range(compose_rank + 1):
                outer = enumerate_delta_hom(q, r)
                ok = True
                witness = None
                for f in inner:
                    gamma_f = simplicial_circle(f)
                    for g in outer:
                        left = simplicial_circle(compose_delta(g, f))
                        right = compose_pointed(gamma_f, simplicial_circle(g))
                        if left != right:
                            ok = False
                            witness = f"f={f} g={g}"
                            break
                    if not ok:
                        break
                tally.record(ok, lambda: (f"contravariance p={p} q={q} r={r}", witness))
    return tally


# ---------------------------------------------------------------------------
# the suite table


# each suite's runner and its parameters, key -> default, in the order the
# unknown-key message lists them; kind, n and k are None for no single
# homology case.  The cap checks and the runner read the given params
# merged over these (see _check_params), so each default is stated once.
_SUITES = {
    "functoriality": (_run_functoriality, {"pairs": 1000, "max_k": 5, "dims": (1, 2, 3)}),
    "pruning": (_run_pruning, {
        "max_height": 3, "leaf_bound": 6, "extra": 1, "deep_extra": 2,
        "deep_leaf_bound": 3, "direct_leaf_bound": 4, "probe_leaf_bound": 5,
    }),
    "roundtrip": (_run_roundtrip, {
        "max_height": 3, "leaf_bound": 8, "extra": 1, "deep_extra": 2,
        "deep_leaf_bound": 4,
    }),
    "homology": (_run_homology, {
        "max_degree": 3, "matrices": 200, "kind": None, "n": None, "k": None,
    }),
    "delta-laws": (_run_delta_laws, {"max_rank": 5, "compose_rank": 4}),
}

SUITE_NAMES = (*_SUITES, "all")


# ---------------------------------------------------------------------------
# fixture tables


def emit_fixture_tables() -> str:
    """The homology oracle tables in one delimited, human-readable page."""
    lines = [
        "# Homology fixtures",
        "",
        "## Ordered configurations (labeled points)",
        "Betti numbers are coefficients of prod_{i=1}^{k-1} (1 + i t^(n-1)),",
        "the classical Poincare polynomial of k labeled points in R^n",
        "(Arnold's computation for the plane, extending to all n).",
        "",
        "n\tk\tbetti (degrees 0..3)",
    ]
    for n, k in ORDERED_CASES:
        betti = _pad(ordered_betti_oracle(n, k), 4)
        lines.append(f"{n}\t{k}\t{','.join(str(b) for b in betti)}")
    lines.extend(
        [
            "",
            "## Unordered configurations (indistinguishable points)",
            "n\tk\tgroups (H_0, H_1, H_2)\tprovenance",
        ]
    )
    notes = {
        (2, 2): "two plane points up to swap: homotopy circle (angle mod pi)",
        (2, 3): "braid group B_3 classifying space: H_1 = Z (abelianization),"
        " H_2 = 0",
        (3, 2): "two space points up to swap: RP^2, torsion Z/2 in degree 1",
    }
    for (n, k), (betti, torsion) in sorted(UNORDERED_FIXTURES.items()):
        groups = HomologyResult(2, betti[:3], torsion[:3], ())
        lines.append(f"{n}\t{k}\t{groups}\t{notes[n, k]}")
    lines.extend(
        [
            "",
            "## Degenerate line cases",
            "Configurations in R^1 have contractible components indexed by",
            "orderings: k labeled points give k! components, so all Betti",
            "mass sits in degree 0.",
            "",
        ]
    )
    return "\n".join(lines)
