"""The benchmark's workloads: seeded inputs, timed calls, oracle checks.

A workload turns ``(seed, size)`` into inputs during set-up, then ``run``
calls into the program case by case.  Only the program calls sit inside
the timed region; the oracle checks and the exact work counters are
computed between them, from the values the calls returned, and are not
timed.  Every workload runs in a fresh interpreter (see ``worker.py``), so
the ``lru_cache`` tables in ``theta`` and ``simplex`` start empty, as they
do for every ``theta-ran`` invocation.

The benchmark's two workloads each run two parts, one after the other in
one process.  Each part stresses its own layers:

* ``homology-smith``: nerve homology through degree 3 of the fixture
  categories plus w_hlt(2,4) and w_hlt(3,3).  Nearly all of its time is
  dense Smith normal form; the category builds are small.
* ``category-build``: three categories whose arrow counts make the
  quadratic build and ``validate`` dominate, with homology in degree 0
  only, so Smith form is a small share.
* ``pruning-rows``: the criterion-4 tree family checked through leaf rows
  (``verify_initiality_by_rows``), the same ``theta`` hom-set layer as the
  category build but without materialized morphisms.
* ``exit-paths``: the functoriality suite, the one place where ``config``
  (exact rational exit-path validation) dominates.

``homology`` pairs the first two and ``rows-paths`` the last two.  A change
to Smith form or to the category build moves ``homology`` and should
leave ``rows-paths`` alone; a change to the leaf-row hom-sets or to
``config`` does the opposite.  Two long workloads instead of four short
ones because the host's speed drifts over tens of seconds, and a run
twice as long averages out more of it within the same total run time.
"""

from __future__ import annotations

import time
from collections import Counter
from random import Random

from thetaran import harness, homology, theta

# Groups pinned from earlier runs of the dense engine, cross-checked by
# Euler characteristic: chi(w_hlt(n,k)) = ordered_betti_oracle(n,k)(-1)/k!.
# w_hlt(2,4) is the classifying space of the braid group B_4.
PINNED_UNORDERED = {
    (2, 4): ((1, 1, 0, 0), ((), (), (2,), ())),
    (3, 3): ((1, 0, 0, 0), ((), (2,), (), (3,))),
}

HOMOLOGY_DEGREE = 3
RANDOM_MATRICES = {"full": 200, "tiny": 20}
CATEGORY_CASES = {
    "full": (("w_hlt", 3, 4), ("w_hlt", 2, 5), ("nord", 3, 3)),
    "tiny": (("w_hlt", 2, 3), ("w_hlt", 3, 2), ("nord", 2, 2)),
}
# The criterion-4 family: decorated trees of heights 1-3 with at most this
# many leaves, two grafts up to three leaves and one above (the suite's
# weights).
PRUNING_LEAF_BOUND = {"full": 6, "tiny": 3}
PRUNING_FAMILY_SIZE = {"full": 4717, "tiny": 507}
EXIT_PATH_PAIRS = {"full": 2000, "tiny": 40}


class Sample:
    """Timings, oracle verdicts and exact counters of one sample."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.part_wall_s: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None
        self.counters: Counter = Counter()

    def timed(self, fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.wall_s += time.perf_counter() - started
        return result

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.tally(name, 1, 1 if ok else 0, detail)

    def tally(self, name: str, cases: int, passes: int, detail: object) -> None:
        self.attempted += cases
        self.failed += cases - passes
        if passes < cases and self.first_failure is None:
            self.first_failure = f"{name}: {detail}"


def _padded(values: tuple, length: int, fill) -> tuple:
    return tuple(values[d] if d < len(values) else fill for d in range(length))


def _count_category(sample: Sample, cat, matrices) -> None:
    sample.counters["homology.arrows"] += len(cat.morphisms)
    sample.counters["homology.composable_pairs"] += len(cat.composition)
    sample.counters["homology.cells"] += matrices[0].rows + sum(
        m.cols for m in matrices
    )
    sample.counters["homology.boundary_nonzeros"] += sum(
        1 for m in matrices for row in m.entries for v in row if v
    )


# ---------------------------------------------------------------------------
# homology-smith


def _homology_inputs(seed: int, size: str):
    top = HOMOLOGY_DEGREE + 1
    cases = [
        ("nord", n, k, _padded(harness.ordered_betti_oracle(n, k), top, 0),
         ((),) * top)
        for n, k in harness.ORDERED_CASES
    ]
    fixtures = dict(harness.UNORDERED_FIXTURES)
    if size == "full":
        fixtures.update(PINNED_UNORDERED)
    for (n, k), (betti, torsion) in fixtures.items():
        cases.append(
            ("w_hlt", n, k, _padded(betti, top, 0), _padded(torsion, top, ()))
        )
    rng = Random(seed)
    rng.shuffle(cases)
    matrices = []
    for _ in range(RANDOM_MATRICES[size]):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        matrices.append(
            homology.IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                cols,
            )
        )
    return cases, matrices


def _smith_agrees_with_minors(matrix, form) -> tuple[bool, str]:
    """The product of the first d divisors is the gcd of the d x d minors."""
    product = 1
    for d, divisor in enumerate(form.divisors, start=1):
        product *= divisor
        if divisor <= 0 or harness.minor_gcd(matrix, d) != product:
            return False, f"divisors {form.divisors} disagree at size {d}"
    if form.rank < min(matrix.rows, matrix.cols):
        if harness.minor_gcd(matrix, form.rank + 1) != 0:
            return False, f"rank {form.rank} too small"
    return True, ""


def _run_homology(inputs, sample: Sample, seed: int) -> None:
    cases, matrices = inputs
    for kind, n, k, betti, torsion in cases:
        cat = sample.timed(homology.build_category, kind, n, k)
        boundaries = sample.timed(
            homology.nerve_chain_complex, cat, HOMOLOGY_DEGREE + 1
        )
        result = sample.timed(
            homology.homology_from_boundaries, boundaries, HOMOLOGY_DEGREE
        )
        _count_category(sample, cat, boundaries)
        sample.check(
            f"{kind}({n},{k})",
            result.betti == betti and result.torsion == torsion,
            f"got {result}, expected betti {betti} torsion {torsion}",
        )
    for index, matrix in enumerate(matrices):
        form = sample.timed(homology.smith_normal_form, matrix)
        ok, why = _smith_agrees_with_minors(matrix, form)
        sample.check(f"random matrix {index}", ok, why)


# ---------------------------------------------------------------------------
# category-build


def _category_inputs(seed: int, size: str):
    cases = list(CATEGORY_CASES[size])
    Random(seed).shuffle(cases)
    return cases


def _run_category(cases, sample: Sample, seed: int) -> None:
    for kind, n, k in cases:
        cat = sample.timed(homology.build_category, kind, n, k)
        validation = sample.timed(cat.validate, seed=seed)
        boundaries = sample.timed(homology.nerve_chain_complex, cat, 1)
        result = sample.timed(homology.homology_from_boundaries, boundaries, 0)
        _count_category(sample, cat, boundaries)
        sample.check(f"{kind}({n},{k}) validate", validation.ok, validation)
        sample.check(
            f"{kind}({n},{k}) H_0",
            result.betti == (1,) and result.torsion == ((),),
            result,
        )


# ---------------------------------------------------------------------------
# pruning-rows


def _leaves(tree) -> int:
    if tree.height == 1:
        return tree.rank
    return sum(_leaves(c) for c in tree.children)


def _skeleton(tree):
    """The tree with leafless branches dropped, as nested tuples.

    Computed here rather than through ``theta.prune`` so set-up fills no
    program cache.  How many rows a tree's check compares depends only on
    this shape, so one tree per shape gives every seed the same row count.
    """
    if tree.height == 1:
        return tree.rank
    return tuple(_skeleton(c) for c in tree.children if _leaves(c))


def _pruning_inputs(seed: int, size: str):
    groups: dict = {}
    for height in (1, 2, 3):
        for leaves in range(PRUNING_LEAF_BOUND[size] + 1):
            for tree in theta.decorated_trees(height, leaves, 2 if leaves <= 3 else 1):
                groups.setdefault((height, _skeleton(tree)), []).append(tree)
    family = sum(len(trees) for trees in groups.values())
    if family != PRUNING_FAMILY_SIZE[size]:
        raise RuntimeError(
            f"pruning family has {family} trees, expected "
            f"{PRUNING_FAMILY_SIZE[size]}"
        )
    rng = Random(seed)
    picked = [rng.choice(trees) for trees in groups.values()]
    rng.shuffle(picked)
    return picked


def _run_pruning(trees, sample: Sample, seed: int) -> None:
    for tree in trees:
        report = sample.timed(theta.verify_initiality_by_rows, tree, leaf_bound=6)
        sample.counters["theta.rows_checked"] += report.morphisms_checked
        sample.counters["theta.targets_checked"] += report.targets_checked
        sample.check(
            f"tree {theta.format_tree(tree)}", report.passed, report.counterexample
        )


# ---------------------------------------------------------------------------
# exit-paths


def _exit_inputs(seed: int, size: str):
    return EXIT_PATH_PAIRS[size]


def _run_exit(pairs: int, sample: Sample, seed: int) -> None:
    report = sample.timed(harness.run_suite, "functoriality", {"pairs": pairs}, seed)
    sample.counters["harness.cases"] += report.cases
    sample.check("functoriality case count", report.cases == pairs, report.cases)
    sample.tally(
        "functoriality", report.cases, report.passes, report.first_counterexample
    )


PARTS = {
    "homology-smith": (_homology_inputs, _run_homology),
    "category-build": (_category_inputs, _run_category),
    "pruning-rows": (_pruning_inputs, _run_pruning),
    "exit-paths": (_exit_inputs, _run_exit),
}
WORKLOADS = {
    "homology": ("homology-smith", "category-build"),
    "rows-paths": ("pruning-rows", "exit-paths"),
}


def make_inputs(workload: str, seed: int, size: str) -> list:
    """Set-up: the inputs of each part, a function of the seed alone."""
    return [PARTS[part][0](seed, size) for part in WORKLOADS[workload]]


def run(workload: str, inputs: list, seed: int) -> Sample:
    """The timed body: every program call of one sample, checked."""
    sample = Sample()
    for part, part_inputs in zip(WORKLOADS[workload], inputs):
        before = sample.wall_s
        PARTS[part][1](part_inputs, sample, seed)
        sample.part_wall_s[part] = sample.wall_s - before
    return sample
