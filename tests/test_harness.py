"""Tests for the verification suites, their oracles, and report formats.

Oracle helpers are checked by independent means first (cofactor expansion
for determinants, classical closed-form identities for the Poincare
coefficients); the suites themselves are exercised at small parameters so
the whole file stays fast.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from itertools import product
from math import factorial
from random import Random

import pytest

from thetaran import harness
from thetaran.harness import (
    ORDERED_CASES,
    UNORDERED_FIXTURES,
    bareiss_determinant,
    canonical_report,
    emit_fixture_tables,
    minor_gcd,
    ordered_betti_oracle,
    run_suite,
)
from thetaran.homology import IntegerMatrix, smith_normal_form
from thetaran.theta import ResourceCapError, empty_tree, parse_tree


def cofactor_determinant(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


FAST_PARAMS = {
    "functoriality": {"pairs": 4, "max_k": 3},
    "pruning": {
        "leaf_bound": 3,
        "max_height": 2,
        "probe_leaf_bound": 3,
        "direct_leaf_bound": 3,
        "deep_extra": 1,
    },
    "roundtrip": {"leaf_bound": 3, "max_height": 2, "deep_leaf_bound": 2},
    "homology": {"matrices": 5},
    "delta-laws": {"max_rank": 2, "compose_rank": 1},
}


class TestBettiOracle:
    def test_frozen_small_cases(self):
        # (1 + t)(1 + 2t) = 1 + 3t + 2t^2 and friends, expanded by hand
        assert ordered_betti_oracle(2, 2) == (1, 1)
        assert ordered_betti_oracle(2, 3) == (1, 3, 2)
        assert ordered_betti_oracle(3, 2) == (1, 0, 1)
        assert ordered_betti_oracle(3, 3) == (1, 0, 3, 0, 2)
        assert ordered_betti_oracle(1, 2) == (2,)
        assert ordered_betti_oracle(1, 3) == (6,)
        assert ordered_betti_oracle(2, 1) == (1,)

    def test_classical_identities(self):
        # evaluating the product at t = 1 gives k!, the degree is
        # (k-1)(n-1), and for n >= 2 the factors stay separated so the
        # leading coefficient is (k-1)!; at n = 1 everything collapses
        # onto degree 0
        for n in (1, 2, 3, 4):
            for k in (1, 2, 3, 4, 5):
                poly = ordered_betti_oracle(n, k)
                assert sum(poly) == factorial(k)
                assert len(poly) == (k - 1) * (n - 1) + 1
                assert all(b >= 0 for b in poly)
                if n >= 2:
                    assert poly[-1] == factorial(k - 1)


class TestMatrixOracles:
    def test_bareiss_against_cofactor(self):
        rng = Random(5)
        for _ in range(30):
            n = rng.randint(0, 4)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(rows) == cofactor_determinant(rows)

    def test_bareiss_edge_cases(self):
        assert bareiss_determinant([]) == 1
        assert bareiss_determinant([[7]]) == 7
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0

    def test_minor_gcd_frozen(self):
        m = IntegerMatrix.from_rows([[2, 4], [6, 8]], 2)
        assert minor_gcd(m, 0) == 1
        assert minor_gcd(m, 1) == 2
        assert minor_gcd(m, 2) == 8
        divisors = smith_normal_form(m).divisors
        assert divisors == (2, 4)
        assert divisors[0] == 2 and divisors[0] * divisors[1] == 8


class TestReports:
    def test_equal_inputs_give_byte_identical_reports(self):
        first = run_suite("delta-laws", FAST_PARAMS["delta-laws"], 3)
        second = run_suite("delta-laws", FAST_PARAMS["delta-laws"], 3)
        assert canonical_report(first) == canonical_report(second)

    def test_canonical_shape(self):
        report = run_suite("functoriality", {"pairs": 2}, 9)
        doc = json.loads(canonical_report(report))
        assert set(doc) == {
            "suite",
            "params",
            "seed",
            "cases",
            "passes",
            "passed",
            "first_counterexample",
        }
        assert doc["suite"] == "functoriality"
        assert doc["seed"] == 9
        assert doc["cases"] == 2
        assert doc["passed"] is (doc["cases"] == doc["passes"])
        assert "wall_ms" not in doc
        assert run_suite("functoriality", {"pairs": 1}).seed == 0

    def test_wall_clock_is_positive(self):
        before = time.perf_counter()
        report = run_suite("delta-laws", FAST_PARAMS["delta-laws"], 0)
        assert 0 < report.wall_ms <= (time.perf_counter() - before) * 1000


class TestSuiteTable:
    def test_one_entry_per_suite_in_order(self):
        assert harness.SUITE_NAMES == (*harness._SUITES, "all") == (
            "functoriality", "pruning", "roundtrip", "homology", "delta-laws", "all")

    @pytest.mark.parametrize("name", harness.SUITE_NAMES[:-1])
    def test_defaults_pass_the_checks(self, name):
        # stated as given params (kind, n and k have no value but None),
        # the defaults pass, and are what an empty params dict merges to
        runner, defaults = harness._SUITES[name]
        given = {key: value for key, value in defaults.items() if value is not None}
        assert harness._check_params(name, given) == defaults
        assert harness._check_params(name, {}) == defaults
        assert list(defaults) == list(harness._check_params(name, {}))
        assert runner.__name__ == "_run_" + name.replace("-", "_")

    def test_all_merges_each_part_once(self):
        merged = harness._check_params("all", {"roundtrip": {"max_height": 2}})
        assert list(merged) == list(harness._SUITES)
        assert merged["roundtrip"] == suite_params("roundtrip", {"max_height": 2})
        assert merged["pruning"] == harness._SUITES["pruning"][1]

    def test_given_kind_none_counts_every_nerve(self, monkeypatch):
        # an explicit kind=None runs all the nerves, and the degree cap
        # counts all of them, as it does without kind
        per_nerve = harness._SUITES["homology"][1]["max_degree"] + 2
        monkeypatch.setattr(harness, "DEFAULT_CHAIN_CAP",
                            harness._HOMOLOGY_NERVES * per_nerve - 1)
        for params in ({}, {"kind": None}):
            with pytest.raises(ResourceCapError, match="nerve degrees"):
                harness._check_params("homology", params)
        harness._check_params("homology", {"kind": "nord", "n": 2, "k": 2})


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("bogus", {}, 0)

    @pytest.mark.parametrize(
        "params",
        [{"pairs": True}, {"pairs": "2"}, {"dims": ()}, {"dims": (1, 2.0)},
         {"dims": "1, 2,x"}, {"max_k": None}],
    )
    def test_params_must_be_integers(self, params):
        with pytest.raises(ValueError, match=f"needs {next(iter(params))} as "):
            run_suite("functoriality", params, 0)

    def test_dims_read_as_ints_strings_and_sequences(self):
        reports = [run_suite("functoriality", {"pairs": 3, "dims": dims}, 5)
                   for dims in (2, "2,1", (2, 1), [2, 1])]
        assert all(report.passed and report.cases == 3 for report in reports)
        # both ends of 1..MAX_TREE_DEPTH are dimensions
        assert harness._check_params("functoriality", {"dims": "1,200"})["dims"] == "1,200"

    def test_all_aggregates_the_five(self):
        combined = run_suite("all", FAST_PARAMS, 11)
        parts = [
            run_suite(name, FAST_PARAMS[name], 11) for name in FAST_PARAMS
        ]
        assert combined.cases == sum(p.cases for p in parts)
        assert combined.passes == sum(p.passes for p in parts)
        assert combined.passed
        assert combined.params == {}

    def test_all_names_the_first_failing_part(self, monkeypatch):
        # the parts run in table order with their merged params; the first
        # failure is kept, prefixed with its suite, and a later one does
        # not replace it
        seen = []

        def runner(name, fails):
            def run(params, seed):
                seen.append((name, params, seed))
                tally = harness._Tally()
                tally.record(True, None)
                if fails:
                    tally.record(False, lambda: (f"{name} case", "detail"))
                return tally
            return run

        for name, (_, defaults) in list(harness._SUITES.items()):
            fails = name in ("roundtrip", "delta-laws")
            monkeypatch.setitem(harness._SUITES, name, (runner(name, fails), defaults))
        report = run_suite("all", {"pruning": {"leaf_bound": 2}}, 4)
        assert (report.cases, report.passes) == (7, 5)
        assert report.first_counterexample == "roundtrip: roundtrip case: detail"
        assert [name for name, _, _ in seen] == list(harness._SUITES)
        assert seen[1] == ("pruning", suite_params("pruning", {"leaf_bound": 2}), 4)

    def test_homology_single_kind(self):
        report = run_suite("homology", {"kind": "nord", "n": 2, "k": 2}, 0)
        assert report.cases == 1 and report.passed

    def test_euler_check_catches_planted_errors(self, monkeypatch):
        # w_hlt(2, 3) has cells (4, 16, 12) and chi 0 = 0/3!; its betti
        # and torsion come from UNORDERED_FIXTURES, so only the Euler
        # check reads the ordered oracle or counts the cells
        params = {"kind": "w_hlt", "n": 2, "k": 3}
        assert run_suite("homology", params, 0).passed
        checked = harness._checked_homology

        def one_more_cell(cat, max_degree):
            result = checked(cat, max_degree)
            sizes = (result.chain_sizes[0] + 1,) + result.chain_sizes[1:]
            return replace(result, chain_sizes=sizes)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_checked_homology", one_more_cell)
            report = run_suite("homology", params, 0)
        assert not report.passed
        assert "cells' Euler characteristic 1, oracle's 0" in report.first_counterexample
        # a wrong oracle fails the case while the nerve is complete, and is
        # not read below its top dimension, where the cells' sum is partial
        monkeypatch.setattr(harness, "ordered_betti_oracle", lambda n, k: (6,))
        report = run_suite("homology", params, 0)
        assert not report.passed
        assert "cells' Euler characteristic 0, oracle's 1" in report.first_counterexample
        assert run_suite("homology", {**params, "max_degree": 0}, 0).passed

    def test_pruning_tiny_family_case_count(self):
        # height 1 only: probes at k = 0, 1, 2 plus the three trees
        # [0], [1], [2], which have no leafless decorations
        report = run_suite(
            "pruning",
            {"leaf_bound": 2, "max_height": 1, "probe_leaf_bound": 2},
            0,
        )
        assert report.cases == 6
        assert report.passed

    def test_functoriality_case_count_tracks_pairs(self):
        report = run_suite("functoriality", {"pairs": 3}, 4)
        assert report.cases == 3 and report.passed

    @pytest.mark.parametrize("name, params, bound", [
        # probe grid: 1 + 1 + 1 pairs at height 1, 1 + 1 + 2^2 at height 2;
        # family, (trees, then x(2V + 1) per graft round): height 1 gives
        # 1 + 1 at k = 0, 1 + 3 at k = 1, 1 at k = 2; height 2 gives
        # 1 + 1, 1 + 5, 2: 9 + 17 = 26
        ("pruning", {"max_height": 2, "leaf_bound": 2, "probe_leaf_bound": 2,
                     "extra": 0, "deep_extra": 1, "deep_leaf_bound": 1}, 26),
        # ten one-tree shapes, summed in one step
        ("roundtrip", {"max_height": 1, "leaf_bound": 9, "extra": 0,
                       "deep_extra": 0}, 10),
        # the defaults, well within the cap of 1,000,000
        ("pruning", {}, 27_332),
        ("roundtrip", {}, 188_242),
        # 1 + 1 + 3 for k = 0 over two graft rounds, then nine one-tree
        # shapes whose one-step sum alone passes the cap below
        ("roundtrip", {"max_height": 1, "leaf_bound": 9, "deep_leaf_bound": 0,
                       "deep_extra": 2, "extra": 0}, 14),
    ])
    def test_family_bound_is_exact_at_the_cap(self, monkeypatch, name, params,
                                              bound):
        params = suite_params(name, params)
        monkeypatch.setattr(harness, "DEFAULT_HOM_CAP", bound)
        harness._check_family(name, params)
        monkeypatch.setattr(harness, "DEFAULT_HOM_CAP", bound - 1)
        with pytest.raises(ResourceCapError):
            harness._check_family(name, params)

    def test_one_tree_shapes_are_summed_in_one_step(self):
        # 10^6 height-1 shapes without grafts, exactly the cap
        params = suite_params("roundtrip", {"max_height": 1, "leaf_bound": 999_999,
                                            "extra": 0, "deep_extra": 0})
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            harness._check_family("roundtrip", params)
            best = min(best, time.perf_counter() - started)
        assert best < 0.05

    @pytest.mark.parametrize("name", ["pruning", "roundtrip"])
    def test_family_bound_matches_per_shape_sum(self, monkeypatch, name):
        monkeypatch.setattr(harness, "DEFAULT_HOM_CAP", 60)
        grid = product(range(4), (0, 2, 5), (0, 1), (0, 2), (0, 1, 3), (0, 2))
        outcomes = set()
        for height, leaves, extra, deep_extra, deep_leaves, probe in grid:
            params = suite_params(name, {
                "max_height": height, "leaf_bound": leaves, "extra": extra,
                "deep_extra": deep_extra, "deep_leaf_bound": deep_leaves})
            if name == "pruning":
                params["probe_leaf_bound"] = probe
            try:
                harness._check_family(name, params)
                passed = True
            except ResourceCapError:
                passed = False
            assert passed == (per_shape_family_bound(name, params) <= 60), params
            outcomes.add(passed)
        assert outcomes == {True, False}


def suite_params(name: str, params: dict) -> dict:
    """``params`` merged over the suite's defaults in the suite table."""
    return {**harness._SUITES[name][1], **params}


def per_shape_family_bound(name: str, params: dict) -> int:
    """The tree-family bound of ``_check_family`` summed one term per probe
    (height, k) and per graft round of each (height, k) shape; ``params``
    holds every key of the suite."""
    probe_bound = params["probe_leaf_bound"] if name == "pruning" else -1
    total = 0
    for height in range(1, params["max_height"] + 1):
        for k in range(probe_bound + 1):
            total += (height ** (k - 1) if k else 1) ** 2
        for k in range(params["leaf_bound"] + 1):
            rounds = (params["deep_extra"] if k <= params["deep_leaf_bound"]
                      else params["extra"])
            trees = height ** (k - 1) if k else 1
            for vertices in range(height * k, height * k + rounds + 1):
                total += trees
                trees *= 2 * vertices + 1
    return total


class TestPlantedFailures:
    """Case text is formatted only for a failing case; the first
    counterexample must read as it did when every case formatted its own.
    The expected strings were taken from the eager formatting."""

    def test_functoriality_counterexample_text(self, monkeypatch):
        compose = harness.compose_theta
        calls = []

        def third_call_fails(second, first):
            calls.append(None)
            return None if len(calls) == 3 else compose(second, first)

        monkeypatch.setattr(harness, "compose_theta", third_call_fails)
        report = run_suite("functoriality", {"pairs": 12}, 0)
        assert (report.cases, report.passes) == (12, 11)
        assert report.first_counterexample == (
            "case 2 n=3 k=4: start={(0, 8, 15), (1, 0, 4), (2, 15, 8), "
            "(15, 11, 10)} mid={(7/8, 9, 105/8), (45/16, 255/16, 97/16), "
            "(45/16, 257/16, 47/8)} end={(15/8, 639/64, 903/64), "
            "(485/128, 1083/64, 451/64), (485/128, 273/16, 55/8), "
            "(491/128, 2169/128, 451/64)} maps=(0, 2, 2)/(0, 1, 2, 1)"
        )

    def test_roundtrip_counterexample_text(self, monkeypatch):
        tree_of = harness.tree_of_configuration

        def wrong_on_big_solids(cfg):
            if cfg.dimension == 3 and cfg.size > 2:
                return empty_tree(3)
            return tree_of(cfg)

        monkeypatch.setattr(harness, "tree_of_configuration", wrong_on_big_solids)
        report = run_suite("roundtrip", {"max_height": 3, "leaf_bound": 3}, 0)
        assert (report.cases, report.passes) == (507, 170)
        assert report.first_counterexample == (
            "tree [1]([1]([3])) height 3: round trip gave [0]"
        )


class TestWreathReference:
    def test_verifier_compares_rows_with_the_reference(self, monkeypatch):
        # the wreath-level verifier holds the reference hom-set of each
        # target, so a row missing from the leaf-row hom-set fails there
        tree = parse_tree("[2]([0],[3])")
        fan = parse_tree("[3]([1],[1],[1])")
        listed = harness.w_hom_rows

        def dropped(source, target, cap=harness.DEFAULT_HOM_CAP):
            rows = listed(source, target, cap)
            return rows[:-1] if (source, target) == (tree, fan) else rows

        assert harness.verify_initiality(tree, 4).passed
        monkeypatch.setattr(harness, "w_hom_rows", dropped)
        report = harness.verify_initiality(tree, 4)
        assert not report.passed
        assert report.counterexample == (
            "tree=[2]([0],[3]) target=[3]([1],[1],[1]) "
            "hom rows disagree with the reference hom-set"
        )

    def test_reference_is_capped_by_the_active_count(self, monkeypatch):
        # 27 active maps [1]([3]) -> [3]([1],[1],[1]), 6 of them in w
        s, t = parse_tree("[1]([3])"), parse_tree("[3]([1],[1],[1])")
        assert len(harness._reference_w_hom(s, t)) == 6
        monkeypatch.setattr(harness, "DEFAULT_HOM_CAP", 10)
        with pytest.raises(ResourceCapError):
            harness._reference_w_hom(s, t)


class TestFixtureTables:
    def test_content(self):
        page = emit_fixture_tables()
        assert "# Homology fixtures" in page
        assert "prod_{i=1}^{k-1}" in page
        assert "1,3,2" in page
        assert "(Z, Z/2, 0)" in page
        assert "RP^2" in page
        assert "k! components" in page

    def test_covers_every_case(self):
        page = emit_fixture_tables()
        for n, k in ORDERED_CASES:
            assert f"{n}\t{k}\t" in page
        for n, k in UNORDERED_FIXTURES:
            assert f"{n}\t{k}\t" in page
