"""End-to-end command line tests, driven through main(argv).

Exit codes under test: 0 success, 1 verification or validation failure,
2 usage or input errors, 3 resource caps.
"""

from __future__ import annotations

import json
import re
import sys
import time
from math import comb

import pytest

from thetaran import harness, homology
from thetaran.cli import main
from thetaran.theta import _FILTERS, ResourceCapError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


VALID_SPLIT = {
    "dimension": 1,
    "source": [["0"]],
    "target": [["-1"], ["1"]],
    "map": [0, 0],
}

# the message of every height or dimension over MAX_TREE_DEPTH
BOUND = "exceeds the tree-height bound 200"

SWAP_PATH = {
    "dimension": 1,
    "source": [["0"], ["1"]],
    "target": [["0"], ["1"]],
    "map": [1, 0],
}


class TestTree:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "tree", "--tree", "[2]([1],[1])")
        assert code == 0
        assert "healthy: True" in out

    def test_json_prune(self, capsys):
        code, out, _ = run(
            capsys, "tree", "--tree", "[2]([0],[2])", "--prune", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pruned"] == "[1]([2])"
        assert doc["unit"]["datum"]["base"] == "(0,0,1)"
        assert doc["healthy"] is False

    def test_layer_sizes(self, capsys):
        code, out, _ = run(
            capsys, "tree", "--tree", "[3]([1],[3],[0])", "--leaves", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["layer_sizes"] == [4, 3]

    def test_malformed_tree_is_usage_error(self, capsys):
        code, _, err = run(capsys, "tree", "--tree", "[2]([1])")
        assert code == 2
        assert "error:" in err

    def test_deep_nesting_is_usage_error(self, capsys):
        deep = "[1](" * 1199 + "[1]" + ")" * 1199
        code, _, err = run(capsys, "tree", "--tree", deep)
        assert code == 2
        assert "nested deeper than" in err

    @pytest.mark.parametrize("extra", [[], ["--leaves", "--prune", "--json"]])
    def test_height_over_tree_bound_is_usage_error(self, capsys, extra):
        # --height lifts a rank-0 tree without building a level, so it is
        # checked on its own before the lift
        for height in ("201", "100000"):
            code, out, err = run(capsys, "tree", "--tree", "[0]",
                                 "--height", height, *extra)
            assert code == 2
            assert (out, err) == ("", f"error: height {height} {BOUND}\n")
        code, out, _ = run(capsys, "tree", "--tree", "[0]", "--height", "200",
                           "--leaves", "--json")
        assert code == 0
        assert json.loads(out)["height"] == 200


class TestHom:
    def test_count(self, capsys):
        code, out, _ = run(
            capsys,
            "hom",
            "--source",
            "[1]([2])",
            "--target",
            "[2]([1],[1])",
            "--filter",
            "w",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_enumerate_lists_morphisms(self, capsys):
        code, out, _ = run(
            capsys,
            "hom",
            "--source",
            "[2]",
            "--target",
            "[1]",
            "--enumerate",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == len(doc["morphisms"]) > 0

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys,
            "hom",
            "--source",
            "[1]([2])",
            "--target",
            "[2]([1],[1])",
            "--filter",
            "w",
            "--cap",
            "1",
        )
        assert code == 3
        assert "resource cap" in err

    def test_height_one_count_is_closed_form(self, capsys):
        # C(29, 15) maps [14] -> [14]; none of them is built
        code, out, _ = run(
            capsys, "hom", "--source", "[14]", "--target", "[14]", "--json"
        )
        assert code == 0
        assert json.loads(out)["count"] == 77558760
        code, _, err = run(
            capsys,
            "hom",
            "--source",
            "[30]",
            "--target",
            "[30]",
            "--enumerate",
            "--cap",
            "10",
        )
        assert code == 3
        assert "resource cap" in err

    def test_w_count_reads_rows(self, capsys):
        # the active hom-set [30] -> [30] has C(59, 29) maps; only the
        # identity is leaf-bijective, and the count lists no active map
        code, out, _ = run(
            capsys,
            "hom",
            "--source",
            "[30]",
            "--target",
            "[30]",
            "--filter",
            "w",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["count"] == 1

    def test_exit_count_reads_leaf_counts(self, capsys):
        # healthy endpoints with equal leaf counts: exit rows are the
        # bijective ones, so the C(59, 29) active maps are never listed
        code, out, _ = run(
            capsys, "hom", "--source", "[30]", "--target", "[30]",
            "--filter", "exit",
        )
        assert code == 0
        assert out == "1 morphisms (exit)\n"
        # more source leaves than target leaves: no surjective row
        code, out, _ = run(
            capsys, "hom", "--source", "[30]", "--target", "[29]",
            "--filter", "exit", "--json",
        )
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_w_count_caps_before_listing_rows(self, capsys):
        # each child pair [30] -> [15] has C(30, 15) rows, so the bound
        # C(30, 15)**2 exceeds the cap before any row is listed
        code, _, err = run(
            capsys,
            "hom",
            "--source",
            "[1]([30])",
            "--target",
            "[2]([15],[15])",
            "--filter",
            "w",
        )
        assert code == 3
        assert "resource cap" in err

    @pytest.mark.parametrize("morphism_filter", ["w", "exit"])
    def test_rank_thirty_lists_the_identity(self, capsys, morphism_filter):
        # the w and exit hom-sets [30] -> [30] are the identity, rebuilt
        # from its leaf row; the C(59, 29) active maps are never counted
        code, out, _ = run(
            capsys, "hom", "--source", "[30]", "--target", "[30]",
            "--filter", morphism_filter, "--enumerate", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["morphisms"][0]["datum"] == {
            "base": "(" + ",".join(map(str, range(31))) + ")",
            "components": [],
        }

    @pytest.mark.parametrize("morphism_filter", ["w", "exit"])
    def test_rank_thirty_fan_has_one_base(self, capsys, morphism_filter):
        # between two copies of [30]([1],...,[1]) the leaf budget admits
        # the identity base alone, found without scanning the C(59, 29)
        # active bases
        fan = "[30](" + ",".join(["[1]"] * 30) + ")"
        started = time.monotonic()
        code, out, _ = run(
            capsys, "hom", "--source", fan, "--target", fan,
            "--filter", morphism_filter,
        )
        assert code == 0
        assert out == f"1 morphisms ({morphism_filter})\n"
        code, out, _ = run(
            capsys, "hom", "--source", fan, "--target", fan,
            "--filter", morphism_filter, "--enumerate", "--json",
        )
        assert code == 0
        (datum,) = [m["datum"] for m in json.loads(out)["morphisms"]]
        assert datum["base"] == "(" + ",".join(map(str, range(31))) + ")"
        assert datum["components"] == [{"base": "(0,1)", "components": []}] * 30
        assert time.monotonic() - started < 1.0

    @pytest.mark.parametrize("rank", [7500, 10000, 9999999])
    def test_unprintable_count_is_a_cap(self, capsys, rank):
        # too many digits for Python to print: decided from the ranks
        # while the binomial is built, long before millions of digits
        started = time.monotonic()
        code, out, err = run(
            capsys, "hom", "--source", f"[{rank}]", "--target", f"[{rank}]"
        )
        assert time.monotonic() - started < 1.0
        assert code == 3
        assert not out
        assert f"more than {sys.get_int_max_str_digits()} decimal digits" in err

    @pytest.mark.parametrize(
        "source, target, count",
        [
            ("[14]", "[14]", comb(29, 15)),
            ("[6000]", "[6000]", comb(12001, 6001)),
            ("[1]", "[100000]", 5000150001),
        ],
        ids=["14-14", "6000-6000", "1-100000"],
    )
    def test_printable_counts(self, capsys, source, target, count):
        code, out, _ = run(capsys, "hom", "--source", source, "--target", target)
        assert code == 0
        assert out == f"{count} morphisms (all)\n"

    def test_rank_thirty_fan_counts(self, capsys):
        # summed over the breakpoints, not over the C(61, 31) bases: with
        # v_0 = a and v_30 = a + d the 29 inner breakpoints lie in [a, a + d]
        # and each of the d fibers [1] -> [1] has 3 maps (1 active map)
        fan = "[30](" + ",".join(["[1]"] * 30) + ")"
        every = sum((31 - d) * comb(d + 29, 29) * 3**d for d in range(31))
        started = time.monotonic()
        for morphism_filter, count in (("all", every), ("active", comb(59, 30))):
            code, out, _ = run(
                capsys, "hom", "--source", fan, "--target", fan,
                "--filter", morphism_filter,
            )
            assert code == 0
            assert out == f"{count} morphisms ({morphism_filter})\n"
        assert comb(59, 30) == 59132290782430712
        assert time.monotonic() - started < 1.0

    def test_unprintable_product_is_a_cap(self, capsys):
        # each child pair [4000] -> [4000] is printable, their products
        # are not
        started = time.monotonic()
        for morphism_filter in ("all", "active"):
            code, out, err = run(
                capsys, "hom", "--source", "[2]([4000],[4000])",
                "--target", "[2]([4000],[4000])", "--filter", morphism_filter,
            )
            assert code == 3
            assert not out
            assert f"more than {sys.get_int_max_str_digits()} decimal digits" in err
        assert time.monotonic() - started < 1.0

    def test_unprintable_row_bound_is_a_cap(self, capsys):
        # the child pair [9999999] -> [5000000] bounds its rows by a
        # binomial with millions of digits, never built; each child pair
        # [4000] -> [2000] is printable, but the bound saturates through
        # the products and sums above it, for the count and the listing
        fans = ("[2]([4000],[4000])", "[4]([2000],[2000],[2000],[2000])")
        for argv in (
            ("[1]([9999999])", "[2]([5000000],[4999999])", "--filter", "w"),
            (*fans, "--filter", "w"),
            (*fans, "--filter", "exit"),
            (*fans, "--filter", "w", "--enumerate"),
        ):
            started = time.monotonic()
            code, out, err = run(
                capsys, "hom", "--source", argv[0], "--target", argv[1], *argv[2:]
            )
            assert time.monotonic() - started < 1.0
            assert code == 3
            assert not out
            assert f"more than {sys.get_int_max_str_digits()} decimal digits" in err

    def test_height_mismatch(self, capsys):
        code, _, err = run(
            capsys, "hom", "--source", "[2]", "--target", "[1]([1])"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("height", ["201", "100000"])
    def test_height_over_tree_bound_is_usage_error(self, capsys, height):
        code, out, err = run(capsys, "hom", "--source", "[0]", "--target", "[0]",
                             "--height", height)
        assert code == 2
        assert (out, err) == ("", f"error: height {height} {BOUND}\n")


class TestConfig:
    def test_points_to_tree(self, capsys, tmp_path):
        points = write_json(tmp_path / "pts.json", [["0", "0"], ["0", "1"]])
        code, out, _ = run(
            capsys, "config", "tree", "--points", points, "--json"
        )
        assert code == 0
        assert json.loads(out)["tree"] == "[1]([2])"

    def test_empty_points_need_dimension(self, capsys, tmp_path):
        points = write_json(tmp_path / "none.json", [])
        code, _, err = run(capsys, "config", "tree", "--points", points)
        assert code == 2
        code, out, _ = run(
            capsys,
            "config",
            "tree",
            "--points",
            points,
            "--dimension",
            "2",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["tree"] == "[0]"

    def test_validate_valid_path(self, capsys, tmp_path):
        path = write_json(tmp_path / "split.json", VALID_SPLIT)
        code, out, _ = run(capsys, "config", "validate", "--path", path)
        assert code == 0
        assert "valid: True" in out

    def test_validate_collision(self, capsys, tmp_path):
        path = write_json(tmp_path / "swap.json", SWAP_PATH)
        code, out, _ = run(capsys, "config", "validate", "--path", path)
        assert code == 1
        assert "collide" in out and "1/2" in out

    def test_validate_collision_time_is_reduced(self, capsys, tmp_path):
        # the strands 1/3 -> 1/4 and 0 -> 3/4 cross at u = 2/5; over the
        # common denominator 12 that is 4/10, printed reduced
        doc = {
            "dimension": 2,
            "source": [["0", "5/6"], ["1/3", "5/6"]],
            "target": [["1/4", "5/6"], ["3/4", "5/6"]],
            "map": [1, 0],
        }
        path = write_json(tmp_path / "mixed.json", doc)
        code, out, _ = run(capsys, "config", "validate", "--path", path)
        assert code == 1
        assert out.count("strands [0, 1] collide at u=2/5") == 2, out

    def test_morphism_of_valid_path(self, capsys, tmp_path):
        path = write_json(tmp_path / "split.json", VALID_SPLIT)
        code, out, _ = run(
            capsys, "config", "morphism", "--path", path, "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["source"] == "[1]" and doc["target"] == "[2]"

    def test_morphism_of_invalid_path_fails(self, capsys, tmp_path):
        path = write_json(tmp_path / "swap.json", SWAP_PATH)
        code, _, err = run(capsys, "config", "morphism", "--path", path)
        assert code == 1
        assert "invalid exit path" in err

    @pytest.mark.parametrize("entry", [0.5, "0", True])
    def test_map_entries_must_be_integers(self, capsys, tmp_path, entry):
        doc = {"dimension": 1, "source": [["0"]], "target": [["0"]], "map": [entry]}
        path = write_json(tmp_path / "map.json", doc)
        code, _, err = run(capsys, "config", "validate", "--path", path)
        assert code == 2
        assert "map must be a list of integers" in err

    @pytest.mark.parametrize(
        "action,doc,message",
        [
            ("validate", [], "must be a JSON object"),
            ("validate", dict(VALID_SPLIT, dimension=None), "dimension must be"),
            ("validate", dict(VALID_SPLIT, dimension=1.5), "dimension must be"),
            ("validate", dict(VALID_SPLIT, source=5), "source must be"),
            ("validate", dict(VALID_SPLIT, source=[[True]]), "rationals must be"),
            ("tree", 5, "points must be"),
            ("tree", ["12"], "points must be"),
            ("tree", [[True]], "rationals must be"),
            ("tree", [[1.5]], "rationals must be"),
        ],
    )
    def test_malformed_json_is_usage_error(
        self, capsys, tmp_path, action, doc, message
    ):
        flag = "--points" if action == "tree" else "--path"
        path = write_json(tmp_path / "input.json", doc)
        code, out, err = run(capsys, "config", action, flag, path)
        assert code == 2
        assert message in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("key", ["dimension", "source", "target", "map"])
    def test_missing_key_is_named(self, capsys, tmp_path, key):
        doc = {k: v for k, v in VALID_SPLIT.items() if k != key}
        path = write_json(tmp_path / "path.json", doc)
        code, out, err = run(capsys, "config", "validate", "--path", path)
        assert code == 2
        assert err == f"error: the exit path has no {key}\n"
        assert out == ""

    def test_decimal_and_exponent_text_is_usage_error(self, capsys, tmp_path):
        points = write_json(tmp_path / "pts.json", [["1.5"], ["2e1"]])
        code, out, err = run(capsys, "config", "tree", "--points", points)
        assert code == 2
        assert "rationals must be integers or 'p/q' strings, got '1.5'" in err
        assert "Traceback" not in out + err

    def test_zero_denominator_is_usage_error(self, capsys, tmp_path):
        points = write_json(tmp_path / "pts.json", [["1/0"]])
        code, _, err = run(capsys, "config", "tree", "--points", points)
        assert code == 2
        assert "zero denominator" in err
        doc = dict(VALID_SPLIT, source=[["1/0"]])
        path = write_json(tmp_path / "path.json", doc)
        code, _, err = run(capsys, "config", "validate", "--path", path)
        assert code == 2
        assert "zero denominator" in err

    def test_coincident_point_prints_as_input(self, capsys, tmp_path):
        points = write_json(tmp_path / "pts.json", [["1"], ["1"]])
        code, out, err = run(capsys, "config", "tree", "--points", points)
        assert code == 2
        assert (out, err) == ("", "error: coincident point (1)\n")

    def test_short_point_prints_as_input(self, capsys, tmp_path):
        doc = {"dimension": 2, "source": [["0"]], "target": [["0"]], "map": [0]}
        path = write_json(tmp_path / "path.json", doc)
        code, out, err = run(capsys, "config", "validate", "--path", path)
        assert code == 2
        assert (out, err) == ("", "error: point (0) does not have 2 coordinates\n")

    def test_too_many_dimensions_is_usage_error(self, capsys, tmp_path):
        points = [["0"] * 3000, ["1"] + ["0"] * 2999, ["2"] + ["0"] * 2999]
        path = write_json(tmp_path / "pts.json", points)
        code, out, err = run(capsys, "config", "tree", "--points", path)
        assert code == 2
        assert (out, err) == ("", f"error: dimension 3000 {BOUND}\n")

    @pytest.mark.parametrize(
        "action,flag", [("tree", "--points"), ("validate", "--path")]
    )
    def test_deeply_nested_json_is_usage_error(
        self, capsys, tmp_path, action, flag
    ):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "config", action, flag, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path} nests JSON deeper than the ")
        assert err.endswith("-frame recursion limit\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "config", "validate", "--path", str(tmp_path / "no.json")
        )
        assert code == 2


class TestHomology:
    def test_plane_pair(self, capsys, tmp_path):
        out_file = tmp_path / "h.json"
        code, out, _ = run(
            capsys,
            "homology",
            "--category",
            "nord",
            "--n",
            "2",
            "--k",
            "2",
            "--json",
            "--out",
            str(out_file),
        )
        assert code == 0
        doc = json.loads(out)
        betti = [entry["betti"] for entry in doc["degrees"]]
        assert betti == [1, 1, 0, 0]
        assert all(entry["torsion"] == [] for entry in doc["degrees"])
        saved = json.loads(out_file.read_text(encoding="utf-8"))
        assert saved["degrees"] == doc["degrees"]

    def test_bad_parameters(self, capsys):
        code, _, err = run(
            capsys, "homology", "--category", "nord", "--n", "0", "--k", "2"
        )
        assert code == 2

    def test_negative_degree_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "homology",
            "--category",
            "w_hlt",
            "--n",
            "2",
            "--k",
            "2",
            "--max-degree",
            "-1",
        )
        assert code == 2
        assert "max_degree" in err
        code, _, err = run(
            capsys, "verify", "--suite", "homology", "--param", "max_degree=-1"
        )
        assert code == 2
        assert "max_degree" in err

    @pytest.mark.parametrize("n,k,degree", [("2000", "1", "3"), ("900", "2", "0")])
    def test_height_over_tree_bound_is_usage_error(self, capsys, n, k, degree):
        code, out, err = run(
            capsys, "homology", "--category", "w_hlt", "--n", n, "--k", k,
            "--max-degree", degree,
        )
        assert code == 2
        assert (out, err) == ("", f"error: height {n} {BOUND}\n")

    def test_height_at_tree_bound_runs(self, capsys):
        code, out, _ = run(
            capsys, "homology", "--category", "w_hlt", "--n", "200", "--k", "1",
            "--max-degree", "0",
        )
        assert code == 0
        assert "H = (Z)" in out

    @pytest.mark.parametrize("k,what", [("9", "objects"), ("6", "arrows")])
    def test_category_over_cell_cap(self, capsys, k, what):
        # nord(2,9): 256 trees x 9! objects; nord(2,6): 6! x 6,992 arrows
        code, _, err = run(
            capsys, "homology", "--category", "nord", "--n", "2", "--k", k
        )
        assert code == 3
        assert "resource cap" in err and what in err

    @pytest.mark.parametrize("kind,n,k", [
        ("w_hlt", 2, 20), ("w_hlt", 2, 22), ("w_hlt", 2, 24),
        ("w_hlt", 2, 1200), ("w_hlt", 3, 10_000_000), ("nord", 1, 1_000_000),
    ])
    def test_objects_are_counted_before_listing(self, capsys, kind, n, k):
        # n^(k-1) trees (x k! in nord) pass the cell cap in closed form,
        # before any tree or k! is built; the message counts no further
        started = time.monotonic()
        code, out, err = run(
            capsys, "homology", "--category", kind, "--n", str(n),
            "--k", str(k), "--max-degree", "0",
        )
        assert time.monotonic() - started < 5.0
        assert (code, out) == (3, "")
        assert "resource cap" in err and "objects" in err
        numbers = re.findall(r"\d+", err.replace(f"{kind}({n},{k})", ""))
        assert max(map(len, numbers)) == len(str(homology.DEFAULT_CHAIN_CAP))

    @pytest.mark.parametrize("kind,n,k,trees", [
        ("w_hlt", 200, 3, 40_000), ("w_hlt", 2, 13, 4096), ("nord", 57, 3, 3249),
    ])
    def test_tree_pairs_are_counted_before_the_walk(self, capsys, kind, n, k,
                                                    trees):
        # within the object cap, but trees^2 hom-sets to list pass
        # COMPOSITION_CAP: exit 3 before the first is walked
        started = time.monotonic()
        code, out, err = run(
            capsys, "homology", "--category", kind, "--n", str(n),
            "--k", str(k), "--max-degree", "0",
        )
        assert time.monotonic() - started < 1.0
        assert (code, out) == (3, "")
        assert f"{trees**2} {kind}({n},{k}) tree pairs" in err

    @pytest.mark.parametrize("k", [1_000_000, 3_000_000])
    def test_row_entries_are_counted_before_listing(self, capsys, k):
        # one object and one arrow, but its row has k entries: k x objects
        # passes the cell cap before the identity row is built
        started = time.monotonic()
        code, out, err = run(
            capsys, "homology", "--category", "w_hlt", "--n", "1",
            "--k", str(k), "--max-degree", "0",
        )
        assert time.monotonic() - started < 1.0
        assert (code, out) == (3, "")
        assert f"{k} w_hlt(1,{k}) row entries" in err

    def test_height_is_checked_before_objects_are_counted(self, capsys):
        code, out, err = run(
            capsys, "homology", "--category", "w_hlt", "--n", "2000",
            "--k", "300", "--max-degree", "0",
        )
        assert code == 2
        assert (out, err) == ("", f"error: height 2000 {BOUND}\n")

    def test_degrees_are_counted_before_listing(self, capsys, monkeypatch):
        # every degree lists a basis and a boundary, empty or not: degrees
        # 0..10^6 + 1 pass the cell cap before the first is listed
        monkeypatch.setattr(homology, "IntegerMatrix", None)
        started = time.monotonic()
        code, out, err = run(capsys, "homology", "--category", "w_hlt", "--n", "2",
                             "--k", "3", "--max-degree", "1000000")
        assert time.monotonic() - started < 1.0
        assert code == 3
        assert (out, err) == ("", "resource cap: 1000002 nerve degrees "
                                  "0..1000001 exceed the cap of 500000\n")


class TestVerify:
    def test_small_suite_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "delta-laws",
            "--param",
            "max_rank=2",
            "--param",
            "compose_rank=1",
            "--json",
            "--out",
            str(out_file),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["params"] == {"max_rank": 2, "compose_rank": 1}
        assert out_file.read_text(encoding="utf-8").strip() == out.strip()

    def test_human_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "functoriality",
            "--param",
            "pairs=2",
            "--seed",
            "5",
        )
        assert code == 0
        assert "suite functoriality: 2/2 passed" in out

    def test_bad_param_value(self, capsys):
        code, _, err = run(
            capsys,
            "verify",
            "--suite",
            "functoriality",
            "--param",
            "pairs=abc",
        )
        assert code == 2

    def test_single_dimension_param(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "functoriality",
            "--param",
            "pairs=2",
            "--param",
            "dims=2",
        )
        assert code == 0
        assert "suite functoriality: 2/2 passed" in out
        code, _, err = run(
            capsys, "verify", "--suite", "functoriality", "--param", "dims=0"
        )
        assert code == 2
        assert "dimension" in err

    @pytest.mark.parametrize(
        "suite, params, reason",
        [
            ("delta-laws", ["bogus=1"], "bogus"),
            ("functoriality", ["max_K=9"], "max_K"),
            ("homology", ["kind=w_hlt", "n=3", "k=4"], "no w_hlt fixture"),
            ("homology", ["kind=w_hlt"], "needs both n and k"),
            ("homology", ["kind=nord", "k=3"], "needs both n and k"),
            ("homology", ["n=2"], "reads n only with kind"),
            ("homology", ["kind=bogus", "n=2", "k=2"], "unknown category kind"),
            ("functoriality", ["pairs=2.5"], "needs pairs as an integer, got '2.5'"),
            ("functoriality", ["dims=1,,2"],
             "needs dims as comma-separated integers, got '1,,2'"),
            ("pruning", ["probe_leaf_bound=1e3"],
             "needs probe_leaf_bound as an integer, got '1e3'"),
            ("roundtrip", ["leaf_bound=x"], "needs leaf_bound as an integer, got 'x'"),
            ("homology", ["kind=nord", "n=2.0", "k=2"],
             "needs n as an integer, got '2.0'"),
            ("delta-laws", ["max_rank=2.5"], "needs max_rank as an integer, got '2.5'"),
            ("functoriality", ["dims=1,-2", "pairs=3"],
             "dimension -2 in dims is outside 1..200"),
            ("functoriality", ["dims=0"], "dimension 0 in dims is outside 1..200"),
            ("functoriality", ["dims=1,0"], "dimension 0 in dims is outside 1..200"),
            ("functoriality", ["dims=201"],
             "dimension 201 in dims is outside 1..200"),
        ],
        ids=[
            "delta-laws-bogus=1",
            "functoriality-max_K=9",
            "homology-w_hlt-unpinned",
            "homology-kind-alone",
            "homology-no-n",
            "homology-n-alone",
            "homology-unknown-kind",
            "functoriality-pairs=2.5",
            "functoriality-dims=1,,2",
            "pruning-probe_leaf_bound=1e3",
            "roundtrip-leaf_bound=x",
            "homology-n=2.0",
            "delta-laws-max_rank=2.5",
            "functoriality-dims=1,-2",
            "functoriality-dims=0",
            "functoriality-dims=1,0",
            "functoriality-dims=201",
        ],
    )
    def test_unknown_param_is_usage_error(
        self, capsys, monkeypatch, suite, params, reason
    ):
        # rejected before any case runs
        for runner in ("_run_functoriality", "_run_pruning", "_run_roundtrip",
                       "_run_homology", "_run_delta_laws"):
            monkeypatch.setattr(harness, runner, None)
        argv = [arg for param in params for arg in ("--param", param)]
        code, out, err = run(capsys, "verify", "--suite", suite, *argv)
        assert code == 2
        assert out == ""
        assert reason in err

    @pytest.mark.parametrize(
        "param", ["pairs=2", "functoriality=3", "delta-laws=1"]
    )
    def test_all_takes_no_param(self, capsys, monkeypatch, param):
        # rejected before any sub-suite runs, the last one included
        for runner in ("_run_functoriality", "_run_pruning", "_run_roundtrip",
                       "_run_homology", "_run_delta_laws"):
            monkeypatch.setattr(harness, runner, None)
        code, out, err = run(capsys, "verify", "--suite", "all", "--param", param)
        assert code == 2
        assert out == ""
        assert "'all' takes no --param" in err

    def test_negative_pairs_is_usage_error(self, capsys, monkeypatch):
        # any negative count, for every suite, before any case runs
        for runner in ("_run_functoriality", "_run_pruning", "_run_roundtrip",
                       "_run_homology", "_run_delta_laws"):
            monkeypatch.setattr(harness, runner, None)
        for suite, param in [
            ("functoriality", "pairs=-3"),
            ("roundtrip", "leaf_bound=-2"),
            ("pruning", "probe_leaf_bound=-1"),
            ("delta-laws", "max_rank=-1"),
            ("homology", "matrices=-5"),
        ]:
            code, out, err = run(capsys, "verify", "--suite", suite, "--param", param)
            assert code == 2
            assert out == "" and param.split("=")[0] in err
        # and a negative or non-integer --cap is rejected by the parser,
        # which names the value
        for value in ("-1", "abc"):
            with pytest.raises(SystemExit) as exc:
                main(["hom", "--source", "[1]", "--target", "[1]", "--cap", value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"need a nonnegative integer, got {value!r}" in err

    @pytest.mark.parametrize(
        "suite,params,message",
        [
            ("functoriality", ["dims=250", "pairs=3"],
             "dimension 250 in dims is outside 1..200"),
            ("roundtrip", ["max_height=1200", "leaf_bound=1", "extra=0",
                           "deep_leaf_bound=0"], f"max_height 1200 {BOUND}"),
            ("pruning", ["max_height=1200", "leaf_bound=1", "extra=0",
                         "deep_leaf_bound=0", "probe_leaf_bound=0"],
             f"max_height 1200 {BOUND}"),
            ("homology", ["kind=nord", "n=1500", "k=1", "max_degree=0"],
             f"height 1500 {BOUND}"),
        ],
    )
    def test_height_over_tree_bound_is_usage_error(
        self, capsys, suite, params, message
    ):
        argv = [arg for p in params for arg in ("--param", p)]
        code, out, err = run(capsys, "verify", "--suite", suite, *argv)
        assert code == 2
        assert (out, err) == ("", f"error: {message}\n")

    def test_malformed_param(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "functoriality", "--param", "pairs"
        )
        assert code == 2

    @pytest.mark.parametrize("suite", ["roundtrip", "pruning"])
    def test_tree_family_is_capped_before_any_case(self, capsys, monkeypatch, suite):
        # 2^29 healthy height-2 trees with 30 leaves alone pass the cap;
        # bounded from the params, so no tree is listed and no case runs
        monkeypatch.setattr(harness, "_run_" + suite, None)
        started = time.monotonic()
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--param", "leaf_bound=30", "--param", "max_height=2")
        assert time.monotonic() - started < 1.0
        assert code == 3
        assert out == ""
        assert err == (f"resource cap: more than 1000000 {suite} trees by the "
                       "closed-form bound exceed the cap of 1000000\n")

    def test_pruning_probe_grid_is_capped_before_any_case(self, capsys,
                                                          monkeypatch):
        # 3^8 = 6,561 healthy height-3 trees with 9 leaves: 43 M ordered
        # probe pairs, counted with the family before the grid is walked
        monkeypatch.setattr(harness, "_run_pruning", None)
        started = time.monotonic()
        code, out, err = run(capsys, "verify", "--suite", "pruning",
                             "--param", "probe_leaf_bound=9")
        assert time.monotonic() - started < 1.0
        assert code == 3
        assert out == ""
        assert err == ("resource cap: more than 1000000 pruning trees by the "
                       "closed-form bound exceed the cap of 1000000\n")

    @pytest.mark.parametrize("param,what,cap", [
        ("max_rank=10", "maps", 1_000_000),
        ("max_rank=1000000000", "maps", 1_000_000),
        ("compose_rank=6", "composed pairs", 10_000_000),
        ("compose_rank=1000000000", "composed pairs", 10_000_000),
    ])
    def test_delta_laws_are_capped_before_any_case(
        self, capsys, monkeypatch, param, what, cap
    ):
        # 1,352,066 maps at max_rank 10 and 14,157,241 composed pairs at
        # compose_rank 6, counted in closed form before any map is listed;
        # past the shape counts, (rank + 1)^2 and (rank + 1)^3, no binomial
        # is built
        monkeypatch.setattr(harness, "_run_delta_laws", None)
        started = time.monotonic()
        code, out, err = run(capsys, "verify", "--suite", "delta-laws",
                             "--param", param)
        assert time.monotonic() - started < 1.0
        assert code == 3
        assert (out, err) == ("", f"resource cap: more than {cap} delta-laws "
                                  f"{what} exceed the cap of {cap}\n")

    @pytest.mark.parametrize("params", [
        {}, {"max_rank": 0, "compose_rank": 5}, {"max_rank": 1, "compose_rank": 0},
        {"max_rank": 2, "compose_rank": 1}, {"max_rank": 3, "compose_rank": 2},
        {"max_rank": 6, "compose_rank": 3}, {"max_rank": 7, "compose_rank": 6},
    ])
    def test_delta_laws_counts_are_exact(self, monkeypatch, params):
        # the closed forms equal the sums Σ C(p+q+1, q) of maps and
        # Σ |hom(p,q)|·|hom(q,r)| of pairs (defaults max_rank 5 and
        # compose_rank 4): each passes at its own value as the cap and
        # raises one below it
        def hom(p, q):
            return comb(p + q + 1, q)

        ranks = range(params.get("max_rank", 5) + 1)
        maps = sum(hom(p, q) for p in ranks for q in ranks)
        ranks = range(params.get("compose_rank", 4) + 1)
        pairs = sum(hom(p, q) * hom(q, r) for p in ranks for q in ranks for r in ranks)
        if not params:
            assert (maps, pairs) == (1_709, 73_085)
        elif params["compose_rank"] == 5:
            assert pairs == 1_008_762
        monkeypatch.setattr(harness, "DEFAULT_HOM_CAP", maps)
        monkeypatch.setattr(harness, "COMPOSITION_CAP", pairs)
        harness._check_params("delta-laws", params)
        for name, value in (("DEFAULT_HOM_CAP", maps), ("COMPOSITION_CAP", pairs)):
            monkeypatch.setattr(harness, name, value - 1)
            with pytest.raises(ResourceCapError):
                harness._check_params("delta-laws", params)
            monkeypatch.setattr(harness, name, value)

    @pytest.mark.parametrize("params,degrees,cap", [
        (["max_degree=100000"], 18 * 100_002, 500_000),
        (["max_degree=499999", "kind=nord", "n=2", "k=2"], 500_001, 500_000),
        ([], 18 * 5, 89),
    ])
    def test_homology_degrees_are_capped_before_any_case(
        self, capsys, monkeypatch, params, degrees, cap
    ):
        # max_degree + 2 degrees for each of the suite's nerves (18 without
        # kind; max_degree 3 by default), counted against the cell cap
        # before any category is built
        monkeypatch.setattr(harness, "_run_homology", None)
        monkeypatch.setattr(harness, "DEFAULT_CHAIN_CAP", cap)
        argv = [arg for p in params for arg in ("--param", p)]
        started = time.monotonic()
        code, out, err = run(capsys, "verify", "--suite", "homology", *argv)
        assert time.monotonic() - started < 1.0
        assert code == 3
        assert (out, err) == ("", f"resource cap: {degrees} nerve degrees in "
                                  f"suite 'homology' exceed the cap of {cap}\n")

    def test_homology_suite_nerve_count(self, capsys, monkeypatch):
        # the count the degree cap multiplies is the suite's nerves
        built = []
        nerve = harness.nerve_chain_complex
        monkeypatch.setattr(harness, "nerve_chain_complex",
                            lambda cat, top: built.append(top) or nerve(cat, top))
        code, _, _ = run(capsys, "verify", "--suite", "homology",
                         "--param", "max_degree=1", "--param", "matrices=0")
        assert code == 0
        assert built == [2] * harness._HOMOLOGY_NERVES == [2] * 18

    def test_one_tree_shapes_are_counted_at_once(self, capsys, monkeypatch):
        # 10^7 + 1 height-1 shapes of one tree each: their count alone
        # passes the cap, so no shape is summed
        monkeypatch.setattr(harness, "_run_roundtrip", None)
        started = time.monotonic()
        code, out, err = run(capsys, "verify", "--suite", "roundtrip",
                             "--param", "max_height=1",
                             "--param", "leaf_bound=10000000",
                             "--param", "extra=0", "--param", "deep_extra=0")
        assert time.monotonic() - started < 0.2
        assert code == 3
        assert out == ""
        assert err == ("resource cap: more than 1000000 roundtrip trees by the "
                       "closed-form bound exceed the cap of 1000000\n")


class TestFixtures:
    def test_prints_tables(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        assert "# Homology fixtures" in out

    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "tables.txt"
        code, out, _ = run(capsys, "fixtures", "--out", str(out_file))
        assert code == 0
        assert out == ""
        assert "RP^2" in out_file.read_text(encoding="utf-8")


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fixtures", "--json"),
            ("verify", "--suite", "delta-laws", "--cap", "1"),
            ("verify", "--suite", "delta-laws", "--max-degree", "2"),
            ("tree", "--tree", "[1]", "--max-degree", "9"),
            ("tree", "--tree", "[1]", "--seed", "1"),
            ("hom", "--source", "[1]", "--target", "[1]", "--seed", "1"),
            ("homology", "--category", "w_hlt", "--n", "2", "--k", "2",
             "--seed", "1"),
            ("config", "validate", "--path", "p.json", "--cap", "1"),
            ("homology", "--category", "w_hlt", "--n", "2", "--k", "2",
             "--cap", "1"),
        ],
    )
    def test_unread_flags_are_usage_errors(self, capsys, argv):
        # each subcommand takes only the flags its handler reads
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_fuzz_tree_and_hom(capsys):
    # tree and hom (counting or listing) on arbitrary short texts keep the
    # exit-code contract
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # arbitrary texts are almost never trees, so mix in well-formed ones
    tree = st.recursive(
        st.integers(0, 9).map(lambda r: f"[{r}]"),
        lambda kids: st.lists(kids, min_size=1, max_size=3).map(
            lambda cs: f"[{len(cs)}](" + ",".join(cs) + ")"
        ),
        max_leaves=4,
    )
    text = st.one_of(
        st.text(alphabet="[]()0123456789, ", max_size=24), tree
    ).filter(lambda t: len(t) <= 24)
    deadline = time.monotonic() + 5.0

    @hypothesis.settings(
        derandomize=True, deadline=None, max_examples=300, database=None
    )
    @hypothesis.given(
        st.one_of(
            st.tuples(st.just("tree"), st.just("--tree"), text),
            st.builds(
                lambda x, y, f, c, e: ("hom", "--source", x, "--target", y,
                                       "--filter", f, "--cap", str(c))
                + ("--enumerate",) * e,
                text, text, st.sampled_from(_FILTERS), st.integers(-3, 50),
                st.booleans(),
            ),
        )
    )
    def check(argv):
        if time.monotonic() > deadline:
            return
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the input
            code = exc.code
        out = capsys.readouterr().out
        assert code in (0, 2, 3), argv
        if code == 0:
            assert out, argv

    check()
