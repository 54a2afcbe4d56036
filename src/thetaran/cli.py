"""The ``theta-ran`` command line.

Subcommands mirror the library layers: ``tree`` parses and prunes level
trees, ``hom`` counts or lists morphisms under the classification
filters, ``config`` runs the configuration-to-tree functor and the
exit-path validator, ``homology`` computes classifying-space homology of
the tree categories, ``verify`` drives the seeded suites, and
``fixtures`` prints the oracle tables.

Exit codes: 0 success, 1 a verification or validation failure (with a
counterexample on stdout), 2 usage or input errors, 3 a resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .config import (
    InvalidExitPathError,
    SamplingBudgetError,
    configuration_from_json,
    exit_path_from_json,
    load_json,
    morphism_of_exit_path,
    tree_of_configuration,
)
from .harness import (
    SUITE_NAMES,
    canonical_report,
    emit_fixture_tables,
    run_suite,
)
from .homology import _KINDS, build_category, homology_of_category
from .theta import (
    _FILTERS,
    DEFAULT_HOM_CAP,
    ResourceCapError,
    count_filtered_hom,
    enumerate_theta_hom,
    format_tree,
    leaves,
    morphism_to_json,
    parse_tree,
    prune,
)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the flags its handler reads
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="machine output")
    parser = argparse.ArgumentParser(
        prog="theta-ran",
        description="planar level trees, exit paths, and nerve homology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tree_p = sub.add_parser("tree", parents=[json_flag], help="inspect a tree")
    tree_p.add_argument("--tree", required=True, help="tree text, e.g. [2]([1],[1])")
    tree_p.add_argument("--height", type=int, help="lift rank-0 trees")
    tree_p.add_argument("--prune", action="store_true", help="show the pruning")
    tree_p.add_argument("--leaves", action="store_true", help="show layer sizes")

    hom_p = sub.add_parser("hom", parents=[json_flag], help="hom-sets between trees")
    hom_p.add_argument("--source", required=True)
    hom_p.add_argument("--target", required=True)
    hom_p.add_argument("--height", type=int)
    hom_p.add_argument("--filter", choices=_FILTERS, default="all")
    hom_p.add_argument(
        "--enumerate", action="store_true", help="list morphisms, not just count"
    )
    hom_p.add_argument(
        "--cap", type=_nonnegative_int, default=DEFAULT_HOM_CAP,
        help="enumeration size cap",
    )

    config_p = sub.add_parser("config", help="configurations and exit paths")
    config_sub = config_p.add_subparsers(dest="action", required=True)
    ct = config_sub.add_parser("tree", parents=[json_flag], help="points to tree")
    ct.add_argument("--points", required=True, help="JSON point file")
    ct.add_argument("--dimension", type=int, help="needed for empty files")
    cm = config_sub.add_parser(
        "morphism", parents=[json_flag], help="exit path to tree morphism"
    )
    cm.add_argument("--path", required=True, help="JSON exit-path file")
    cv = config_sub.add_parser(
        "validate", parents=[json_flag], help="check an exit path"
    )
    cv.add_argument("--path", required=True, help="JSON exit-path file")

    h_p = sub.add_parser("homology", parents=[json_flag], help="category homology")
    h_p.add_argument("--category", choices=_KINDS, required=True)
    h_p.add_argument("--n", type=int, required=True, help="tree height")
    h_p.add_argument("--k", type=int, required=True, help="leaf count")
    h_p.add_argument(
        "--max-degree", type=int, default=3, dest="max_degree",
        help="top homology degree",
    )
    h_p.add_argument("--out", help="write the JSON report here")

    v_p = sub.add_parser("verify", parents=[json_flag], help="run a suite")
    v_p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    v_p.add_argument("--seed", type=int, default=0, help="suite PRNG seed")
    v_p.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="suite parameter override, repeatable",
    )
    v_p.add_argument("--out", help="write the canonical report here")

    f_p = sub.add_parser("fixtures", help="oracle tables")
    f_p.add_argument("--out", help="write the tables here")
    return parser


def _emit(args, doc: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


def _handle_tree(args) -> int:
    tree = parse_tree(args.tree, args.height)
    doc = {
        "tree": format_tree(tree),
        "height": tree.height,
        "rank": tree.rank,
        "leaf_count": tree.leaf_count,
        "vertex_count": tree.vertex_count,
        "healthy": tree.is_healthy,
    }
    human = [
        f"tree: {doc['tree']}",
        f"height {tree.height}, rank {tree.rank}, "
        f"{tree.leaf_count} leaves, {tree.vertex_count} vertices",
        f"healthy: {tree.is_healthy}",
    ]
    if args.leaves:
        diagram = leaves(tree)
        doc["layer_sizes"] = list(diagram.sizes)
        doc["parent_maps"] = [list(row) for row in diagram.parent_maps]
        human.append(f"layer sizes (top down): {list(diagram.sizes)}")
        for row in diagram.parent_maps:
            human.append(f"  parents: {list(row)}")
    if args.prune:
        result = prune(tree)
        doc["pruned"] = format_tree(result.pruned)
        doc["unit"] = morphism_to_json(result.morphism)
        human.append(f"pruned: {doc['pruned']}")
        human.append(f"unit base: {result.morphism.base}")
    _emit(args, doc, human)
    return 0


def _parse_pair(args) -> tuple:
    source = parse_tree(args.source, args.height)
    target = parse_tree(args.target, args.height)
    if source.height != target.height:
        raise ValueError(
            f"heights {source.height} and {target.height} differ; "
            "pass --height to lift rank-0 trees"
        )
    return source, target


def _handle_hom(args) -> int:
    source, target = _parse_pair(args)
    if args.enumerate:
        morphisms = enumerate_theta_hom(source, target, args.filter, args.cap)
        doc = {
            "source": format_tree(source),
            "target": format_tree(target),
            "filter": args.filter,
            "count": len(morphisms),
            "morphisms": [morphism_to_json(m) for m in morphisms],
        }
        human = [f"{len(morphisms)} morphisms ({args.filter})"]
        human.extend(
            json.dumps(morphism_to_json(m)["datum"], separators=(",", ":"))
            for m in morphisms
        )
    else:
        count = count_filtered_hom(source, target, args.filter, args.cap)
        doc = {
            "source": format_tree(source),
            "target": format_tree(target),
            "filter": args.filter,
            "count": count,
        }
        human = [f"{count} morphisms ({args.filter})"]
    _emit(args, doc, human)
    return 0


def _handle_config(args) -> int:
    if args.action == "tree":
        cfg = configuration_from_json(load_json(args.points), args.dimension)
        tree = tree_of_configuration(cfg)
        doc = {
            "points": cfg.size,
            "dimension": cfg.dimension,
            "tree": format_tree(tree),
            "height": tree.height,
        }
        _emit(args, doc, [f"tree: {doc['tree']} (height {tree.height})"])
        return 0
    path = exit_path_from_json(load_json(args.path))
    if args.action == "morphism":
        doc = morphism_to_json(morphism_of_exit_path(path))
        _emit(args, doc, [f"morphism: {doc['source']} -> {doc['target']}",
                          json.dumps(doc["datum"], separators=(",", ":"))])
        return 0
    verdict = path.verdict
    levels = [
        {
            "level": check.level,
            "separation_ok": check.separation_ok,
            "compatibility_ok": check.compatibility_ok,
            "collision": (
                None
                if check.collision is None
                else {
                    "targets": [check.collision[0], check.collision[1]],
                    "time": str(check.collision[2]),
                }
            ),
            "incompatible": (
                None if check.incompatible is None else list(check.incompatible)
            ),
        }
        for check in verdict.levels
    ]
    doc = {"valid": verdict.valid, "levels": levels}
    human = [f"valid: {verdict.valid}"]
    for entry in levels:
        human.append(
            f"level {entry['level']}: separation "
            f"{'ok' if entry['separation_ok'] else 'FAIL'}, "
            f"compatibility {'ok' if entry['compatibility_ok'] else 'FAIL'}"
        )
        if entry["collision"]:
            human.append(
                f"  strands {entry['collision']['targets']} collide "
                f"at u={entry['collision']['time']}"
            )
        if entry["incompatible"]:
            human.append(
                f"  targets {entry['incompatible']} end together "
                "but start apart"
            )
    _emit(args, doc, human)
    return 0 if verdict.valid else 1


def _handle_homology(args) -> int:
    started = time.perf_counter()
    cat = build_category(args.category, args.n, args.k)
    result = homology_of_category(cat, args.max_degree)
    wall_ms = (time.perf_counter() - started) * 1000.0
    doc = {
        "category": args.category,
        "n": args.n,
        "k": args.k,
        "max_degree": args.max_degree,
        "objects": len(cat.objects),
        "morphisms": len(cat.morphisms),
        "max_hom_size": cat.max_hom_size,
        "degrees": [
            {
                "degree": d,
                "betti": result.betti[d],
                "torsion": list(result.torsion[d]),
            }
            for d in range(args.max_degree + 1)
        ],
        "chain_sizes": list(result.chain_sizes),
        "wall_ms": wall_ms,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    human = [
        f"{args.category} n={args.n} k={args.k}: "
        f"{len(cat.objects)} objects, {len(cat.morphisms)} morphisms "
        f"(largest hom-set {cat.max_hom_size})",
        f"H = {result}",
        f"chains per dimension: {list(result.chain_sizes)}",
        f"wall: {wall_ms:.1f} ms",
    ]
    _emit(args, doc, human)
    return 0


def _parse_param(text: str):
    if "=" not in text:
        raise ValueError(f"--param needs KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        return key, int(raw)
    except ValueError:
        return key, raw


def _handle_verify(args) -> int:
    params = dict(_parse_param(p) for p in args.param)
    report = run_suite(args.suite, params, args.seed)
    serialized = canonical_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(serialized + "\n")
    if args.json:
        print(serialized)
    else:
        print(
            f"suite {report.suite}: {report.passes}/{report.cases} passed "
            f"({report.wall_ms:.0f} ms)"
        )
        if report.first_counterexample:
            print(f"first counterexample: {report.first_counterexample}")
    return 0 if report.passed else 1


def _handle_fixtures(args) -> int:
    doc = emit_fixture_tables()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(doc)
            if not doc.endswith("\n"):
                handle.write("\n")
    else:
        print(doc)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "tree": _handle_tree,
        "hom": _handle_hom,
        "config": _handle_config,
        "homology": _handle_homology,
        "verify": _handle_verify,
        "fixtures": _handle_fixtures,
    }[args.command]
    try:
        return handler(args)
    except (ResourceCapError, SamplingBudgetError) as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return 3
    except InvalidExitPathError as err:
        print(f"invalid exit path: {err}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
