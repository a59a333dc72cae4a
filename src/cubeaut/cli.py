"""Command-line interface.

Commands mirror the library: build and inspect groups, compute cubing
ratios and classifications, solve the avoiding-set problem, and run the
verification suites. Every command can emit JSON (machine readable,
stable key order) and exits nonzero exactly when a suite reports a
failure. ``main`` records ``--seed`` in every report, once, after the
command returns; only ``verify properties`` draws from it. Reports are
deterministic for a fixed seed apart from the elapsed_ms fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .automorphisms import GroupMap, _indices, identity_map, power_map
from .catalog import build_named_group
from .cubing import (
    classify_cubing_structure,
    cube_set,
    ratio_json,
)
from .errors import CubeautError, FileFormatError
from .groups import (
    MAX_ABELIAN_BUDGET,
    FiniteGroup,
    group_to_json,
    load_group_file,
    prime_divisors,
    read_json_file,
)
from .sfs import (
    DEFAULT_EQUATIONS,
    LinearEquation,
    SfsInstance,
    enumerate_extremal,
    max_free_subset,
    reproduce_table,
    verify_tau_bound,
)
from . import verifier


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        _check_options(args)
        report, ok = args.handler(args)
        report["seed"] = args.seed
        _emit(report, args)
        sys.stdout.flush()
    except CubeautError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; send the unwritten rest to devnull so
        # the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeaut",
        description="Finite groups, cubing automorphisms, and avoiding sets.")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for scans")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=None, help="search node budget")
    parser.add_argument("--cache-dir", default=None,
                        help="read and store Aut(G) in this directory (default: no cache)")
    top = parser.add_subparsers(dest="command")

    group = top.add_parser("group", help="build, load and inspect groups").add_subparsers()
    build = group.add_parser("build", help="construct a built-in group")
    build.add_argument("name", help="builder word or group name (cyclic, psl2, a5, ...)")
    build.add_argument("params", nargs="*", type=int)
    build.set_defaults(handler=_cmd_group_build)
    load = group.add_parser("load", help="validate and summarize a group file")
    load.add_argument("file")
    load.set_defaults(handler=_cmd_group_load)
    info = group.add_parser("info", help="structural summary of a group")
    info.add_argument("target", help="catalog name or file path")
    info.set_defaults(handler=_cmd_group_info)
    export = group.add_parser("export", help="write a group file")
    export.add_argument("target")
    export.add_argument("out")
    export.set_defaults(handler=_cmd_group_export)

    cube = top.add_parser("cube", help="cube sets, ratios, classification").add_subparsers()
    ratio = cube.add_parser("ratio", help="ratio for one automorphism")
    ratio.add_argument("target")
    ratio.add_argument("--aut-file", default=None,
                       help="JSON image array for the automorphism")
    ratio.add_argument("--power", type=int, default=None,
                       help="use the power map x -> x^N as the automorphism")
    ratio.add_argument("--exponent", type=int, default=3,
                       help="exponent defining the cube set (default 3)")
    ratio.set_defaults(handler=_cmd_cube_ratio)
    cmax = cube.add_parser("max", help="maximum ratio over all automorphisms")
    cmax.add_argument("target")
    cmax.add_argument("--exponent", type=int, default=3)
    cmax.set_defaults(handler=_cmd_cube_max)
    classify = cube.add_parser("classify", help="structural verdict for ratio > 1/2")
    classify.add_argument("target")
    classify.set_defaults(handler=_cmd_cube_classify)

    sfs = top.add_parser("sfs", help="avoiding subsets of Z_n").add_subparsers()
    st = sfs.add_parser("t", help="maximum avoiding-set size T(n)")
    st.add_argument("n", type=int)
    st.add_argument("--equation", action="append", default=None,
                    help="coefficient list like 1,1,-2 (repeatable)")
    st.set_defaults(handler=_cmd_sfs_t)
    srange = sfs.add_parser("tau-range", help="tau over a range, each below a bound")
    srange.add_argument("lo", type=int)
    srange.add_argument("hi", type=int)
    srange.add_argument("--bound", default="4/17")
    srange.set_defaults(handler=_cmd_sfs_range)
    stable = sfs.add_parser("table", help="recompute the reference T(n) table")
    stable.set_defaults(handler=_cmd_sfs_table)
    sext = sfs.add_parser("extremal", help="avoiding sets of a given size containing 0")
    sext.add_argument("n", type=int)
    sext.add_argument("size", type=int)
    sext.add_argument("--raw", action="store_true",
                      help="text output: also list the raw 0-containing sets")
    sext.add_argument("--equation", action="append", default=None)
    sext.set_defaults(handler=_cmd_sfs_extremal)

    verify = top.add_parser("verify", help="verification suites").add_subparsers()
    props = verify.add_parser("properties", help="pattern and coset checks over the catalog")
    props.add_argument("--order-cap", type=int, default=24,
                       help="exhaustive scope: all automorphisms up to this order")
    props.add_argument("--samples", type=int, default=500)
    props.add_argument("--sample-max", type=int, default=360)
    props.set_defaults(handler=_cmd_verify_properties)
    classification = verify.add_parser("classification",
                                       help="structural verdicts vs brute force")
    classification.add_argument("--order-cap", type=int, default=64)
    classification.set_defaults(handler=_cmd_verify_classification)
    solv = verify.add_parser("solvable-boundary", help="the 4/15 boundary groups")
    solv.add_argument("--order-cap", type=int, default=64)
    solv.set_defaults(handler=_cmd_verify_boundary)
    indices = verify.add_parser("abelian-index", help="maximum abelian subgroup indices")
    indices.add_argument("--max-q", type=int, default=13)
    indices.set_defaults(handler=_cmd_verify_abelian_indices)

    search = top.add_parser("search", help="counterexample searches").add_subparsers()
    pattern = search.add_parser("pattern", help="scan for a,b,ab,a^n b cubed yet non-commuting")
    pattern.add_argument("n", type=int)
    pattern.add_argument("--order-cap", type=int, default=24)
    pattern.set_defaults(handler=_cmd_search_pattern)

    return parser


# ---------------------------------------------------------------------------
# Shared helpers


def _check_options(args) -> None:
    """Refuse a worker count or node budget below 1, or an empty cache
    directory, before any command runs."""
    if args.jobs < 1:
        raise CubeautError(f"--jobs must be at least 1, got {args.jobs}")
    if args.budget is not None and args.budget < 1:
        raise CubeautError(f"--budget must be at least 1, got {args.budget}")
    if args.cache_dir == "":
        raise CubeautError("--cache-dir needs a directory; omit it to run without a cache")


def _resolve_group(target: str) -> FiniteGroup:
    path = Path(target)
    if path.suffix == ".json" or path.exists():
        return load_group_file(path)
    return build_named_group(target)


def _group_summary(group: FiniteGroup) -> dict:
    sylow_orders = {str(p): group.sylow(p).order for p in prime_divisors(group.order)}
    return {
        "name": group.name,
        "order": group.order,
        "abelian": group.is_abelian,
        "center_order": group.center.order,
        "derived_length": len(group.derived_series) - 1 if group.is_solvable else None,
        "solvable": group.is_solvable,
        "nilpotency_class": group.nilpotency_class,
        "exponent": group.exponent,
        "sylow_orders": sylow_orders,
    }


def _parse_equations(specs) -> tuple:
    if not specs:
        return DEFAULT_EQUATIONS
    try:
        return tuple(LinearEquation([int(c) for c in spec.split(",")]) for spec in specs)
    except ValueError:
        raise CubeautError(f"--equation takes comma-separated integers, got {specs}")


def _parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise CubeautError(f"--bound takes a fraction like 4/17, got {text!r}")


def _load_map(group: FiniteGroup, path: str) -> GroupMap:
    data = read_json_file(path)
    images = data.get("images") if isinstance(data, dict) else data
    if not _indices(images, group.order):
        raise FileFormatError(path, "expected a list of element indices, "
                                    "bare or under an 'images' key")
    return GroupMap(group, group, tuple(images))


# ---------------------------------------------------------------------------
# group commands


def _cmd_group_build(args):
    group = build_named_group(" ".join([args.name, *map(str, args.params)]))
    return {"suite": "group-info", **_group_summary(group)}, True


def _cmd_group_load(args):
    group = load_group_file(args.file)
    summary = _group_summary(group)
    if group.relabeling:
        summary["relabeling"] = list(group.relabeling)
    return {"suite": "group-info", **summary}, True


def _cmd_group_info(args):
    group = _resolve_group(args.target)
    return {"suite": "group-info", **_group_summary(group)}, True


def _cmd_group_export(args):
    group = _resolve_group(args.target)
    try:
        Path(args.out).write_text(json.dumps(group_to_json(group)), encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(args.out, f"cannot write file: {exc}") from exc
    return {"suite": "group-export", "name": group.name, "order": group.order,
            "out": args.out}, True


# ---------------------------------------------------------------------------
# cube commands


def _cmd_cube_ratio(args):
    group = _resolve_group(args.target)
    if args.aut_file and args.power is not None:
        raise CubeautError("--aut-file and --power are mutually exclusive")
    if args.aut_file:
        alpha = _load_map(group, args.aut_file)
        source = f"file:{args.aut_file}"
    elif args.power is not None:
        alpha = power_map(group, args.power)
        source = f"power:{args.power}"
    else:
        alpha = identity_map(group)
        source = "identity"
    report = cube_set(group, alpha, n=args.exponent)
    payload = {
        "suite": "cube-ratio",
        "group": group.name,
        "order": group.order,
        "automorphism": source,
        "exponent": args.exponent,
        "size": len(report.members),
        "ratio": ratio_json(report.ratio),
    }
    return payload, True


def _cmd_cube_max(args):
    group = _resolve_group(args.target)
    row, _, witness, stats = verifier.ratio_row(group, group.name, args.cache_dir, args.exponent)
    return {"suite": "cube-max", **row, "exponent": args.exponent,
            "witness": list(witness.images), "stats": stats}, True


def _cmd_cube_classify(args):
    group = _resolve_group(args.target)
    verdict = classify_cubing_structure(group)
    payload = {"suite": "cube-classify", "group": group.name,
               "order": group.order, **verdict.to_json()}
    return payload, True


# ---------------------------------------------------------------------------
# sfs commands


def _cmd_sfs_t(args):
    instance = SfsInstance(args.n, _parse_equations(args.equation))
    result = max_free_subset(instance, budget=args.budget, collect_sets=True)
    return {"suite": "sfs-t", **result.to_json()}, result.exact


def _cmd_sfs_range(args):
    bound = _parse_fraction(args.bound)
    report = verify_tau_bound(args.lo, args.hi, bound, budget=args.budget)
    report = {"suite": "sfs-tau-range", **report}
    return report, report["all_pass"]


def _cmd_sfs_table(args):
    report = reproduce_table(budget=args.budget)
    return {"suite": "sfs-table", **report}, report["pass"]


def _cmd_sfs_extremal(args):
    instance = SfsInstance(args.n, _parse_equations(args.equation))
    enum = enumerate_extremal(instance, args.size, budget=args.budget)
    payload = {
        "suite": "sfs-extremal",
        "n": args.n,
        "size": args.size,
        "raw": [list(s) for s in enum.raw],
        "canonical": [list(s) for s in enum.canonical],
        "exact": enum.exact,
        "nodes": enum.nodes,
    }
    return payload, enum.exact


# ---------------------------------------------------------------------------
# verify / search commands


def _cmd_verify_properties(args):
    report = verifier.verify_properties(
        exhaustive_cap=args.order_cap, sample_count=args.samples,
        sample_max=args.sample_max, seed=args.seed, jobs=args.jobs,
        cache_dir=args.cache_dir)
    return report, report["pass"]


def _cmd_verify_classification(args):
    report = verifier.verify_classification(
        order_cap=args.order_cap, jobs=args.jobs, cache_dir=args.cache_dir)
    return report, report["pass"]


def _cmd_verify_boundary(args):
    report = verifier.verify_solvability_boundary(
        order_cap=args.order_cap, jobs=args.jobs, cache_dir=args.cache_dir)
    return report, report["pass"]


def _cmd_verify_abelian_indices(args):
    qs = tuple(q for q in verifier.EXPECTED_ABELIAN_INDEX if q <= args.max_q)
    budget = MAX_ABELIAN_BUDGET if args.budget is None else args.budget
    report = verifier.verify_abelian_indices(qs=qs, budget=budget)
    return report, report["pass"]


def _cmd_search_pattern(args):
    report = verifier.power_pattern_search(
        args.n, order_cap=args.order_cap, cache_dir=args.cache_dir)
    return report, True  # a found counterexample is a result, not a failure


# ---------------------------------------------------------------------------
# Emission


def _emit(report: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
        return
    if args.format == "csv":
        print(_to_csv(report), end="")
        return
    print(_to_text(report, args))


_CSV_ROWS = {
    "sfs-table": ("rows", ("n", "T", "T_expected", "tau", "match")),
    "sfs-tau-range": ("rows", ("n", "T", "tau", "pass")),
    "max-abelian-indices": ("rows", ("q", "order", "max_abelian", "index",
                                     "expected_index", "exact")),
    "classification-equivalence": ("rows", ("group", "order", "verdict",
                                            "max_ratio", "equivalent", "attains_max")),
    "solvability-boundary": ("rows", ("group", "order", "max_ratio", "solvable")),
    "property-checks": ("checks", ("check", "instances", "skipped")),
}


def _to_csv(report: dict) -> str:
    suite = report.get("suite")
    if suite not in _CSV_ROWS:
        raise CubeautError(f"no CSV form for {suite!r}; use --format json")
    key, columns = _CSV_ROWS[suite]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(columns)
    for row in report[key]:
        values = []
        for col in columns:
            value = row.get(col)
            if isinstance(value, dict) and "num" in value:
                value = f"{value['num']}/{value['den']}"
            values.append(value)
        writer.writerow(values)
    return out.getvalue()


def _fmt_ratio(value) -> str:
    if isinstance(value, dict) and "num" in value:
        if value["den"] == 1:
            return str(value["num"])
        return f"{value['num']}/{value['den']}"
    return str(value)


def _to_text(report: dict, args) -> str:
    suite = report.get("suite", "")
    lines = []
    if suite == "group-info":
        lines.append(f"{report['name']}: order {report['order']}")
        lines.append(f"  abelian: {report['abelian']}  solvable: {report['solvable']}")
        lines.append(f"  |Z| = {report['center_order']}  exponent = {report['exponent']}")
        lines.append(f"  derived length = {report['derived_length']}"
                     f"  nilpotency class = {report['nilpotency_class']}")
        sylows = ", ".join(f"{p}: {o}" for p, o in sorted(
            report["sylow_orders"].items(), key=lambda kv: int(kv[0])))
        lines.append(f"  sylow orders: {sylows or 'trivial'}")
        if "relabeling" in report:
            lines.append(f"  relabeled so the identity is 0: {report['relabeling']}")
    elif suite == "cube-ratio":
        lines.append(f"{report['group']}: |T| = {report['size']} of {report['order']}, "
                     f"ratio = {_fmt_ratio(report['ratio'])} "
                     f"(alpha = {report['automorphism']}, exponent {report['exponent']})")
    elif suite == "cube-max":
        lines.append(f"{report['group']}: max ratio {_fmt_ratio(report['max_ratio'])} "
                     f"over {report['aut_order']} automorphisms")
    elif suite == "cube-classify":
        lines.append(f"{report['group']}: {report['kind']} ({report['reason']})")
        if "predicted_ratio" in report:
            lines.append(f"  constructed ratio = {_fmt_ratio(report['predicted_ratio'])}")
    elif suite == "sfs-t":
        lines.append(f"T({report['n']}) = {report['T']}  "
                     f"tau = {_fmt_ratio(report['tau'])}  exact = {report['exact']}")
        for s in report["extremal_sets"]:
            lines.append(f"  extremal class: {s}")
    elif suite == "sfs-tau-range":
        for row in report["rows"]:
            lines.append(f"n = {row['n']:3d}  T = {row['T']:2d}  "
                         f"tau = {_fmt_ratio(row['tau'])}  "
                         f"{'ok' if row['pass'] else 'FAIL'}")
        lines.append(f"bound {_fmt_ratio(report['bound'])}: "
                     f"{'all pass' if report['all_pass'] else 'FAILURES'}")
    elif suite == "sfs-table":
        for row in report["rows"]:
            lines.append(f"n = {row['n']:3d}  T = {row['T']}  "
                         f"tau = {_fmt_ratio(row['tau'])}  "
                         f"{'ok' if row['match'] else 'MISMATCH'}")
        lines.append("table matches" if report["pass"] else "TABLE MISMATCH")
    elif suite == "sfs-extremal":
        lines.append(f"avoiding {report['size']}-sets of Z_{report['n']} containing 0: "
                     f"{len(report['raw'])} raw, {len(report['canonical'])} canonical")
        if args.raw:
            for s in report["raw"]:
                lines.append(f"  raw: {s}")
        for s in report["canonical"]:
            lines.append(f"  canonical: {s}")
    elif suite == "property-checks":
        for check in report["checks"]:
            status = "ok" if not check["failures"] else "FAIL"
            lines.append(f"{check['check']:26s} instances {check['instances']:7d}  "
                         f"skipped {check['skipped']:5d}  {status}")
        scope = report["scope"]
        lines.append(f"exhaustive pairs {scope['exhaustive_pairs']}, "
                     f"sampled pairs {scope['sampled_pairs']} (seed {report['seed']})")
        lines.append("all checks pass" if report["pass"] else "FAILURES FOUND")
    elif suite == "classification-equivalence":
        bad = report["mismatches"]
        lines.append(f"{report['groups']} groups up to order {report['order_cap']}: "
                     f"{'zero mismatches' if not bad else f'{len(bad)} MISMATCHES'}")
        for row in bad:
            lines.append(f"  {row['group']}: verdict {row['verdict']} "
                         f"max {_fmt_ratio(row['max_ratio'])}")
    elif suite == "solvability-boundary":
        for row in report["rows"]:
            if row["group"] in verifier.BOUNDARY_GROUPS:
                lines.append(f"  {row['group']:9s} max ratio "
                             f"{_fmt_ratio(row['max_ratio']):8s} "
                             f"solvable {row['solvable']}")
        for failure in report["failures"]:
            lines.append(f"  FAIL {failure['group']}: {failure['reason']} "
                         f"(max ratio {_fmt_ratio(failure['max_ratio'])})")
        lines.append("boundary verified" if report["pass"] else "BOUNDARY FAILURES")
    elif suite == "max-abelian-indices":
        for row in report["rows"]:
            ok = row["exact"] and row["index"] == row["expected_index"]
            lines.append(f"q = {row['q']:2d}  order {row['order']:5d}  "
                         f"max abelian {row['max_abelian']:3d}  index {row['index']:3d} "
                         f"(expected {row['expected_index']})  {'ok' if ok else 'FAIL'}")
        lines.append("indices match" if report["pass"] else "MISMATCH")
    elif suite == "power-pattern-search":
        if report["counterexample"]:
            ce = report["counterexample"]
            lines.append(f"counterexample in {ce['group']}: a = {ce['a']}, b = {ce['b']}")
        else:
            lines.append(f"no counterexample: n = {report['n']}, "
                         f"{report['pairs_scanned']} pattern pairs over "
                         f"{report['groups_scanned']} groups (order cap {report['order_cap']})")
            if report["known_commuting_pattern"]:
                lines.append("(this exponent is a known commuting pattern)")
    elif suite == "group-export":
        lines.append(f"wrote {report['name']} (order {report['order']}) to {report['out']}")
    else:
        lines.append(json.dumps(report, sort_keys=True))
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
