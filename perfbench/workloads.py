"""The three benchmark workloads: their inputs, timed operations and answer oracle.

An operation is a ``(label, run, check)`` triple. ``run`` is the timed
call into cubeaut; ``check`` takes its result, runs outside the timed
region and raises ``WrongAnswer`` (or any exception) when the answer is
not the known one. Checks compare semantic fields and re-check every
reported witness with an independent computation; they never compare
whole-output digests, so extra report fields are not failures.

cubeaut functions are looked up through their modules at call time, so
the wrappers that ``tracing`` installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

from cubeaut import automorphisms, catalog, cli, cubing, groups, sfs


class WrongAnswer(Exception):
    """An operation returned something other than the known answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# Independent re-checks (plain table arithmetic, no cubeaut query code)


def cube_count(group, images) -> int:
    """Number of x with images[x] == x^3, straight from the table."""
    t = group.table
    return sum(1 for x in range(group.order) if images[x] == t[t[x][x]][x])


def check_witness(group, images, ratio: Fraction) -> None:
    """The map is an automorphism and attains ``ratio`` exactly."""
    automorphisms.check_automorphism(
        automorphisms.GroupMap(group, group, tuple(images)))
    expect(Fraction(cube_count(group, images), group.order) == ratio,
           f"witness on {group.name} does not attain {ratio}")


def check_abelian_subgroup(group, elements, size: int) -> None:
    t = group.table
    inside = set(elements)
    expect(len(inside) == size and 0 in inside, "wrong abelian witness size")
    for a in elements:
        for b in elements:
            expect(t[a][b] in inside, "abelian witness is not closed")
            expect(t[a][b] == t[b][a], "abelian witness does not commute")


def check_avoiding_sets(sets, n: int, size: int, equations) -> None:
    for s in sets:
        expect(len(set(s)) == size and 0 in s, f"bad extremal set {s} for n={n}")
        expect(tuple(s) == sfs.canonical_form(s, n), f"set {s} is not canonical")
        expect(sfs.is_avoiding(s, n, equations), f"set {s} is not avoiding")


# ---------------------------------------------------------------------------
# groups-cold: one step per operation for each large group, fresh cache


def _simple(sylow):
    return dict(center=1, derived_length=None, solvable=False, nilpotency_class=None,
                sylow=sylow)


def _class2(center, sylow):
    return dict(center=center, derived_length=2, solvable=True, nilpotency_class=2,
                sylow=sylow)


GROUP_ANSWERS = {
    # name: order, summary, |Aut|, max ratio, verdict, max abelian order
    "A6": (360, _simple(sylow={2: 8, 3: 9, 5: 5}), 1440, Fraction(23, 180), "None", 9),
    "S6": (720, _simple(sylow={2: 16, 3: 9, 5: 5}), 1440, Fraction(19, 180), "None", 9),
    "L2(11)": (660, _simple(sylow={2: 4, 3: 3, 5: 5, 11: 11}),
               1320, Fraction(14, 165), "None", 11),
    "L2(13)": (1092, _simple(sylow={2: 4, 3: 3, 7: 7, 13: 13}),
               2184, Fraction(23, 273), "None", 13),
    "T3i(2)": (32, _class2(center=2, sylow={2: 32}), 1152, Fraction(5, 8), "TypeIII(i)", 8),
    # 9/16 is the true maximum; the documented red test expects 5/8.
    "T3ii": (64, _class2(center=4, sylow={2: 64}), 2048, Fraction(9, 16), "TypeIII(ii)", 16),
}


def group_summary(group) -> dict:
    """The `group info` summary: center, derived series, solvability,
    nilpotency class and Sylow orders."""
    sylow = {}
    remaining, p = group.order, 2
    while remaining > 1:
        if remaining % p == 0:
            sylow[p] = group.sylow(p).order
            while remaining % p == 0:
                remaining //= p
        p += 1
    return {
        "center": group.center.order,
        "derived_length": len(group.derived_series) - 1 if group.is_solvable else None,
        "solvable": group.is_solvable,
        "nilpotency_class": group.nilpotency_class,
        "sylow": sylow,
    }


def _group_steps(name: str, cache_dir: Path) -> list:
    order, summary, aut_order, ratio, verdict, abelian = GROUP_ANSWERS[name]
    state = {}

    def build():
        state["group"] = catalog.build_named_group(name)
        return state["group"]

    def check_build(group):
        expect(group.order == order, f"{name} has order {group.order}")

    def check_summary(got):
        expect(got == summary, f"{name} summary {got}")

    def aut():
        state["auts"] = automorphisms.automorphism_group(state["group"], cache_dir=cache_dir)
        return state["auts"]

    def check_aut(auts):
        expect(auts.order == aut_order, f"|Aut({name})| = {auts.order}")

    def check_ratio(result):
        got, witness = result
        expect(got == ratio, f"max ratio of {name} is {got}")
        check_witness(state["group"], witness.images, ratio)

    def check_verdict(v):
        expect(v.kind.value == verdict, f"{name} verdict {v.kind.value}")
        if v.constructed_alpha is not None:
            expect(v.predicted_ratio == ratio, f"{name} predicts {v.predicted_ratio}")
            check_witness(state["group"], v.constructed_alpha.images, ratio)

    def check_abelian(result):
        expect(result.exact and result.size == abelian,
               f"{name} max abelian {result.size} (exact={result.exact})")
        check_abelian_subgroup(state["group"], result.witness.elements, abelian)

    def g():
        return state["group"]

    return [
        (f"{name} build", build, check_build),
        (f"{name} summary", lambda: group_summary(g()), check_summary),
        (f"{name} automorphism_group", aut, check_aut),
        (f"{name} max_cube_ratio",
         lambda: cubing.max_cube_ratio(g(), auts=state["auts"]), check_ratio),
        (f"{name} classify", lambda: cubing.classify_cubing_structure(g()), check_verdict),
        (f"{name} max_abelian", lambda: groups.max_abelian_subgroup_order(g()), check_abelian),
    ]


def groups_ops(cache_dir: Path) -> list:
    return [op for name in GROUP_ANSWERS for op in _group_steps(name, cache_dir)]


# ---------------------------------------------------------------------------
# sfs-search: the three ways the branch and bound is used


SFS_T = {60: 8, 61: 8, 62: 8, 63: 8, 64: 8, 65: 8, 66: 8, 67: 8,
         68: 9, 69: 8, 70: 9, 71: 10, 72: 9}
SFS_COLLECT = {40: (6, 28), 45: (6, 69)}  # n: (T, canonical classes)
# one 4-term equation forces the generic is_avoiding path
FOUR_TERM = ((1, 1, -2), (1, 2, -3), (1, 1, 1, -3))
SFS_FOUR_TERM_T = {31: 4, 32: 5, 33: 4, 34: 5}


def _sfs_op(label, instance, size, classes=None):
    def run():
        return sfs.max_free_subset(instance, collect_sets=classes is not None)

    def check(result):
        n = instance.modulus
        expect(result.exact and result.size == size, f"T({n}) = {result.size}")
        if classes is not None:
            expect(len(result.extremal_sets) == classes,
                   f"{len(result.extremal_sets)} classes for n={n}")
            check_avoiding_sets(result.extremal_sets, n, size, instance.equations)

    return (label, run, check)


def sfs_ops() -> list:
    ops = [_sfs_op(f"T({n})", sfs.SfsInstance(n), t) for n, t in SFS_T.items()]
    ops += [_sfs_op(f"T({n}) collect", sfs.SfsInstance(n), t, classes)
            for n, (t, classes) in SFS_COLLECT.items()]
    equations = tuple(sfs.LinearEquation(c) for c in FOUR_TERM)
    ops += [_sfs_op(f"T({n}) 4-term", sfs.SfsInstance(n, equations), t)
            for n, t in SFS_FOUR_TERM_T.items()]
    return ops


# ---------------------------------------------------------------------------
# cli-warm: criterion 9's commands through cli.main on a filled cache


CUBE_MAX = {  # CLI name: catalog name, |Aut|, max ratio
    "a5": ("A5", 120, Fraction(4, 15)),
    "s5": ("S5", 120, Fraction(13, 60)),
    "l2_7": ("L2(7)", 336, Fraction(11, 84)),
    "pgl2_7": ("PGL2(7)", 336, Fraction(25, 168)),
    "a6": ("A6", 1440, Fraction(23, 180)),
}
TAU_RANGE_T = (4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 4, 5, 4, 5, 4, 5, 6, 6, 6, 6, 6,
               6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 8, 8, 8, 7, 8, 8, 8)  # n = 18..60
CLASSIFICATION_GROUPS = 135  # deduplicated catalog groups of order <= 64
EXHAUSTIVE_PAIRS = 1908      # all automorphisms of catalog groups of order <= 24
CLASSIFY = {"s3": ("TypeII", Fraction(2, 3)), "t3i_2": ("TypeIII(i)", Fraction(5, 8))}


def _ratio(value) -> Fraction:
    return Fraction(value["num"], value["den"])


class CliChecker:
    """Semantic checks of criterion 9's JSON reports. Groups needed for
    witness re-checks are built once, outside the timed region."""

    def __init__(self, seed: int):
        self.seed = seed
        self._groups = {}

    def group(self, name):
        if name not in self._groups:
            self._groups[name] = catalog.build_named_group(name)
        return self._groups[name]

    def check(self, command, report: dict) -> None:
        expect(report.get("seed") == self.seed, f"seed {report.get('seed')}")
        kind, sub = command[0], command[1]
        if (kind, sub) == ("sfs", "table"):
            expect(report["pass"] and not report["diffs"], "sfs table mismatch")
            for row in report["rows"]:
                expect(row["T"] == sfs.REFERENCE_TABLE[row["n"]], f"table row {row}")
        elif (kind, sub) == ("sfs", "tau-range"):
            rows = report["rows"]
            expect(report["all_pass"] and [r["n"] for r in rows] == list(range(18, 61)),
                   "tau-range rows")
            expect(tuple(r["T"] for r in rows) == TAU_RANGE_T, "tau-range T values")
            for r in rows:
                expect(_ratio(r["tau"]) == Fraction(r["T"], r["n"]) < Fraction(4, 17),
                       f"tau row {r}")
        elif (kind, sub) == ("sfs", "extremal"):
            n, size = report["n"], report["size"]
            raw = [tuple(s) for s in report["raw"]]
            expect(report["exact"] and len(raw) == 16, f"{len(raw)} raw sets")
            for s in raw:
                expect(len(set(s)) == size and 0 in s and sfs.is_avoiding(s, n),
                       f"raw set {s}")
            canonical = sorted({sfs.canonical_form(s, n) for s in raw})
            expect([tuple(s) for s in report["canonical"]] == canonical,
                   "canonical classes")
        elif (kind, sub) == ("cube", "max"):
            name, aut_order, ratio = CUBE_MAX[command[2]]
            expect(report["aut_order"] == aut_order and _ratio(report["max_ratio"]) == ratio,
                   f"cube max {name}: {report['max_ratio']} over {report['aut_order']}")
            check_witness(self.group(name), report["witness"], ratio)
        elif (kind, sub) == ("cube", "classify"):
            verdict, ratio = CLASSIFY[command[2]]
            expect(report["kind"] == verdict and _ratio(report["predicted_ratio"]) == ratio,
                   f"classify {command[2]}: {report['kind']}")
        elif (kind, sub) == ("verify", "classification"):
            expect(report["pass"] and not report["mismatches"], "classification mismatches")
            expect(report["groups"] == len(report["rows"]) == CLASSIFICATION_GROUPS,
                   f"{report['groups']} groups classified")
            for row in report["rows"]:
                expect(row["equivalent"] and row["attains_max"], f"classification row {row}")
        elif (kind, sub) == ("verify", "properties"):
            scope = report["scope"]
            expect(report["pass"], "property checks failed")
            expect(scope["sampled_pairs"] >= 500, f"{scope['sampled_pairs']} sampled pairs")
            expect(scope["exhaustive_pairs"] == EXHAUSTIVE_PAIRS,
                   f"{scope['exhaustive_pairs']} exhaustive pairs")
            for check in report["checks"]:
                expect(not check["failures"] and check["instances"] > 0,
                       f"check {check['check']}")
        else:
            raise WrongAnswer(f"no oracle for {command}")


CLI_COMMANDS = (
    ("sfs", "table"),
    ("sfs", "tau-range", "18", "60"),
    ("sfs", "extremal", "16", "4", "--raw"),
    ("cube", "max", "a5"),
    ("cube", "max", "s5"),
    ("cube", "max", "l2_7"),
    ("cube", "max", "pgl2_7"),
    ("cube", "max", "a6"),
    ("verify", "classification", "--order-cap", "64"),
    ("cube", "classify", "s3"),
    ("cube", "classify", "t3i_2"),
    ("verify", "properties", "--order-cap", "24", "--samples", "500"),
)


def _cli_op(command, seed: int, cache_dir: Path, checker: CliChecker):
    argv = ["--format", "json", "--jobs", "1", "--seed", str(seed),
            "--cache-dir", str(cache_dir), *command]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        expect(code == 0, f"exit code {code}")
        checker.check(command, json.loads(text))

    return (" ".join(command), run, check)


def cli_ops(seed: int, cache_dir: Path) -> list:
    checker = CliChecker(seed)
    return [_cli_op(c, seed, cache_dir, checker) for c in CLI_COMMANDS]


def fill_cache(cache_dir: Path) -> None:
    """Store Aut(G) for every catalog group a cli-warm pass can touch:
    order <= 360 covers the sampled window and every `cube max` group."""
    for _, group in catalog.built_in_catalog().groups(order_cap=360):
        automorphisms.automorphism_group(group, cache_dir=cache_dir)


def prepare(workload: str, area: Path) -> None:
    """The workload's set-up, run in a fresh interpreter: for cli-warm,
    fill the automorphism cache that every timed pass reads."""
    if workload == "cli-warm":
        fill_cache(area / "cache")
