import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cubeaut
from cubeaut import builders, sfs, verifier
from cubeaut.cli import _build_parser, main
from cubeaut.groups import group_to_json


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *args):
    code, out, err = run(capsys, "--format", "json", *args)
    return code, json.loads(out) if out.strip() else None, err


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# group commands


def test_group_build_named(capsys):
    code, payload, _ = run_json(capsys, "group", "build", "psl2", "7")
    assert code == 0
    assert payload["order"] == 168
    assert payload["sylow_orders"] == {"2": 8, "3": 3, "7": 7}


def test_group_build_catalog_alias(capsys):
    code, payload, _ = run_json(capsys, "group", "build", "a5")
    assert code == 0
    assert payload["order"] == 60
    assert payload["solvable"] is False


def test_group_build_trivial(capsys):
    code, payload, _ = run_json(capsys, "group", "build", "cyclic", "1")
    assert code == 0
    assert payload["order"] == 1


def test_group_info_text(capsys):
    code, out, _ = run(capsys, "group", "info", "q8")
    assert code == 0
    assert "order 8" in out
    assert "nilpotency class = 2" in out


def test_group_load_and_export_roundtrip(tmp_path, capsys):
    path = tmp_path / "d5.json"
    path.write_text(json.dumps(group_to_json(builders.dihedral(5))))
    code, payload, _ = run_json(capsys, "group", "load", str(path))
    assert code == 0
    assert payload["order"] == 10
    out_path = tmp_path / "exported.json"
    code, _, _ = run_json(capsys, "group", "export", str(path), str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["order"] == 10


def test_group_export_to_unwritable_path(tmp_path, capsys):
    out_path = tmp_path / "missing" / "q8.json"
    code, out, err = run(capsys, "group", "export", "q8", str(out_path))
    assert code == 2
    assert err.startswith("error: ") and "cannot write" in err and out == ""
    assert not out_path.exists()


def test_group_load_bad_table_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 9]]}))
    code, out, err = run(capsys, "group", "load", str(path))
    assert code == 2
    assert "table[1][1]" in err
    for field, data in (("name", {"name": ["x"], "table": [[0]]}),
                        ("order", {"order": 2.0, "table": [[0, 1], [1, 0]]})):
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "group", "load", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {field}: expected")


@pytest.mark.parametrize("location, data", [
    ("name", {"name": list(range(200_000)), "table": [[0]]}),
    ("order", {"order": list(range(100_000)), "table": [[0]]}),
    ("table[1][1]", {"table": [[0, 1], [1, list(range(100_000))]]}),
], ids=["name", "order", "table-entry"])
def test_error_line_echoes_a_bounded_value(tmp_path, capsys, location, data):
    """A huge bad value is cut, not echoed whole: stderr stays under 1 kB
    and still names the location."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "group", "load", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {location}: ")
    assert len(err.encode("utf-8")) < 1024


def test_group_name_must_encode_as_utf8(tmp_path, capsys):
    # a lone surrogate is valid JSON but cannot be printed as UTF-8
    path = tmp_path / "g.json"
    path.write_text('{"table": [[0]], "name": "x\\ud800"}')
    for command in ("load", "info"):
        code, out, err = run(capsys, "group", command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: name: ") and "UTF-8" in err


_NESTED = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("argv, text", [
    (("group", "load"), _NESTED),
    (("group", "info"), '{"table": ' + _NESTED + "}"),
    (("cube", "ratio", "z5", "--aut-file"), _NESTED),
], ids=["group-load", "group-info", "aut-file"])
def test_deeply_nested_json_is_a_format_error(tmp_path, capsys, argv, text):
    path = tmp_path / "nested.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


def test_unknown_group_name(capsys):
    code, out, err = run(capsys, "group", "info", "nosuchgroup")
    assert code == 2
    assert "unknown group" in err


def test_missing_file_is_reported(capsys):
    code, out, err = run(capsys, "group", "load", "/nonexistent/g.json")
    assert code == 2
    assert "cannot read" in err


def test_builder_missing_parameter(capsys):
    code, out, err = run(capsys, "group", "build", "cyclic")
    assert code == 2
    assert "parameter" in err


@pytest.mark.parametrize("argv", [("quaternion8", "9"), ("a5", "7"), ("cyclic", "12", "5")])
def test_builder_surplus_parameter(capsys, argv):
    code, out, err = run(capsys, "group", "build", *argv)
    assert code == 2
    assert err.startswith("error: ") and "parameter" in err and out == ""


# The child may map at most 1 GiB, so a builder that did allocate the
# order^2 table would die of MemoryError (exit 1), not exhaust the machine.
_LIMITED_CLI = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from cubeaut.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("argv", [("z100000",), ("type3i", "12"), ("s8",), ("a8",),
                                  ("type3i", "100000"), ("dihedral", "9" * 4300),
                                  ("d" + "9" * 4300,)])
def test_group_build_above_order_limit(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cubeaut.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _LIMITED_CLI, "group", "build", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "above the limit 20000" in proc.stderr


@pytest.mark.parametrize("build", ["builders.direct_product(z, z)",
                                   "builders.semidirect_product(z, z, [range(150)] * 150)"],
                         ids=["direct", "semidirect"])
def test_product_above_order_limit(build):
    """Z150 x Z150 has order 22,500: refused before its table is allocated,
    so the child's 1 GiB address space is never reached."""
    env = {**os.environ, "PYTHONPATH": str(Path(cubeaut.__file__).parents[1])}
    script = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from cubeaut import builders\n"
              "from cubeaut.errors import UnsupportedParameter\n"
              "z = builders.cyclic(150)\n"
              "try:\n"
              f"    {build}\n"
              "except UnsupportedParameter as exc:\n"
              "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "above the limit 20000" in proc.stdout


def test_group_load_refuses_degree_above_order_limit(tmp_path):
    """A 40-byte generator file naming 10^8 points is refused before the
    identity permutation is allocated, inside the child's 1 GiB."""
    path = tmp_path / "wide.json"
    path.write_text('{"degree": 100000000, "generators": []}')
    env = {**os.environ, "PYTHONPATH": str(Path(cubeaut.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _LIMITED_CLI, "group", "load", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: degree: ") and "Traceback" not in proc.stderr


def test_sfs_modulus_limit_bounds_table_memory():
    env = {**os.environ, "PYTHONPATH": str(Path(cubeaut.__file__).parents[1])}
    refused = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "sfs", "t", str(sfs.MAX_MODULUS + 1)],
        capture_output=True, text=True, env=env, timeout=60)
    assert refused.returncode == 2
    assert refused.stderr.startswith("error: ") and "above the limit" in refused.stderr
    largest = ("import resource\n"
               "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
               "from cubeaut.sfs import DEFAULT_EQUATIONS, MAX_MODULUS, _conflict_tables\n"
               "_conflict_tables(MAX_MODULUS, DEFAULT_EQUATIONS)\n")
    built = subprocess.run([sys.executable, "-c", largest], capture_output=True,
                           text=True, env=env, timeout=120)
    assert built.returncode == 0, built.stderr


def test_closed_stdout_ends_without_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(cubeaut.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-m", "cubeaut.cli", "sfs", "tau-range", "18", "40"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env) as proc:  # closes both pipes at exit
        proc.stdout.close()  # before the report is written
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cube commands


def test_cube_max_a5(capsys, cache_dir):
    code, payload, _ = run_json(capsys, "--cache-dir", str(cache_dir),
                                "cube", "max", "a5")
    assert code == 0
    assert payload["max_ratio"] == {"num": 4, "den": 15}
    assert payload["aut_order"] == 120
    # Aut(A5) = S5 is two cosets of Inn(A5); each splits into four
    # Inn-conjugacy classes
    assert payload["stats"] == {"aut_representatives": 2, "ratio_evaluations": 8}


def test_cube_max_without_cache_dir_writes_nothing(tmp_path):
    # HOME and the cache variables of earlier layouts name empty
    # directories; without --cache-dir none of them, nor the working
    # directory, gains a file
    dirs = {key: tmp_path / key for key in ("HOME", "XDG_CACHE_HOME", "CUBEAUT_CACHE_DIR", "cwd")}
    for path in dirs.values():
        path.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(cubeaut.__file__).parents[1]),
           **{key: str(path) for key, path in dirs.items() if key != "cwd"}}
    proc = subprocess.run([sys.executable, "-m", "cubeaut.cli", "--format", "json",
                           "cube", "max", "a5"], capture_output=True, text=True,
                          env=env, cwd=dirs["cwd"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["max_ratio"] == {"num": 4, "den": 15}
    assert sorted(tmp_path.rglob("*")) == sorted(dirs.values())


def test_empty_cache_dir_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "--cache-dir", "", "cube", "max", "a5")
    assert code == 2
    assert err.startswith("error: ") and "--cache-dir" in err and out == ""
    assert not list(tmp_path.iterdir())


def test_cube_classify(capsys):
    code, payload, _ = run_json(capsys, "cube", "classify", "s3")
    assert code == 0
    assert payload["kind"] == "TypeII"
    assert payload["predicted_ratio"] == {"num": 2, "den": 3}
    code, payload, _ = run_json(capsys, "cube", "classify", "d4")
    assert payload["kind"] == "TypeIII(i)"
    assert payload["predicted_ratio"] == {"num": 3, "den": 4}


def test_cube_ratio_power(capsys):
    code, payload, _ = run_json(capsys, "cube", "ratio", "z5", "--power", "3")
    assert code == 0
    assert payload["ratio"] == {"num": 1, "den": 1}


def test_cube_ratio_identity_default(capsys):
    code, payload, _ = run_json(capsys, "cube", "ratio", "a5")
    assert code == 0
    assert payload["ratio"] == {"num": 4, "den": 15}


def test_cube_ratio_aut_file(tmp_path, capsys):
    z5 = builders.cyclic(5)
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"images": [z5.pow(x, 2) for x in range(5)]}))
    code, payload, _ = run_json(capsys, "cube", "ratio", "z5",
                                "--aut-file", str(path))
    assert code == 0
    # x -> x^2 agrees with cubing only at 0
    assert payload["ratio"] == {"num": 1, "den": 5}


def test_cube_ratio_rejects_bad_map(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps([0, 0, 1, 2, 3]))
    code, out, err = run(capsys, "cube", "ratio", "z5", "--aut-file", str(path))
    assert code == 2


def test_cube_ratio_aut_file_missing(tmp_path, capsys):
    code, out, err = run(capsys, "cube", "ratio", "z5",
                         "--aut-file", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error: ") and "cannot read" in err


@pytest.mark.parametrize("content", [b"[0, 1,", b'{"images": "01234"}', b"[0, 1, 2, 3, 9]",
                                     b'{"maps": [0, 1, 2, 3, 4]}', b"[0, 1.0, 2, 3, 4]",
                                     b"\xff\xfe[0]"])
def test_cube_ratio_aut_file_malformed(tmp_path, capsys, content):
    path = tmp_path / "alpha.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "cube", "ratio", "z5", "--aut-file", str(path))
    assert code == 2
    assert err.startswith("error: ") and out == ""


def test_cube_ratio_exponent(capsys):
    code, payload, _ = run_json(capsys, "cube", "ratio", "q8", "--exponent", "-1")
    assert code == 0
    assert payload["ratio"] == {"num": 1, "den": 4}


# ---------------------------------------------------------------------------
# sfs commands


def test_sfs_t(capsys):
    code, payload, _ = run_json(capsys, "sfs", "t", "17")
    assert code == 0
    assert payload["T"] == 4
    assert payload["tau"] == {"num": 4, "den": 17}
    assert payload["extremal_sets"]


def test_sfs_t_trivial(capsys):
    code, payload, _ = run_json(capsys, "sfs", "t", "1")
    assert code == 0
    assert payload["T"] == 1


def test_sfs_custom_equation(capsys):
    code, payload, _ = run_json(capsys, "sfs", "t", "9",
                                "--equation", "1,1,-2")
    assert code == 0
    assert payload["T"] == 4  # AP-only oracle value


def test_sfs_bad_equation(capsys):
    code, out, err = run(capsys, "sfs", "t", "12", "--equation", "1,x,-2")
    assert code == 2
    assert err.startswith("error: ") and "--equation" in err


@pytest.mark.parametrize("argv, message", [
    (("--jobs", "-3", "verify", "classification", "--order-cap", "4"),
     "--jobs must be at least 1, got -3"),
    (("--jobs", "0", "cube", "max", "a5"), "--jobs must be at least 1, got 0"),
    (("--budget", "-5", "sfs", "t", "40"), "--budget must be at least 1, got -5"),
    (("--budget", "0", "verify", "abelian-index", "--max-q", "5"),
     "--budget must be at least 1, got 0"),
])
def test_counts_below_one_are_refused(capsys, cache_dir, argv, message):
    code, out, err = run(capsys, "--cache-dir", str(cache_dir), *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err and out == ""


def test_sfs_t_budget_cutting_the_enumeration_exits_one(capsys):
    code, payload, _ = run_json(capsys, "--budget", "504", "sfs", "t", "40")
    assert code == 1
    assert (payload["T"], payload["exact"]) == (6, False)


def test_abelian_index_budget_is_passed_through(capsys):
    code, payload, _ = run_json(capsys, "--budget", "1", "verify", "abelian-index",
                                "--max-q", "5")
    assert code == 1
    assert [row["exact"] for row in payload["rows"]] == [False]


def test_sfs_tau_range_bad_bound(capsys):
    code, out, err = run(capsys, "sfs", "tau-range", "5", "6", "--bound", "4/0")
    assert code == 2
    assert err.startswith("error: ") and "--bound" in err


@pytest.mark.parametrize("command", [["cube", "max", "z5"], ["group", "info", "q8"]])
def test_csv_without_csv_form(capsys, cache_dir, command):
    code, out, err = run(capsys, "--cache-dir", str(cache_dir), "--format", "csv",
                         *command)
    assert code == 2
    assert err.startswith("error: no CSV form") and out == ""


def test_sfs_table_text_and_exit(capsys):
    code, out, _ = run(capsys, "sfs", "table")
    assert code == 0
    assert "table matches" in out


def test_sfs_table_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "sfs", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,T,T_expected,tau,match"
    assert lines[1] == "2,1,1,1/2,True"
    assert len(lines) == 12


def test_sfs_extremal_raw(capsys):
    code, payload, _ = run_json(capsys, "sfs", "extremal", "16", "4", "--raw")
    assert code == 0
    assert len(payload["raw"]) == 16
    assert all(4 in s or 12 in s for s in payload["raw"])
    assert [0, 1, 4, 5] in payload["raw"]


@pytest.mark.parametrize("flags, listed", [((), 0), (("--raw",), 16)])
def test_sfs_extremal_text_lists_raw_only_with_flag(capsys, flags, listed):
    code, out, _ = run(capsys, "sfs", "extremal", "16", "4", *flags)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(": 16 raw, 2 canonical")
    assert sum(line.startswith("  raw: ") for line in lines) == listed
    assert "  canonical: [0, 1, 4, 5]" in lines


def test_sfs_tau_range(capsys):
    code, payload, _ = run_json(capsys, "sfs", "tau-range", "18", "24")
    assert code == 0
    assert payload["all_pass"]
    assert payload["bound"] == {"num": 4, "den": 17}


def test_sfs_tau_range_failing_bound(capsys):
    code, payload, _ = run_json(capsys, "sfs", "tau-range", "18", "20",
                                "--bound", "1/100")
    assert code == 1
    assert not payload["all_pass"]


# ---------------------------------------------------------------------------
# verify / search commands


def test_verify_abelian_indices(capsys):
    code, payload, _ = run_json(capsys, "verify", "abelian-index", "--max-q", "7")
    assert code == 0
    assert [r["index"] for r in payload["rows"]] == [12, 24]


def test_abelian_index_text_fails_an_inexact_row(capsys):
    """At budget 3 neither search finishes: both rows are inexact, so
    the report lists them under failures and the text marks each FAIL."""
    code, payload, _ = run_json(capsys, "--budget", "3", "verify", "abelian-index",
                                "--max-q", "7")
    assert code == 1 and payload["failures"] == payload["rows"]
    assert not any(row["exact"] for row in payload["rows"])
    code, out, _ = run(capsys, "--budget", "3", "verify", "abelian-index", "--max-q", "7")
    lines = out.splitlines()
    assert code == 1
    assert [line.split()[-1] for line in lines] == ["FAIL", "FAIL", "MISMATCH"]


@pytest.mark.parametrize("overrides, expected", [
    ({"A5": Fraction(1, 3), "Z4": Fraction(1, 1)},
     ["  FAIL A5: maximum ratio is not exactly 4/15 (max ratio 1/3)",
      "  FAIL A5: ratio above 4/15 on an insolvable group (max ratio 1/3)"]),
    ({"PGL2(7)": Fraction(1, 2)},
     ["  FAIL PGL2(7): maximum ratio exceeds 4/15 (max ratio 1/2)",
      "  FAIL PGL2(7): ratio above 4/15 on an insolvable group (max ratio 1/2)"]),
], ids=["A5 above", "PGL2(7) above"])
def test_boundary_text_names_each_failure(monkeypatch, capsys, cache_dir, overrides, expected):
    """With max_cube_ratio patched for the named groups, the text prints
    one line per failure, with its reason and ratio, before the verdict."""
    real = verifier.max_cube_ratio

    def patched(group, n, auts):
        if group.name in overrides:
            return overrides[group.name], None
        return real(group, n=n, auts=auts)

    monkeypatch.setattr(verifier, "max_cube_ratio", patched)
    code, out, _ = run(capsys, "--cache-dir", str(cache_dir), "verify", "solvable-boundary",
                       "--order-cap", "4")
    assert code == 1
    assert out.splitlines()[-len(expected) - 1:] == [*expected, "BOUNDARY FAILURES"]


def test_verify_classification_small(capsys, cache_dir):
    code, payload, _ = run_json(capsys, "--cache-dir", str(cache_dir),
                                "verify", "classification", "--order-cap", "12")
    assert code == 0
    assert payload["pass"]


def test_verify_properties_small(capsys, cache_dir):
    code, payload, _ = run_json(capsys, "--cache-dir", str(cache_dir),
                                "--seed", "4", "verify", "properties",
                                "--order-cap", "8", "--samples", "5")
    assert code == 0
    assert payload["pass"]
    assert payload["seed"] == 4


@pytest.mark.parametrize("argv, message", [
    (("--samples", "5", "--sample-max", "10"), "sample window [25, 10]"),
    (("--samples", "-3"), "sample count -3 is negative"),
])
def test_verify_properties_refuses_empty_sample(capsys, cache_dir, argv, message):
    code, out, err = run(capsys, "--cache-dir", str(cache_dir), "verify", "properties",
                         "--order-cap", "4", *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err and out == ""


@pytest.mark.parametrize("argv, message", [
    (("verify", "classification", "--order-cap", "-1"), "order at most -1"),
    (("search", "pattern", "5", "--order-cap", "0"), "order at most 0"),
    (("verify", "abelian-index", "--max-q", "1"), "no q to check"),
    (("verify", "properties", "--order-cap", "0", "--samples", "0"), "no sample is drawn"),
])
def test_scan_with_empty_scope_is_refused(capsys, cache_dir, argv, message):
    code, out, err = run(capsys, "--cache-dir", str(cache_dir), *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err and out == ""


def test_search_pattern(capsys, cache_dir):
    code, payload, _ = run_json(capsys, "--cache-dir", str(cache_dir),
                                "search", "pattern", "2", "--order-cap", "10")
    assert code == 0
    assert payload["counterexample"] is None
    assert payload["known_commuting_pattern"]


# one cheap run of every subcommand; "{dir}" names a directory holding
# d5.json, the file `group load` reads
SEED_RUNS = (
    ("group", "build", "z4"),
    ("group", "info", "z4"),
    ("group", "load", "{dir}/d5.json"),
    ("group", "export", "z4", "{dir}/z4.json"),
    ("cube", "ratio", "s3"),
    ("cube", "max", "s3"),
    ("cube", "classify", "s3"),
    ("sfs", "t", "10"),
    ("sfs", "tau-range", "18", "20"),
    ("sfs", "table"),
    ("sfs", "extremal", "16", "4"),
    ("verify", "properties", "--order-cap", "4", "--samples", "1", "--sample-max", "30"),
    ("verify", "classification", "--order-cap", "4"),
    ("verify", "solvable-boundary", "--order-cap", "4"),
    ("verify", "abelian-index", "--max-q", "5"),
    ("search", "pattern", "5", "--order-cap", "8"),
)


# (command, one line its text form must print); "{dir}" is a writable directory
TEXT_HEADLINES = (
    (("cube", "ratio", "s3"), "S3: |T| = 4 of 6, ratio = 2/3 (alpha = identity, exponent 3)"),
    (("cube", "max", "s3"), "S3: max ratio 2/3 over 6 automorphisms"),
    (("cube", "classify", "s3"),
     "S3: TypeII (abelian subgroup of index 2 with the Sylow conditions)"),
    (("sfs", "t", "10"), "T(10) = 2  tau = 1/5  exact = True"),
    (("sfs", "tau-range", "18", "20"), "bound 4/17: all pass"),
    (("verify", "properties", "--order-cap", "4", "--samples", "1", "--sample-max", "30"),
     "exhaustive pairs 12, sampled pairs 1 (seed 0)"),
    (("verify", "classification", "--order-cap", "4"), "5 groups up to order 4: zero mismatches"),
    (("verify", "solvable-boundary", "--order-cap", "4"),
     "  A5        max ratio 4/15     solvable False"),
    (("verify", "abelian-index", "--max-q", "5"),
     "q =  5  order    60  max abelian   5  index  12 (expected 12)  ok"),
    (("search", "pattern", "2", "--order-cap", "8"),
     "no counterexample: n = 2, 1795 pattern pairs over 17 groups (order cap 8)"),
    (("group", "export", "z4", "{dir}/z4.json"), "wrote Z4 (order 4) to {dir}/z4.json"),
)


@pytest.mark.parametrize("command, headline", TEXT_HEADLINES,
                         ids=[" ".join(c[:2]) for c, _ in TEXT_HEADLINES])
def test_text_form_prints_its_headline(capsys, cache_dir, tmp_path, command, headline):
    code, out, err = run(capsys, "--format", "text", "--cache-dir", str(cache_dir),
                         *(word.format(dir=tmp_path) for word in command))
    assert code == 0 and err == ""
    assert headline.format(dir=tmp_path) in out.splitlines()


def test_seed_runs_cover_every_subcommand():
    def words(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    commands = {(top, sub) for top, parser in words(_build_parser()).items()
                for sub in words(parser)}
    assert commands == {run[:2] for run in SEED_RUNS}


@pytest.mark.parametrize("command", SEED_RUNS, ids=[" ".join(c[:2]) for c in SEED_RUNS])
def test_main_records_the_seed_once(capsys, cache_dir, tmp_path, command):
    """Every report carries --seed, written by main alone: a handler's own
    report has no seed, except verify properties, which draws from it."""
    (tmp_path / "d5.json").write_text(json.dumps(group_to_json(builders.dihedral(5))))
    argv = ["--seed", "7", "--cache-dir", str(cache_dir),
            *(word.format(dir=tmp_path) for word in command)]
    args = _build_parser().parse_args(argv)
    report, _ = args.handler(args)
    assert report.get("seed") == (7 if command[:2] == ("verify", "properties") else None)
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0 and payload["seed"] == 7


def test_jobs_do_not_change_reports(capsys, cache_dir):
    args = ["--cache-dir", str(cache_dir), "--seed", "2", "verify", "properties",
            "--order-cap", "8", "--samples", "6"]
    code1, payload1, _ = run_json(capsys, "--jobs", "1", *args)
    code4, payload4, _ = run_json(capsys, "--jobs", "4", *args)
    assert code1 == code4 == 0
    assert strip_elapsed(payload1) == strip_elapsed(payload4)


def test_properties_stats_do_not_depend_on_jobs(capsys, cache_dir):
    args = ["--cache-dir", str(cache_dir), "--seed", "3", "verify", "properties",
            "--order-cap", "10", "--samples", "12", "--sample-max", "48"]
    payloads = [run_json(capsys, "--jobs", jobs, *args)[1] for jobs in ("1", "4")]
    stats = [p["stats"] for p in payloads]
    assert stats[0] == stats[1]
    assert stats[0]["trace_solves"] > 0
    scope = payloads[0]["scope"]
    assert 0 < stats[0]["checked_pairs"] < scope["exhaustive_pairs"] + scope["sampled_pairs"]
    assert set(stats[0]) == {"trace_solves", "checked_pairs"}


@pytest.mark.parametrize("args", [("classification", "--order-cap", "12"),
                                  ("solvable-boundary", "--order-cap", "8")])
def test_aut_stats_do_not_depend_on_jobs(capsys, cache_dir, args):
    """The blocks sum ``cube max``'s counters over the rows, and each
    row's group, order, max_ratio and aut_order are ``cube max``'s."""
    argv = ["--cache-dir", str(cache_dir), "verify", *args]
    got = [run_json(capsys, "--jobs", jobs, *argv)[1] for jobs in ("1", "4")]
    assert got[0]["stats"] == got[1]["stats"]
    maxes = [run_json(capsys, "--cache-dir", str(cache_dir), "cube", "max",
                      row["group"])[1] for row in got[0]["rows"]]
    per_row = [m["stats"] for m in maxes]
    assert got[0]["stats"] == {key: sum(s[key] for s in per_row) for key in per_row[0]}
    keys = ("group", "order", "max_ratio", "aut_order")
    for payload in got:
        assert [{k: r[k] for k in keys} for r in payload["rows"]] \
            == [{k: m[k] for k in keys} for m in maxes]


@pytest.mark.parametrize("args, stats", [
    (("sfs", "table"), {"nodes": 35, "exact": True}),
    (("sfs", "tau-range", "18", "30"), {"nodes": 511, "exact": True}),
    (("--budget", "50", "sfs", "tau-range", "18", "30"), {"nodes": 403, "exact": False}),
])
def test_sfs_stats_do_not_depend_on_jobs(capsys, args, stats):
    """Nodes summed over the rows' searches; exact only if every row is."""
    got = [run_json(capsys, "--jobs", jobs, *args)[1]["stats"] for jobs in ("1", "4")]
    assert got == [stats, stats]


@pytest.mark.parametrize("budget, stats", [
    ((), {"nodes": 15, "exact": True}),
    (("--budget", "5"), {"nodes": 10, "exact": False}),
])
def test_abelian_index_stats_sum_the_rows(capsys, budget, stats):
    """As in ``sfs tau-range``: nodes summed over the rows, exact only if
    every row is, at any --jobs."""
    got = [run_json(capsys, "--jobs", jobs, *budget, "verify", "abelian-index",
                    "--max-q", "7")[1] for jobs in ("1", "4")]
    rows = got[0]["rows"]
    assert got[0]["stats"] == got[1]["stats"] == stats
    assert stats == {"nodes": sum(row["nodes"] for row in rows),
                     "exact": all(row["exact"] for row in rows)}


def test_no_subcommand_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out.lower()
