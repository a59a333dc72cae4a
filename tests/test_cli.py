import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubeaut
from cubeaut import builders, sfs
from cubeaut.cli import main
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
    stats = [run_json(capsys, "--jobs", jobs, *args)[1]["stats"] for jobs in ("1", "4")]
    assert stats[0] == stats[1]
    assert stats[0]["trace_solves"] > 0
    assert set(stats[0]) == {"trace_solves"}


def test_no_subcommand_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out.lower()
