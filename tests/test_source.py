"""Source-level rules for the package."""

import ast
import functools
import importlib.util
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import cubeaut
from cubeaut import automorphisms, cli, cubing, groups, verifier
from cubeaut.automorphisms import AutomorphismGroup
from cubeaut.catalog import Catalog
from cubeaut.groups import FiniteGroup

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cubeaut").glob("*.py"))
TRACING = ROOT / "perfbench" / "tracing.py"
TEST_GROUPS = ROOT / "tests" / "test_groups.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_asserts(path):
    """Re-checks raise InternalCheckFailed: a bare assert vanishes under python -O."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every name a module imports at module level is read somewhere in
    it: an import left behind by deleted code fails here. __init__.py,
    whose imports are the package's exports, is checked by
    test_package_exports_match_imports instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0]: node.lineno
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name: node.lineno for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_package_exports_match_imports():
    """cubeaut.__all__ lists each public name the package's __init__
    binds, once, and nothing else: a deleted function cannot stay
    exported, nor an imported one go unexported. Submodules, bound as
    attributes by their import, are not exports."""
    exported = cubeaut.__all__
    bound = {name for name, value in vars(cubeaut).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    duplicates = sorted({name for name in exported if exported.count(name) > 1})
    assert not duplicates, f"exported twice: {duplicates}"
    assert set(exported) == bound, (f"bound, not exported: {sorted(bound - set(exported))}; "
                                    f"exported, not bound: {sorted(set(exported) - bound)}")


# Exports that no module of src/cubeaut/ calls, each with the README
# phrase naming the capability that keeps it public.
EXPORTS_WITHOUT_A_CALLER = {
    "compose": "Inner, induced, restricted, composed and inverted maps",
    "inner_automorphism": "Inner, induced, restricted, composed and inverted maps",
    "restrict": "Inner, induced, restricted, composed and inverted maps",
    "is_n_abelian": "power maps and n-abelian tests",
    "coset_trace": "cyclic coset traces in H/C_H(x)",
    "canonical_form": "canonical representatives under unit multiplication",
    "check_property": "`check_property(group, alpha, check)`",
    "check_quotient_inequality": "`check_quotient_inequality(group, alpha, normal)`",
}


def test_every_export_has_a_caller():
    """Each name in cubeaut.__all__ is read, bare or as an attribute, by
    a module of src/cubeaut/ other than __init__.py, or it is a key of
    EXPORTS_WITHOUT_A_CALLER whose README phrase is still in README.md.
    So an export whose last caller goes must go too or be given its
    capability, and an entry whose name gains a caller must be dropped."""
    read = set()
    for path in SOURCES:
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
                read |= {getattr(node, "id", None), getattr(node, "attr", None)}
    uncalled = set(cubeaut.__all__) - read
    listed = set(EXPORTS_WITHOUT_A_CALLER)
    assert uncalled <= listed, f"exports nothing calls, not listed: {sorted(uncalled - listed)}"
    assert listed <= uncalled, f"listed, but called or not exported: {sorted(listed - uncalled)}"
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    missing = sorted(name for name, phrase in EXPORTS_WITHOUT_A_CALLER.items()
                     if phrase not in readme)
    assert not missing, f"README.md no longer names the capability of {missing}"


def test_aut_group_accessors_have_a_reader():
    """Each public method or property of AutomorphismGroup is read as an
    attribute by a module of src/cubeaut/, or README.md names it in code
    (`members`, `AutomorphismGroup.members`, `images_at(indices)`). So an
    accessor that only tests read, a second way to build members beside
    images_at for one, cannot grow back unnoticed."""
    public = sorted(name for name, value in vars(AutomorphismGroup).items()
                    if not name.startswith("_") and isinstance(
                        value, (types.FunctionType, property, functools.cached_property)))
    read = {node.attr for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            if isinstance(node, ast.Attribute)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unread = [name for name in public
              if name not in read and not re.search(rf"`[\w.]*\b{name}\b", readme)]
    assert "images_at" in public and "members" in public
    assert not unread, f"AutomorphismGroup members no module reads or README names: {unread}"


def test_stdlib_only():
    """pyproject.toml declares no dependencies, so every import in the
    package is relative or from the standard library."""
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"imports from outside the standard library: {outside}"


def test_traced_methods_exist():
    """Every method the traced benchmark wraps by name is defined on its
    class: the query tuples of perfbench/tracing.py, and each
    ``_wrap_method`` call there that names its attribute literally."""
    tracing = _load(TRACING, "perfbench_tracing")
    classes = {"FiniteGroup": FiniteGroup, "Catalog": Catalog}
    wrapped = [("FiniteGroup", attr) for attr in tracing.STRUCTURAL + tracing.TABLE_QUERIES]
    for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_wrap_method"
                and isinstance(node.args[2], ast.Constant)):
            wrapped.append((node.args[1].id, node.args[2].value))
    assert ("FiniteGroup", "__init__") in wrapped and ("Catalog", "build") in wrapped
    missing = [f"{cls}.{attr}" for cls, attr in wrapped if attr not in vars(classes[cls])]
    assert not missing, f"perfbench/tracing.py wraps undefined methods: {missing}"


def test_traced_queries_are_wrappable():
    """Every FiniteGroup query the traced benchmark wraps is a
    functools.cached_property or a plain function: the two kinds
    ``_wrap_method`` in perfbench/tracing.py re-wraps. It wraps anything
    else, a property for one, as a callable, so a traced run fails where
    the untraced run and the other tests pass."""
    tracing = _load(TRACING, "perfbench_tracing")
    kinds = {attr: vars(FiniteGroup).get(attr)
             for attr in tracing.STRUCTURAL + tracing.TABLE_QUERIES}
    odd = [f"{attr}: {type(value).__name__}" for attr, value in kinds.items()
           if not isinstance(value, (functools.cached_property, types.FunctionType))]
    assert not odd, f"FiniteGroup queries perfbench/tracing.py cannot wrap: {odd}"


def test_no_process_wide_caches():
    """No functools.lru_cache or functools.cache in the package. Caches
    live on the object whose data they hold (a cached_property, a dict on
    a scan's GroupContext), so memory is freed with a scan's groups, and
    a --jobs worker's report cannot depend on the tasks it ran before."""
    banned = {"lru_cache", "cache"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names if alias.name in banned]
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and getattr(node.value, "id", None) == "functools"):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} functools.{name}" for name in names]
    assert not found, f"process-wide caches: {found}"


def test_failures_recorded_only_through_record():
    """In verifier.py a failure enters a report only through _record,
    which re-validates it first: no other code calls
    ``<expr>.failures.append``."""
    tree = ast.parse((ROOT / "src" / "cubeaut" / "verifier.py").read_text(encoding="utf-8"))

    def appends(node):
        return {n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "append" and isinstance(n.func.value, ast.Attribute)
                and n.func.value.attr == "failures"}

    inside = set().union(*(appends(node) for node in ast.walk(tree)
                           if isinstance(node, ast.FunctionDef) and node.name == "_record"))
    outside = sorted(appends(tree) - inside)
    assert inside, "_record no longer appends a failure"
    assert not outside, f"failures appended outside _record at lines {outside}"


def test_max_ratio_computed_only_by_ratio_row():
    """In cli.py and verifier.py only ``verifier.ratio_row`` calls
    max_cube_ratio: ``cube max`` and both theorem suites report its row,
    so a second copy of the row, or a route to the maximum added beside
    it, cannot grow back unnoticed."""
    def calls(node):
        return {(path.name, n.lineno) for n in ast.walk(node)
                if isinstance(n, ast.Call) and "max_cube_ratio" in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None))}

    found, inside = set(), set()
    for path in (ROOT / "src" / "cubeaut" / "cli.py", ROOT / "src" / "cubeaut" / "verifier.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= calls(tree)
        inside = inside.union(*(calls(node) for node in ast.walk(tree)
                                if isinstance(node, ast.FunctionDef) and node.name == "ratio_row"))
    assert len(inside) == 1, f"ratio_row calls max_cube_ratio at {sorted(inside)}"
    assert found == inside, f"max_cube_ratio called outside ratio_row at {sorted(found - inside)}"


def test_closure_only_in_the_enumerator():
    """In src/cubeaut/ only ``enumerate_automorphisms`` calls _close, and
    ``_load_cache`` never calls ``enumerate_automorphisms``. A cache load
    proves all its representatives in one batched pass, so a
    per-representative closure cannot grow back in the loader, and a
    load that enumerates would be counted as a hit by
    perfbench/tracing.py, which takes an ``automorphism_group`` span with
    no ``enumerate_automorphisms`` child for one."""
    def calls(node, name):
        return {n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Call) and name in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None))}

    found, inside, loader = set(), set(), None
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {(path.name, line) for line in calls(tree, "_close")}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "enumerate_automorphisms":
                inside |= {(path.name, line) for line in calls(node, "_close")}
            elif isinstance(node, ast.FunctionDef) and node.name == "_load_cache":
                loader = node
    assert inside, "enumerate_automorphisms no longer calls _close"
    assert found == inside, f"_close called outside enumerate_automorphisms at {sorted(found - inside)}"
    assert loader is not None, "_load_cache is gone"
    assert not calls(loader, "enumerate_automorphisms"), "_load_cache enumerates"


def test_conjugation_arrays_only_where_members_are_built():
    """In src/cubeaut/ only ``AutomorphismGroup.images_at`` and
    ``inner_automorphism`` call _conjugation, the n-entry array of
    x -> t^-1 x t. The class structures key a member by the k lookups
    t^-1 b(g) t and take each class's map from ``images_at``, so an
    array per transversal element cannot grow back in them unnoticed."""
    def calls(node):
        return {n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Call) and "_conjugation" in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None))}

    found, inside = set(), {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {(path.name, line) for line in calls(tree)}
        owners = [(None, node) for node in tree.body]
        owners += [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body]
        for owner, node in owners:
            if isinstance(node, ast.FunctionDef):
                name = node.name if owner is None else f"{owner}.{node.name}"
                if name in ("AutomorphismGroup.images_at", "inner_automorphism"):
                    inside[name] = {(path.name, line) for line in calls(node)}
    assert all(inside.get(name) for name in ("AutomorphismGroup.images_at",
                                             "inner_automorphism")), inside
    allowed = set().union(*inside.values())
    assert found == allowed, f"_conjugation called at {sorted(found - allowed)}"


def test_init_skipped_only_by_the_build_walk():
    """In src/cubeaut/ only ``groups._from_generator_rows`` makes a
    FiniteGroup without ``FiniteGroup.__init__`` (by ``__new__``): its
    walk builds the table as it proves it. So every table given whole, a
    file's, a caller's, a quotient's or a subgroup's, still goes through
    ``_validate_table``."""
    def news(node):
        return {n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr == "__new__"}

    found, inside = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {(path.name, line) for line in news(tree)}
        inside = inside.union(*({(path.name, line) for line in news(node)}
                                for node in ast.walk(tree)
                                if isinstance(node, ast.FunctionDef)
                                and node.name == "_from_generator_rows"))
    assert inside, "_from_generator_rows no longer makes its group by __new__"
    assert found == inside, f"FiniteGroup.__new__ outside the build walk at {sorted(found - inside)}"


def test_build_walk_refuses_as_an_internal_error():
    """``groups._light_walk`` and ``groups._from_generator_rows`` construct
    no GroupTableError: every builder hands over the rows of a group, so
    a refused build walk is a bug and raises InternalCheckFailed. And the
    per-pair witness search ``_first_light_failure`` stays deleted, so a
    refusal cannot grow back a second walk over every pair."""
    from cubeaut import errors

    table_errors = {name for name, value in vars(errors).items()
                    if isinstance(value, type) and issubclass(value, errors.GroupTableError)}
    tree = ast.parse(Path(groups.__file__).read_text(encoding="utf-8"))
    walk = {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name in ("_light_walk", "_from_generator_rows")}
    assert sorted(walk) == ["_from_generator_rows", "_light_walk"]
    for name, node in walk.items():
        called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                  for n in ast.walk(node) if isinstance(n, ast.Call)}
        made = sorted(called & table_errors)
        assert not made, f"{name} constructs {made}"
    assert not hasattr(groups, "_first_light_failure")


def test_builders_run_no_whole_table_proof(monkeypatch):
    """Building the six groups-cold groups (A6, S6, L2(11), L2(13),
    T3i(2), T3ii) runs neither ``_validate_table`` nor the whole-table
    type pass ``_is_square_of_ints``, while a table given whole, to
    FiniteGroup, from_cayley_table, a quotient or a subgroup, runs both
    once."""
    from cubeaut import catalog

    calls = {"_validate_table": 0, "_is_square_of_ints": 0}
    for attr in calls:
        original = getattr(groups, attr)

        def counting(*args, attr=attr, original=original):
            calls[attr] += 1
            return original(*args)
        monkeypatch.setattr(groups, attr, counting)
    built = [catalog.build_named_group(name)
             for name in ("A6", "S6", "L2(11)", "L2(13)", "T3i(2)", "T3ii")]
    assert [g.order for g in built] == [360, 720, 660, 1092, 32, 64]
    assert calls == {"_validate_table": 0, "_is_square_of_ints": 0}
    t3i = built[4]
    whole = [lambda: FiniteGroup(t3i.table), lambda: groups.from_cayley_table(t3i.table),
             lambda: t3i.quotient(t3i.center), lambda: t3i.center.as_group()]
    for k, make in enumerate(whole, start=1):
        make()
        assert calls == {"_validate_table": k, "_is_square_of_ints": k}


def test_package_reads_no_environment():
    """What the package does depends on its arguments only: no
    os.environ or os.getenv (a cache directory, for one, is named by
    the caller)."""
    banned = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names if alias.name in banned]
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and getattr(node.value, "id", None) == "os"):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} os.{name}" for name in names]
    assert not found, f"environment reads: {found}"


def test_benchmark_calls_still_bind(tmp_path):
    """The calls perfbench/workloads.py makes: every call of a package
    function that passes a keyword (automorphism_group(group,
    cache_dir=...), max_free_subset(instance, collect_sets=...),
    max_cube_ratio(g, auts=...), ...) binds to its signature, and every
    CLI_COMMANDS entry parses behind --cache-dir. So an option the
    benchmark uses cannot be removed while tier-1 passes."""
    workloads = _load(WORKLOADS, "perfbench_workloads")
    modules = {name: getattr(workloads, name) for name in
               ("automorphisms", "catalog", "cli", "cubing", "groups", "sfs")}
    bound = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        root = node.func if isinstance(node, ast.Call) and node.keywords else None
        while isinstance(root, (ast.Attribute, ast.Call)):
            root = root.value if isinstance(root, ast.Attribute) else root.func
        if getattr(root, "id", None) not in modules:
            continue
        function = eval(compile(ast.Expression(node.func), str(WORKLOADS), "eval"), modules)
        inspect.signature(function).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        bound.add(ast.unparse(node.func))
    assert {"automorphisms.automorphism_group", "sfs.max_free_subset",
            "cubing.max_cube_ratio", "catalog.built_in_catalog().groups"} <= bound, bound
    parser = cli._build_parser()
    for command in workloads.CLI_COMMANDS:
        args = parser.parse_args(["--format", "json", "--jobs", "1", "--seed", "101",
                                  "--cache-dir", str(tmp_path), *command])
        assert args.cache_dir == str(tmp_path) and hasattr(args, "handler"), command


def test_every_subgroup_parameter_has_a_foreign_subgroup_case():
    """Each public function or method of groups, cubing, automorphisms
    and verifier with a parameter annotated Subgroup has an entry in
    FOREIGN_SUBGROUP_CALLS of tests/test_groups.py, which checks that a
    subgroup of another group is refused. So a new call that takes a
    Subgroup cannot skip the parent check untested."""
    taking = set()
    for module in (groups, cubing, automorphisms, verifier):
        prefix = module.__name__.rpartition(".")[2]
        found = [(name, obj) for name, obj in vars(module).items()
                 if getattr(obj, "__module__", None) == module.__name__]
        found += [(f"{cls_name}.{name}", obj) for cls_name, cls in found
                  if inspect.isclass(cls) for name, obj in vars(cls).items()]
        taking |= {f"{prefix}.{name}" for name, obj in found
                   if inspect.isfunction(obj) and not any(part.startswith("_")
                                                          for part in name.split("."))
                   and any(re.search(r"\bSubgroup\b", str(p.annotation))
                           for p in inspect.signature(obj).parameters.values())}
    cases = next(node.value for node in ast.parse(TEST_GROUPS.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "FOREIGN_SUBGROUP_CALLS")
    covered = {key.value for key in cases.keys}
    assert "groups.FiniteGroup.centralizer" in taking and "cubing.coset_trace" in taking
    assert taking <= covered, f"no foreign-subgroup case for {sorted(taking - covered)}"
