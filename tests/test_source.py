import ast
import subprocess
import sys
from pathlib import Path

import cube_spectra

FILES = sorted(Path(cube_spectra.__file__).parent.glob("*.py"))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no check of the package may rest on one
    assert FILES
    found = [(f.name, node.lineno) for f in FILES
             for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _imports_and_perfbench_bindings():
    # per package module: its source lines, the names it uses, and each
    # name it imports with that alias's line number; with the (module,
    # name) pairs that perfbench wraps in a module's namespace (CROSS_CALLS)
    spans = ast.parse(SPANS.read_text(encoding="utf-8"))
    cross = next(ast.literal_eval(node.value) for node in spans.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["CROSS_CALLS"])
    modules = {}
    for f in FILES:
        text = f.read_text(encoding="utf-8")
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = [(a.asname or a.name.split(".")[0], a.lineno) for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names]
        modules[f.stem] = (text.splitlines(), used, imported)
    return modules, {(module, name) for module, name, _ in cross}


def test_every_imported_name_is_used():
    # catches an import left behind by a deletion.  A name that perfbench
    # wraps in a module's namespace (its CROSS_CALLS) may be imported unused.
    modules, allowed = _imports_and_perfbench_bindings()
    unused = [(stem, name) for stem, (_, used, imported) in modules.items()
              if stem != "__init__" for name, _ in imported
              if name not in used and (stem, name) not in allowed]
    assert unused == []


def test_the_package_imports_only_itself_numpy_and_the_standard_library():
    # pytest puts tests/ on sys.path, so a package import of oracles or
    # conftest would pass the suite and break the installed CLI
    foreign = []
    for f in FILES:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            foreign += [(f.stem, name) for name in names
                        if name.split(".")[0] not in {"numpy", *sys.stdlib_module_names}]
    assert foreign == []


def test_the_all_linear_sweep_leaves_numpy_random_unloaded():
    # loading numpy.random costs about 6 MB of resident memory: drawing the
    # sweep's hash multipliers from it once took the benchmark's all-linear
    # peak RSS from 39.2 to 45.6 MB.  A child process starts with a clean
    # sys.modules
    code = (
        "import sys; from cube_spectra import exhaustive_verify; "
        "exhaustive_verify(7, 'all-linear'); print('numpy.random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "False\n"


def test_the_unused_import_markers_are_exactly_the_perfbench_bindings():
    # an import marked "noqa: F401" stays only so that perfbench can wrap
    # the name in that module's namespace: the marked names must be the
    # CROSS_CALLS names a module imports and does not use, so a stale mark
    # and a missing one both fail here
    modules, bound = _imports_and_perfbench_bindings()
    marked = {(stem, name) for stem, (lines, _, imported) in modules.items()
              for name, lineno in imported if "# noqa: F401" in lines[lineno - 1]}
    expected = {(stem, name) for stem, (_, used, imported) in modules.items()
                for name, _ in imported if (stem, name) in bound and name not in used}
    assert marked == expected


def test_the_bound_and_single_check_paths_leave_numpy_random_unloaded(tmp_path):
    # the 6 MB of numpy.random, kept off the bound queries, the single-code
    # checks and every CLI command but random-general verification, which
    # draws its codes from it.  Each CLI call must exit 0, so that no path
    # passes by stopping early
    path = tmp_path / "code.txt"
    path.write_text("0000\n0111\n1011\n1100\n", encoding="utf-8")
    code = (
        "import contextlib, io, json, sys\n"
        "from cube_spectra import Code, check_covering, check_prop_ineq, cli, finite_code_bound\n"
        "finite_code_bound(1000, 100)\n"
        "c = Code(5, (0, 0b00111, 0b11001, 0b11110))\n"
        "check_prop_ineq(c, ball_r=1)\n"
        "check_covering(c, r=2)\n"
        f"p = {str(path)!r}\n"
        "rcs = []\n"
        "for argv in (['bound', '--n', '1000', '--d', '100'],\n"
        "             ['lambda', '--n', '6', '--r', '2', '--bruteforce'],\n"
        "             ['verify', '--code', p, '--r', '1'], ['cover', '--code', p, '--r', '1'],\n"
        "             ['wht', '--code', p]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rcs.append(cli.main(argv))\n"
        "print(json.dumps([rcs, 'numpy.random' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "[[0, 0, 0, 0, 0], false]\n"
