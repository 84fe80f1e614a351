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


def test_every_imported_name_is_used():
    # catches an import left behind by a deletion.  A name that perfbench
    # wraps in a module's namespace (its CROSS_CALLS) may be imported unused.
    spans = ast.parse(SPANS.read_text(encoding="utf-8"))
    cross = next(ast.literal_eval(node.value) for node in spans.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["CROSS_CALLS"])
    allowed = {(module, name) for module, name, _ in cross}
    unused = []
    for f in FILES:
        if f.stem == "__init__":
            continue
        tree = ast.parse(f.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(f.stem, name) for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in (a.asname or a.name.split(".")[0] for a in node.names)
                   if name not in used and (f.stem, name) not in allowed]
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
