import ast
from pathlib import Path

import cube_spectra


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no check of the package may rest on one
    files = sorted(Path(cube_spectra.__file__).parent.glob("*.py"))
    assert files
    found = [(f.name, node.lineno) for f in files
             for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
