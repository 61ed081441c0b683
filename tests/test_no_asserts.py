import ast
from pathlib import Path

import triroute


def test_package_has_no_assert_statements():
    # python -O strips asserts; invariants must raise named exceptions
    paths = sorted(Path(triroute.__file__).resolve().parent.glob("*.py"))
    assert len(paths) > 10
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
