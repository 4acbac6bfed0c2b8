import ast
from pathlib import Path

import ehrmat


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so every invariant of the
    # library must raise explicitly to survive it
    found = []
    for path in sorted(Path(ehrmat.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
