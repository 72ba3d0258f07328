"""Package structure: each module uses only the public names of the others."""

import ast
from pathlib import Path

import qsysid

PACKAGE_DIR = Path(qsysid.__file__).resolve().parent


def test_no_module_imports_a_private_name():
    imports = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("qsysid")
            ):
                imports += [(path.name, node.module, alias.name) for alias in node.names]
    assert len(imports) > 20  # the check sees the package's own imports
    assert [entry for entry in imports if entry[2].startswith("_")] == []
