"""Package structure: each module uses only the public names of the others, and
the package exports exactly the names its ``__init__`` imports."""

import ast
from pathlib import Path
from types import ModuleType

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


def test_public_names_are_the_ones_init_imports():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    assert len(imported) == len(set(imported)) > 20
    assert qsysid.__all__ == sorted(imported)
    # each public name is written once: no string in the file repeats one
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert strings.isdisjoint(imported)


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from qsysid import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == qsysid.__all__
    assert not [k for k, v in namespace.items() if isinstance(v, ModuleType)]
