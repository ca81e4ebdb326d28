"""Package layout rule: a `_`-prefixed name is private to its module, so no
module of the package imports one from another. Tests may reach into
privates; they are not scanned."""

import ast
from pathlib import Path

import sspilab

PACKAGE = Path(sspilab.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("sspilab"):
            continue  # a third-party or standard-library import
        source = "." * node.level + (node.module or "")
        found += [f"{path.name}:{node.lineno} imports {alias.name} from {source}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in _private_imports(path)] == []
