"""Every module-level import of a padlab module is read by that module, so an
import left behind when its last use is deleted fails here, by name."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "padlab"


def unread_imports(source: str) -> list[str]:
    """The names bound by source's module-level imports that no Name node reads."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_named():
    source = "import json.encoder\nfrom .padic_core import factorize, roots_of_unity as mu\n\nfactorize(json.dumps(6))\n"
    assert unread_imports(source) == ["mu"]
