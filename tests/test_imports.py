"""Every import in ``src/subsketch`` is used by the module that makes it.

No linter ships with the project, so this is a small ``ast`` check: a name
an import binds must appear as a name somewhere in the module, or in its
``__all__``.  ``from __future__`` imports bind nothing and are skipped.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "subsketch")


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each imported name the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_module_has_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_check_finds_unused_imports_and_honours_all():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .trainer import Tape, bind_model, score_batch\n"
        "__all__ = ['score_batch']\n"
        "def f():\n"
        "    return np.zeros(bind_model)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: Tape"]
