"""Import hygiene of the package: no module imports a name it does not use,
and the public ``__all__`` lists each name once, every one of them real.

Parses each ``src/softlev/*.py`` with ``ast``; the whole file costs well
under 0.1 s.
"""

import ast
from pathlib import Path

import pytest

import softlev

_MODULES = sorted(Path(softlev.__file__).parent.glob("*.py"))


def _imports(tree):
    """(bound name, line) of every import in the module, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _all(tree):
    """The module's ``__all__`` list, or empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(_all(tree))
    unused = [(name, line) for name, line in _imports(tree) if name not in used and name not in exported]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_public_names_are_listed_once_and_resolve():
    names = softlev.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(softlev, n)] == []
