"""Import hygiene of the package: no module imports a name it does not use,
the public ``__all__`` lists each name once, every one of them real, and
every exception class in ``errors`` is named by another module.  Also the
family rule: only ``model.py``, the family table, compares against a family;
the sampling rule: only ``distributions.py``, whose ``_inverse_cdf``
every sampler shares, calls ``searchsorted``; and the instance rules:
``harness.py`` calls no ``derive_seeds``, ``Stream``, ``generators``,
``integers`` or ``random``, only ``gaussian_instance`` calls
``standard_normal``, only ``_grouped`` fills counter rows, and only
``rng``'s counter fill builds a Philox at a counter.

Parses each ``src/softlev/*.py`` with ``ast``, well under 0.1 s.  The
start-up guard and the sweep guard each run one fresh interpreter, about
0.25 s each (2 cores, Python 3.11).
"""

import ast
import subprocess
import sys
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


def _family_comparisons(tree):
    """Line of every comparison with a ``.family`` attribute or the string
    'softmax' or 'leverage' in an operand."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for part in ast.walk(node):
                if (isinstance(part, ast.Attribute) and part.attr == "family") or (
                    isinstance(part, ast.Constant) and part.value in ("softmax", "leverage")
                ):
                    yield node.lineno
                    break


@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "model.py"], ids=lambda p: p.name)
def test_only_the_family_table_branches_on_the_family(path):
    # a family difference belongs in a method of model.py's family objects
    lines = list(_family_comparisons(ast.parse(path.read_text(encoding="utf-8"))))
    assert lines == [], f"{path.name} compares against a family at lines {lines}"


def _called_name(call):
    """The name of the function or method that ``call`` calls, if any."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _searchsorted_calls(tree):
    """Line of every call of a function or method named ``searchsorted``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) == "searchsorted":
            yield node.lineno


def _callers(node, name, where="<module>"):
    """The innermost function around each call of ``name`` under ``node``,
    by its name ('<module>' outside every function)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _called_name(child) == name:
            yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _callers(child, name, inner)


@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "distributions.py"], ids=lambda p: p.name)
def test_only_distributions_looks_outcomes_up_in_a_cdf(path):
    # an inverse-CDF lookup belongs in distributions._inverse_cdf, so that
    # every sampler draws the same outcome from the same uniform
    lines = list(_searchsorted_calls(ast.parse(path.read_text(encoding="utf-8"))))
    assert lines == [], f"{path.name} calls searchsorted at lines {lines}"


def _harness_tree():
    return ast.parse((Path(softlev.__file__).parent / "harness.py").read_text(encoding="utf-8"))


def test_only_grouped_fills_counter_rows():
    # a randomized family reads its instances through harness._grouped,
    # per shape group or per instance (_evaluated sits on it), and the
    # leverage envelope its attempts and accepted rows, so that none brings
    # back its own loop over blocks of rows
    assert sorted(set(_callers(_harness_tree(), "uniform_rows"))) == ["_grouped"]


def test_harness_keys_and_draws_no_stream_of_its_own():
    # Each verify instance (and each leverage-envelope attempt) is one
    # counter row of its family's key, and decodes its shape, fields and
    # branches from it: no per-instance seeds, re-keyed streams or draws.
    tree = _harness_tree()
    for name in ("derive_seeds", "Stream", "generators", "integers", "random"):
        assert list(_callers(tree, name)) == [], name


def test_only_gaussian_instance_draws_normals_in_the_harness():
    # verify instances take Box-Muller normals from their counter rows;
    # gaussian_instance draws a model spec, not a verify instance
    assert set(_callers(_harness_tree(), "standard_normal")) == {"gaussian_instance"}


def _philox_builds(node, where="<module>"):
    """(innermost function, whether it sets ``counter``) of each Philox
    construction under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _called_name(child) == "Philox":
            yield where, any(kw.arg == "counter" for kw in child.keywords)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _philox_builds(child, inner)


def test_only_the_counter_fill_builds_a_philox_at_a_counter():
    # generator and Stream key theirs at counter 0; an instance's row is
    # addressed through rng.uniform_rows alone
    builds = []
    for path in _MODULES:
        builds += [(path.name, *build) for build in _philox_builds(ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(builds) == [
        ("rng.py", "__init__", False),
        ("rng.py", "generator", False),
        ("rng.py", "uniform_rows", True),
    ]


def test_public_names_are_listed_once_and_resolve():
    names = softlev.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(softlev, n)] == []


def test_every_exception_class_is_raised_or_caught_somewhere():
    # A class in errors.py that no other module names is dead weight (or a
    # caller forgot it); the package's __init__ only re-exports.
    from softlev import errors

    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == errors.__name__
    }
    named = set()
    for path in _MODULES:
        if path.name not in ("errors.py", "__init__.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(classes - named) == []


def test_start_up_leaves_the_deferred_modules_unloaded():
    # What every CLI call pays before its first result: a fresh interpreter
    # imports the CLI, loads the specs and warms the kernels, as perfbench's
    # set-up does.  statistics costs that a few ms and concurrent.futures
    # (which loads logging) more; the package never imports the first, and
    # harness imports the second only when a sweep runs on threads.  Neither
    # scipy nor numba is a dependency.
    code = """
import sys
from softlev import _kernels, cli
from softlev.harness import load_model_spec
for name in ("demo-softmax", "demo-leverage"):
    load_model_spec(cli._resolve_spec_path(name))
_kernels.warmup()
print(sorted(m for m in ("scipy", "statistics", "concurrent.futures", "numba") if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_sweep_leaves_statistics_unloaded(tmp_path):
    # The m* search reads Phi^-1(2/3) as a literal, so a process that runs
    # a sweep never pays statistics' import (about 4 ms).
    code = f"""
import sys
from softlev import cli
assert cli.main(["sweep", "demo-softmax", "--trials", "20", "--out", {str(tmp_path / "s.csv")!r}]) == 0
print("statistics" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
