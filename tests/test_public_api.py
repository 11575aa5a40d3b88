"""The public API is declared once, in each library module's ``__all__``; the package
re-exports those lists."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import randsuite
from randsuite import errors

PACKAGE = Path(randsuite.__file__).parent
# Every module except the package's own and the command line's, which
# ``import randsuite`` does not load.
LIBRARY = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem not in ("__init__", "cli"))


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _defined(name):
    """Names that module ``name`` binds at top level by def, class or assignment."""
    names = set()
    for node in _tree(name).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _declared(name):
    return importlib.import_module(f"randsuite.{name}").__all__


@pytest.mark.parametrize("name", LIBRARY)
def test_each_library_module_declares_what_it_defines(name):
    module = importlib.import_module(f"randsuite.{name}")
    assert isinstance(getattr(module, "__all__", None), list), f"{name} has no __all__"
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) <= _defined(name) - {"__all__"}


def test_no_name_is_declared_by_two_modules():
    owners = {}
    for name in LIBRARY:
        for public in _declared(name):
            owners.setdefault(public, []).append(name)
    assert {public: names for public, names in owners.items() if len(names) > 1} == {}


def test_package_star_imports_each_library_module_and_names_nothing():
    body = _tree("__init__").body
    imports = [node for node in body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.ImportFrom) and node.level == 1
               and [alias.name for alias in node.names] == ["*"] for node in imports)
    assert sorted(node.module for node in imports) == LIBRARY
    assert _defined("__init__") == {"__version__"}


def test_public_names_are_the_union_of_the_lists():
    public = {name for name, value in vars(randsuite).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {public for name in LIBRARY for public in _declared(name)}


@pytest.mark.parametrize("name", errors.__all__)
def test_each_error_is_its_message(name):
    assert str(getattr(errors, name)("m")) == "m"


def test_errors_are_raised_from_their_message_alone():
    """A loader re-raises ``type(exc)(f"<file>: {exc}")``, which keeps nothing but the message."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)
                    and node.exc.func.id in errors.__all__
                    and (node.exc.keywords or len(node.exc.args) > 1)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []



def _renaming_raises(name):
    """The top-level definition around each ``raise type(exc)(...)`` in module ``name``."""
    return [top.name for top in _tree(name).body for node in ast.walk(top)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and ast.unparse(node.exc.func).startswith("type(")]


def test_one_function_names_the_bad_input():
    """``bitseq._built`` alone re-raises an error prefixed with its input's name, and
    ``run_suite`` with its ``sample <i>:`` prefix; no loader keeps a rule of its own."""
    sites = {name: _renaming_raises(name) for name in LIBRARY + ["cli"]}
    assert {name: tops for name, tops in sites.items() if tops} == {
        "bitseq": ["_built"], "suite": ["run_suite"]}
    handlers = [ast.unparse(node.type) for node in ast.walk(_tree("sim"))
                if isinstance(node, ast.ExceptHandler)]
    assert handlers == ["OverflowError"]
