"""The library's surface answers to the program, not to a unit test.

Every defaulted parameter is one that some caller sets: a default that no
call in ``src``, ``perfbench`` or the acceptance contract
(``tests/test_acceptance.py``) overrides is a constant that reads as an
option, whatever a unit test sets.  A call sets a parameter when it passes
it by keyword, or by position, to a function of the parameter's function's
name; a ``*args`` or ``**kwargs`` argument sets every parameter it could
reach.  A method's positions count after ``self``, and a class call reaches
its ``__init__``.

The package top level re-exports exactly the names that some caller takes
from it.
"""

import ast
import pkgutil
from pathlib import Path
from types import ModuleType

import tubegeom

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "tubegeom"
CALLERS = (ROOT / "src", ROOT / "perfbench", ROOT / "tests" / "test_acceptance.py")


def _trees(*roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defaulted(tree):
    """(called name, parameter, positional index or None, first positional
    index a caller fills) for each defaulted parameter defined in ``tree``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                name = owner.name if method and child.name == "__init__" else child.name
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    found.append((name, positional[index].arg, index, int(method)))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((name, arg.arg, None, int(method)))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def _called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _sets(call, param, index, offset):
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if index is None:
        return False
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return position + offset <= index
        if position + offset == index:
            return True
    return False


def unset_defaults():
    """'module:function(parameter)' of every defaulted library parameter no
    call sets."""
    calls = {}
    for _, tree in _trees(*CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node):
                calls.setdefault(_called_name(node), []).append(node)
    unset = []
    for path, tree in _trees(LIBRARY):
        for name, param, index, offset in _defaulted(tree):
            if not any(_sets(c, param, index, offset) for c in calls.get(name, ())):
                unset.append(f"{path.stem}:{name}({param})")
    return unset


def reached_package_names():
    """Names that a ``from tubegeom import X`` or a ``tubegeom.X`` in
    ``src``, ``perfbench`` or ``tests`` takes from the package top level,
    submodules and dunder attributes aside."""
    modules = {m.name for m in pkgutil.iter_modules([str(LIBRARY)])}
    names = set()
    for _, tree in _trees(ROOT / "src", ROOT / "perfbench", ROOT / "tests"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "tubegeom" \
                    and node.level == 0:
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "tubegeom":
                names.add(node.attr)
    return sorted(n for n in names - modules if not n.startswith("__"))


def test_the_package_reexports_exactly_the_names_its_callers_take():
    reached = reached_package_names()
    assert sorted(tubegeom.__all__) == reached
    public = [n for n, value in vars(tubegeom).items()
              if not n.startswith("_") and not isinstance(value, ModuleType)]
    assert sorted(public) == reached


def test_every_defaulted_library_parameter_is_set_by_some_call():
    assert unset_defaults() == []


def test_the_scan_sees_a_parameter_set_by_keyword_position_or_star():
    source = ast.parse(
        "def f(a, b=1, *, c=2):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0):\n        pass\n")
    defaults = _defaulted(source)
    assert defaults == [("f", "b", 1, 0), ("f", "c", None, 0),
                        ("K", "x", 1, 1), ("m", "y", 1, 1)]
    call = lambda text: ast.parse(text).body[0].value
    assert _sets(call("f(0, 5)"), "b", 1, 0)
    assert not _sets(call("f(0)"), "b", 1, 0)
    assert _sets(call("f(0, c=3)"), "c", None, 0)
    assert not _sets(call("f(0, 5)"), "c", None, 0)
    assert _sets(call("f(*xs)"), "b", 1, 0)
    assert _sets(call("f(**kw)"), "c", None, 0)
    assert _sets(call("K(4)"), "x", 1, 1)
    assert _sets(call("k.m(4)"), "y", 1, 1)
    assert not _sets(call("k.m()"), "y", 1, 1)
