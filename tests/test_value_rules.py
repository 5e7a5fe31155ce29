"""The number rules have one owner each: `data.check_int` and `data.check_real`.

Outside `data.py`, no module of the package calls `math.isfinite` or tests
`isinstance(..., bool)`: a setting or model-file value that must be a number
goes through the owner, which refuses nan, an infinity and a bool. The one
exception is named in ALLOWED: `cli._replay_flags` tells a manifest's switch
(a bool) from its other values.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sparsefront"
OWNER = "data.py"
ALLOWED = {("cli.py", "_replay_flags")}  # (module, function) that may hold a hand check


def _is_hand_check(call):
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "isfinite":
        return isinstance(func.value, ast.Name) and func.value.id == "math"
    if isinstance(func, ast.Name) and func.id == "isinstance" and len(call.args) == 2:
        types = call.args[1]
        names = types.elts if isinstance(types, ast.Tuple) else [types]
        return any(isinstance(n, ast.Name) and n.id == "bool" for n in names)
    return False


def hand_checks(tree):
    """(function, line) of each `math.isfinite` call and `isinstance(..., bool)` test in tree."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _is_hand_check(child):
                found.append((function, child.lineno))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, None)
    return found


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != OWNER)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_written_number_check(path):
    checks = hand_checks(ast.parse(path.read_text()))
    stray = [(function, line) for function, line in checks
             if (path.name, function) not in ALLOWED]
    assert not stray, f"{path.name}: use data.check_int or data.check_real at {stray}"


@pytest.mark.parametrize("module,function", sorted(ALLOWED))
def test_each_exception_is_still_needed(module, function):
    checks = hand_checks(ast.parse((SRC / module).read_text()))
    assert function in {f for f, _ in checks}, f"drop {module}:{function} from ALLOWED"


def test_the_guard_sees_each_form():
    source = ("import math\n"
              "def f(x):\n"
              "    return math.isfinite(x) and not isinstance(x, bool)\n"
              "def g(x):\n"
              "    return isinstance(x, (int, bool)) or isinstance(x, int)\n")
    assert hand_checks(ast.parse(source)) == [("f", 3), ("f", 3), ("g", 5)]
