"""Source-level rules for the package itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isoprod"


def test_package_has_no_assert_statements():
    # postconditions raise explicitly, so they still run under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert found == []


def _self_calls(tree: ast.AST, path: Path) -> list[str]:
    """Qualified names of the functions whose bodies call the function itself."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    target = call.func
                    if isinstance(target, ast.Name) and target.id == child.name:
                        found.append(name)
                    elif (
                        isinstance(target, ast.Attribute)
                        and target.attr == child.name
                        and isinstance(target.value, ast.Name)
                        and target.value.id in ("self", "cls")
                    ):
                        found.append(name)
            visit(child, name)

    visit(tree, path.stem)
    return found


def test_package_has_no_recursion():
    # no accepted input may reach the interpreter's recursion limit
    found = [
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _self_calls(ast.parse(path.read_text(encoding="utf-8")), path)
    ]
    assert _self_calls(ast.parse("def f(n):\n    return f(n - 1)\n"), Path("m.py")) == ["m.f"]
    assert found == []
