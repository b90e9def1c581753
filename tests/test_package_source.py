"""Source-level rules for the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isoprod"


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


def _modules_imported(args: list[str]) -> set[str]:
    """Every module a fresh interpreter imports while it runs ``python args``."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


@pytest.mark.parametrize(
    "args",
    [["-c", "import isoprod.cli"], ["-m", "isoprod", "cantor", "member", "1/4"]],
    ids=["import", "run"],
)
def test_cli_start_skips_heavy_stdlib_modules(args, monkeypatch):
    # dataclasses brings inspect (and ast, dis, tokenize) with it; hashlib is
    # needed only by a job that digests an input file
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import SPANS

    imported = _modules_imported(args)
    assert {"isoprod.cli", "fractions", "argparse"} <= imported
    assert {"dataclasses", "inspect", "hashlib"} & imported == set()
    # bench/tracer.py reads every module it wraps from sys.modules after `import isoprod.cli`
    assert {module for module, *_ in SPANS} <= imported
