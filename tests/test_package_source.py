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


def test_package_names_load_their_module_on_first_access():
    from importlib import import_module

    import isoprod

    assert len(isoprod.__all__) == len(set(isoprod.__all__)) == 45
    for name in isoprod.__all__:
        assert getattr(isoprod, name) is getattr(import_module(f"isoprod.{isoprod._HOME[name]}"), name)
    assert isoprod.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        isoprod.nope


def test_installed_command_and_module_run_the_same_main():
    # `isoprod` and `python -m isoprod` both start from the light front end, not isoprod.cli
    tomllib = pytest.importorskip("tomllib")
    from importlib import import_module

    script = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]["isoprod"]
    module, _, name = script.partition(":")
    # __main__ exits on import, so read the module it takes main from out of its source
    (source,) = [
        f"isoprod.{node.module}"
        for node in ast.walk(ast.parse((PACKAGE / "__main__.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and "main" in {alias.name for alias in node.names}
    ]
    assert (module, name) == (source, "main") == ("isoprod.verbs", "main")
    assert getattr(import_module(module), name) is import_module("isoprod.cli").main


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
    "args, layers",
    [
        (["-c", "import isoprod.cli"], None),
        (["-m", "isoprod", "cantor", "member", "1/4"], {"verbs_cantor", "cantor"}),
        (["-m", "isoprod", "cantor", "decompose", "1/3"], {"verbs_cantor", "cantor"}),
        (["-m", "isoprod", "cantor", "refute-ce-triple", "--level", "2"], {"verbs_cantor", "cantor"}),
        (["-m", "isoprod", "universal", "search", "--ce-level", "2", "--a", "1/3", "--b", "1/3"],
         {"verbs_cantor", "cantor"}),
        (["-m", "isoprod", "embed", "--set", "SET"], {"verbs_cantor", "cantor", "fileio"}),
        (["-m", "isoprod", "check", "--function", "FUNCTION"], {"verbs_sampled", "fileio", "sampled", "continuation"}),
        (["-m", "isoprod", "witness-unbounded", "1/2"], {"verbs_metric", "metric", "combiners", "sampled"}),
    ],
    ids=["import", "run", "decompose", "refute-ce-triple", "search-ce-level", "embed", "check", "witness-unbounded"],
)
def test_cli_start_skips_heavy_stdlib_modules(args, layers, tmp_path, monkeypatch):
    # dataclasses brings inspect (and ast, dis, tokenize) with it; hashlib is
    # needed only by a job that digests an input file, and fileio only by a verb that reads one
    function = tmp_path / "f.json"  # isotone, so check reaches the cover table in continuation
    function.write_text('{"dim": 1, "entries": [{"point": ["0"], "value": "0"}, {"point": ["1"], "value": "1"}]}')
    values = tmp_path / "set.json"
    values.write_text('["0", "1/2", "2"]')
    imported = _modules_imported([{"FUNCTION": str(function), "SET": str(values)}.get(arg, arg) for arg in args])
    assert {"fractions", "argparse"} <= imported
    assert {"dataclasses", "inspect"} & imported == set()
    assert ("hashlib" in imported) == ("fileio" in (layers or ()))
    if layers is None:
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        from tracer import SPANS

        # bench/tracer.py reads every module it wraps from sys.modules after `import isoprod.cli`
        assert {"isoprod.cli", *(module for module, *_ in SPANS)} <= imported
    else:
        # without bytecode caches each start compiles every isoprod module it imports,
        # so a verb loads the front end and its own layers only
        own = {name for name in imported if name.startswith("isoprod.")}
        assert own == {f"isoprod.{name}" for name in {"verbs", "errors", "text", "points", *layers}}


def test_text_module_imports_no_layer():
    # a verb that reads no file parses its rationals and writes its report with this module alone
    imported = _modules_imported(["-c", "import isoprod.text"])
    assert {name for name in imported if name.startswith("isoprod.")} == {"isoprod.text", "isoprod.errors"}
