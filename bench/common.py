"""Jobs, output checks and input files shared by the three workloads.

A job is one operation a user of isoprod would run: a CLI invocation
(in-process through ``cli.dispatch`` and ``cli.render``, or as a fresh
``python -m isoprod`` process) or one library call.  Each job carries a
check that compares the job's output with a computation made here, apart
from the program, or with a property the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "work"


class CheckFailed(Exception):
    """A job's output disagrees with the benchmark's own computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    """One timed operation and the check of its output.

    ``known_fault`` names a program fault that makes this job's check
    fail every time; such a job counts as failed without making the run
    incorrect.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: Optional[str] = None


# -- exact values and files in the formats isoprod reads ----------------

def fmt(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def point_text(p) -> list[str]:
    return [fmt(c) for c in p]


def write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return path


def write_sampled(path: Path, table: dict) -> Path:
    """A sampled function file from {coords tuple: value}."""
    dim = len(next(iter(table)))
    entries = [{"point": point_text(p), "value": fmt(v)} for p, v in sorted(table.items())]
    return write_json(path, {"dim": dim, "entries": entries})


def write_matrix(path: Path, labels, dist) -> Path:
    return write_json(path, {"labels": list(labels), "dist": [[fmt(v) for v in row] for row in dist]})


def leq(x, y) -> bool:
    return all(a <= b for a, b in zip(x, y))


def sum_points(parts) -> tuple:
    """Coordinatewise sum of (point, count) pairs."""
    dim = len(parts[0][0])
    total = [Fraction(0)] * dim
    for p, count in parts:
        for i, c in enumerate(p):
            total[i] += c * count
    return tuple(total)


# -- reading reports -----------------------------------------------------

def json_report(output, expect_code: Optional[int] = None) -> dict:
    code, text = output
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    if expect_code is not None:
        require(code == expect_code, f"exit code {code}, expected {expect_code}: {report}")
    require("verdicts" in report or "error" in report, "report has neither verdicts nor error")
    if "verdicts" in report:
        all_ok = all(v["ok"] for v in report["verdicts"])
        require(code == (0 if all_ok else 1), f"exit code {code} does not match verdicts")
    return report


def csv_rows(output, expect_code: Optional[int] = None) -> list[list[str]]:
    """CSV verdict table rows; every row must have the three header columns."""
    code, text = output
    if expect_code is not None:
        require(code == expect_code, f"exit code {code}, expected {expect_code}")
    rows = list(csv.reader(io.StringIO(text)))
    require(rows and rows[0] == ["check", "ok", "detail"], f"bad CSV header {rows[:1]}")
    for row in rows[1:]:
        require(len(row) == 3, f"CSV row has {len(row)} fields, expected 3: {row}")
    return rows[1:]


def parse_point(values) -> tuple:
    return tuple(Fraction(v) for v in values)


def certificate_parts(cert: dict) -> list[tuple[tuple, int]]:
    return [(parse_point(part["point"]), int(part["count"])) for part in cert["parts"]]


def in_process_cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    """A job body that runs one CLI invocation in this process."""
    as_csv = "--csv" in argv

    def run():
        from isoprod import cli

        code, report = cli.dispatch(argv)
        return code, cli.render(report, as_csv=as_csv)

    return run


def child_env() -> dict:
    """Environment for a child interpreter that imports isoprod from src/.

    ISOPROD_* settings are dropped so that every input comes from the
    command line the benchmark builds.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("ISOPROD_")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def oracles():
    """tests/oracles.py: the brute-force references of the test suite."""
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles as module

    return module


def sampled_function(table: dict):
    """An isoprod SampledFunction from {coords tuple: value}."""
    from isoprod.points import PointN
    from isoprod.sampled import SampledFunction

    return SampledFunction({PointN(p): v for p, v in table.items()})
