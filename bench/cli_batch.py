"""cli-batch: one fresh ``python -m isoprod`` process per job.

Interpreter start, the eager import of every module, building the
argparse parser, render and the base-3 expansion in ``cantor`` dominate;
the numeric kernels do almost nothing.  A change that speeds the
in-process workloads but adds import cost shows here as a cost.

One job is kept although it fails every time: ``--csv extend-sup`` with
a 2-D probe.  ``cli.render`` writes the check name ``extend-sup(1, 1)``
without quotes, so a CSV reader sees four fields in a three-column
table.  Its input does not depend on the seed.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from common import (
    ROOT,
    Job,
    child_env,
    csv_rows,
    fmt,
    json_report,
    oracles,
    require,
    sampled_function,
    write_json,
    write_matrix,
    write_sampled,
)

F = Fraction
CHILD_TIMEOUT_S = 120
CSV_QUOTING_FAULT = (
    "cli.render writes CSV check names such as extend-sup(1, 1) unquoted, "
    "so the row has four fields"
)


class Launcher:
    """Starts one CLI process per job, untraced or under the span tracer.

    When ``trace_file`` is set, the child runs ``traced_child.py``, which
    wraps the same functions as the in-process tracer and writes its
    spans and counts there; ``take_child_trace`` collects them.
    """

    def __init__(self):
        self.env = child_env()
        self.trace_file: Optional[Path] = None

    def command(self, argv: list[str]) -> list[str]:
        if self.trace_file is None:
            return [sys.executable, "-m", "isoprod", *argv]
        return [sys.executable, str(Path(__file__).with_name("traced_child.py")), *argv]

    def run(self, argv: list[str]) -> tuple[int, str]:
        env = self.env
        if self.trace_file is not None:
            env = dict(env, BENCH_TRACE_OUT=str(self.trace_file))
        done = subprocess.run(self.command(argv), cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return done.returncode, done.stdout

    def take_child_trace(self) -> dict:
        """The last child's spans, times and counts (none if it wrote none)."""
        if not self.trace_file.exists():
            return {"times": {}, "counts": {}, "spans": []}
        data = json.loads(self.trace_file.read_text(encoding="utf-8"))
        self.trace_file.unlink()
        return data


# -- the benchmark's own base-3 arithmetic -------------------------------

def _digits_of_int(n: int) -> list[int]:
    out = []
    while n:
        n, d = divmod(n, 3)
        out.append(d)
    return out[::-1]


def has_two_zero_expansion(t: Fraction) -> bool:
    """Some base-3 expansion of t >= 0 uses only the digits 0 and 2."""
    whole, rem = divmod(t.numerator, t.denominator)
    den = t.denominator
    digits = _digits_of_int(whole)
    k = den
    while k % 3 == 0:
        k //= 3
    if k == 1:  # terminating: the other expansion turns a last 1 into 0222...
        while rem:
            rem *= 3
            d, rem = divmod(rem, den)
            digits.append(d)
        ones = [i for i, d in enumerate(digits) if d == 1]
        nonzero = [i for i, d in enumerate(digits) if d]
        return not ones or ones == nonzero[-1:]
    if 1 in digits:
        return False
    seen = set()
    while rem not in seen:  # the unique expansion; stop at the first 1
        seen.add(rem)
        rem *= 3
        d, rem = divmod(rem, den)
        if d == 1:
            return False
    return True


def in_cantor_set(t: Fraction) -> bool:
    return 0 <= t <= 1 and has_two_zero_expansion(t)


def _from_digits(pre: list[int], period: list[int]) -> Fraction:
    """0.pre(period)... in base 3."""
    value = F(int("".join(map(str, pre)) or "0", 3))
    value += F(int("".join(map(str, period)), 3), 3 ** len(period) - 1)
    return value / 3 ** len(pre)


def _digit_rational(rng, member: bool) -> Fraction:
    """A rational built from chosen base-3 digits with period 11 or 12
    (denominator about 10^5 to 10^6); it has a 1 digit unless member."""
    pre = [rng.choice((0, 2)) for _ in range(rng.randint(0, 3))]
    period = [rng.choice((0, 2)) for _ in range(rng.choice((11, 12)))]
    period[0], period[1] = 0, 2  # neither all 0 nor all 2: not terminating
    if not member:
        period[rng.randrange(2, len(period))] = 1
    return _from_digits(pre, period)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _long_period_prime(rng) -> int:
    """A prime p just above 3e5 with 3 a primitive root: 1/p has period p - 1.

    The range is narrow because the cost and memory of expanding the
    period grow with p, and these jobs set the tail and the peak RSS."""
    p = rng.randint(300_000, 303_000)
    while True:
        if _is_prime(p):
            m, factors, f = p - 1, set(), 2
            while f * f <= m:
                while m % f == 0:
                    factors.add(f)
                    m //= f
                f += 1
            if m > 1:
                factors.add(m)
            if all(pow(3, (p - 1) // q, p) != 1 for q in factors):
                return p
        p += 1


# -- jobs ----------------------------------------------------------------

def _member_job(launcher, verb: str, t: Fraction, expected: bool, as_csv=False) -> Job:
    argv = (["--csv"] if as_csv else []) + ["cantor", verb, fmt(t)]
    name = "cantor-member" if verb == "member" else "ce-member"

    def check(output):
        if as_csv:
            rows = csv_rows(output, expect_code=0 if expected else 1)
            require(rows == [[f"{name}[{t}]", str(expected).lower(), ""]], f"bad CSV rows {rows}")
            return
        verdict = json_report(output)["verdicts"][0]
        require(verdict["ok"] == expected, f"{verb} {t}: verdict {verdict['ok']}, digits say {expected}")

    return Job(f"cantor {verb}", lambda: launcher.run(argv), check)


def _decompose_job(launcher, verb: str, t: Fraction) -> Job:
    def check(output):
        verdict = json_report(output, expect_code=0)["verdicts"][0]
        x, y = (F(v) for v in verdict["witness"])
        require(x - y == t, f"decomposition of {t} has gap {x - y}")
        member = in_cantor_set if verb == "decompose" else has_two_zero_expansion
        require(member(x) and member(y), f"decomposition witness of {t} leaves the set")

    return Job(f"cantor {verb}", lambda: launcher.run(["cantor", verb, fmt(t)]), check)


def _level_set(level: int) -> set:
    """Endpoints of the level-k intervals of the dilated Cantor union in [0, 3]."""
    scale = F(1, 3 ** level)
    starts = [0]
    for _ in range(level):
        starts = [3 * s + d for s in starts for d in (0, 2)]
    out = set()
    for p in starts:
        for e in (p * scale, (p + 1) * scale):
            out.update(v for v in (e, 3 * e) if v <= 3)
    return out


def _find_triple(values: set, a: Fraction, b: Fraction) -> bool:
    return any(x1 + s * a in values and x1 + s * a + u * b in values and abs(s * a + u * b) == a + b
               for x1 in values for s in (1, -1) for u in (1, -1))


def _search_job(launcher, argv_set: list[str], values: set, a: Fraction, b: Fraction) -> Job:
    argv = ["universal", "search", *argv_set, "--a", fmt(a), "--b", fmt(b)]

    def check(output):
        verdict = json_report(output)["verdicts"][0]
        require(verdict["ok"] == _find_triple(values, a, b), "search verdict disagrees with a full scan")
        if verdict["ok"]:
            x1, x2, x3 = (F(v) for v in verdict["witness"])
            require({x1, x2, x3} <= values, "search triple leaves the set")
            require(abs(x1 - x2) == a and abs(x2 - x3) == b and abs(x1 - x3) == a + b,
                    "search triple has the wrong gaps")

    return Job("universal search", lambda: launcher.run(argv), check)


def _error_job(launcher, argv: list[str]) -> Job:
    def check(output):
        report = json_report(output, expect_code=2)
        require("error" in report and "verdicts" not in report, "input error without an error report")

    return Job("input-error", lambda: launcher.run(argv), check)


def _tiny_function(rng) -> dict:
    pts = sorted({(F(0), F(0))} | {(F(rng.randint(0, 2)), F(rng.randint(0, 2))) for _ in range(6)})
    raw = {p: F(rng.randint(1, 3)) for p in pts}
    table = {p: max(raw[q] for q in pts if q[0] <= p[0] and q[1] <= p[1]) for p in pts}
    table[pts[0]] = F(0)
    return table


def _check_jobs(launcher, rng, workdir) -> list[Job]:
    jobs = []
    for k, as_csv in enumerate((False, True)):
        table = _tiny_function(rng)
        path = str(write_sampled(workdir / f"tiny-{k}.json", table))
        holds = oracles().subadditive_violation(sampled_function(table)) is None

        def check(output, as_csv=as_csv, holds=holds):
            if as_csv:
                rows = csv_rows(output, expect_code=0 if holds else 1)
                verdicts = {r[0]: r[1] == "true" for r in rows}
            else:
                verdicts = {v["check"]: v["ok"] for v in json_report(output)["verdicts"]}
            require(verdicts == {"isotone": True, "amenable": True, "subadditive": holds},
                    f"check verdicts {verdicts}, oracle subadditive {holds}")

        argv = (["--csv"] if as_csv else []) + ["check", "--function", path]
        jobs.append(Job("check", lambda argv=argv: launcher.run(argv), check))
    return jobs


def _metric_jobs(launcher, rng, workdir) -> list[Job]:
    jobs = []
    for k, broken in enumerate((False, True)):
        size = 4
        d = [[F(0) if i == j else F(rng.randint(2, 3)) for j in range(size)] for i in range(size)]
        for i in range(size):
            for j in range(i):
                d[i][j] = d[j][i]
        if broken:
            d[0][size - 1] = d[size - 1][0] = F(7)  # above 3 + 3
        path = str(write_matrix(workdir / f"space-{k}.json", [f"s{i}" for i in range(size)], d))
        holds = all(d[i][k2] <= d[i][j] + d[j][k2]
                    for i in range(size) for j in range(size) for k2 in range(size))

        def check(output, holds=holds):
            verdict = json_report(output)["verdicts"][0]
            require(verdict["ok"] == holds, "metric verdict disagrees with the benchmark's scan")

        jobs.append(Job("verify-metric", lambda path=path: launcher.run(["verify-metric", "--space", path]),
                        check))
    return jobs


def _known_fault_job(launcher, workdir) -> Job:
    table = {(F(0), F(0)): F(0), (F(1), F(0)): F(1), (F(0), F(1)): F(1), (F(1), F(1)): F(2)}
    path = str(write_sampled(workdir / "csv-fault-2d.json", table))

    def check(output):
        rows = csv_rows(output, expect_code=0)
        require(rows == [["extend-sup(1, 1)", "true", '{"value":"2"}']], f"bad CSV rows {rows}")

    argv = ["--csv", "extend-sup", "--function", path, "--probe", "(1,1)"]
    return Job("csv extend-sup", lambda: launcher.run(argv), check, known_fault=CSV_QUOTING_FAULT)


def build(seed: int, workdir, launcher: Launcher) -> list[Job]:
    rng = random.Random(f"cli-batch:{seed}")
    jobs = []
    for member, as_csv in ((True, False), (True, True), (False, False), (False, True)):
        t = _digit_rational(rng, member)
        jobs.append(_member_job(launcher, "member", t, member, as_csv))
    for verb, low, high in (("member", 1, 1), ("member", 1, 1), ("member", 1, 1),
                            ("ce-member", 1, 20), ("ce-member", 1, 20)):
        p = _long_period_prime(rng)
        t = F(rng.randint(low * p - p + 1, high * p - 1), p)
        jobs.append(_member_job(launcher, verb, t, has_two_zero_expansion(t)))
    t = _digit_rational(rng, True) * 3 ** rng.randint(1, 3)
    jobs.append(_member_job(launcher, "ce-member", t, True))
    for verb, top in (("decompose", 1), ("decompose", 1), ("ce-decompose", 30), ("ce-decompose", 30)):
        m = rng.randint(8, 14)
        jobs.append(_decompose_job(launcher, verb, F(rng.randint(1, top * 3 ** m), 3 ** m)))
    level = rng.randint(9, 11)

    def check_refutation(output, level=level):
        verdict = json_report(output, expect_code=0)["verdicts"][0]
        require(verdict["ok"] and verdict["report"]["ok"], "refute-ce-triple is not ok")
        require(verdict["report"]["level"] == level, "refutation ran at another level")

    jobs.append(Job("cantor refute-ce-triple",
                    lambda: launcher.run(["cantor", "refute-ce-triple", "--level", str(level)]),
                    check_refutation))
    ce_level = rng.randint(6, 7)
    values = _level_set(ce_level)
    for _ in range(2):
        a = F(rng.randint(1, 3 ** ce_level), 3 ** ce_level)
        b = F(rng.randint(1, 3 ** ce_level), 3 ** ce_level)
        jobs.append(_search_job(launcher, ["--ce-level", str(ce_level)], values, a, b))
    rationals = sorted({F(rng.randint(0, 240), rng.choice((2, 3, 4, 6))) for _ in range(60)})
    a, b = F(rng.randint(1, 12), 2), F(rng.randint(1, 12), 3)
    x1 = rng.choice(rationals)
    rationals = sorted(set(rationals) | {x1 + a, x1 + a + b})
    set_path = str(write_json(workdir / "rationals.json", {"values": [fmt(v) for v in rationals]}))
    jobs.append(_search_job(launcher, ["--set", set_path], set(rationals), a, b))

    def check_embed(output):
        verdict = json_report(output, expect_code=0)["verdicts"][0]
        images = verdict["images"]
        require(len(images) == len(rationals), "embed lost values")
        for v in rationals:
            image = images[str(v)]
            require(F(image["q"]) == v and F(image["r"]) == 1, f"embedding of {v} is {image}")

    jobs.append(Job("embed", lambda: launcher.run(["embed", "--set", set_path]), check_embed))
    for _ in range(2):
        bound = F(rng.randint(1, 10 ** 6), rng.randint(1, 1000))

        def check_unbounded(output, bound=bound):
            verdict = json_report(output, expect_code=0)["verdicts"][0]
            x, y = (F(v) for v in verdict["witness"])
            top = max(x, y)
            require(x != y and 0 <= min(x, y) and top < 1, "witness leaves [0, 1)")
            gauged = top / (1 - top)
            require(F(verdict["gauged_distance"]) == gauged > bound, "gauged distance does not exceed the bound")

        jobs.append(Job("witness-unbounded", lambda b=bound: launcher.run(["witness-unbounded", fmt(b)]),
                        check_unbounded))
    jobs.extend(_check_jobs(launcher, rng, workdir))
    jobs.extend(_metric_jobs(launcher, rng, workdir))
    bad_json = workdir / "malformed.json"
    bad_json.write_text('{"labels": ["a", "b"], "dist": [[0, 1], [1', encoding="utf-8")
    q = rng.choice((2, 5, 7))
    a = rng.randrange(1, 3 ** rng.randint(2, 9))
    a += a % q == 0  # keep q in the reduced denominator: not triadic
    jobs.extend(_error_job(launcher, argv) for argv in (
        ["cantor", "decompose", fmt(F(a, q * 3 ** 9))],
        ["check", "--function", str(workdir / "no-such-function.json")],
        ["verify-metric", "--space", str(bad_json)],
        ["extend-sup", "--function", str(workdir / "tiny-0.json"), "--probe", "(1,1,1)"],
        ["witness-unbounded", str(-rng.randint(1, 99))],
    ))
    jobs.append(_known_fault_job(launcher, workdir))
    return jobs

