"""order-cover: sampled functions through check, extend-sup, extend-amenable, envelope.

Each function is written to a file and run in-process through
``cli.dispatch`` and ``cli.render``, once per verb, with 12 probes for
the three probe verbs.  The order scans in ``sampled``, the per-probe
rechecks, the precheck subset scan (|A| <= 12) and the cover search do
the work; the lattice and product kernels do none.  ``check`` covers
on-sample targets and ``envelope`` off-sample probes, so the same cover
search is used two ways.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from common import (
    Job,
    certificate_parts,
    in_process_cli,
    json_report,
    leq,
    oracles,
    parse_point,
    point_text,
    require,
    sampled_function,
    sum_points,
    write_json,
    write_sampled,
)

F = Fraction
HALF_GRID = tuple(F(k, 2) for k in range(7))        # 0 .. 3, step 1/2
LINE_GRID = tuple(F(k, 2) for k in range(13))       # 0 .. 6, step 1/2
TINY_GRID = (F(0), F(1), F(2))
TINY_LINE_GRID = (F(0), F(1), F(2), F(3))
VALUE_POOL = (F(1, 2), F(1), F(3, 2), F(2), F(3), F(4))
PROBES_PER_FUNCTION = 12

# (kind, dim, |A|).  The subset scan of the amenable precheck runs for
# |A| <= 12 and is skipped above.  "tiny" functions are random isotone
# samples small enough for the brute-force oracles in tests/oracles.py;
# all others are subadditive by construction, so ``check`` always runs
# the cover search on every sample and its cost does not hinge on where
# a random violation happens to sit.
SLOTS = (
    ("tiny", 1, 4),
    ("tiny", 2, 5),
    ("cone", 1, 9),
    ("max-of-cones", 1, 10),
    ("cone", 2, 10),
    ("max-of-cones", 2, 9),
    ("cone", 3, 10),
    ("max-of-cones", 3, 10),
    ("cone", 2, 16),
    ("max-of-cones", 2, 20),
    ("cone", 3, 18),
    ("max-of-cones", 3, 16),
    ("line", 1, 41),
    ("capped-line", 1, 33),
)


def _grid_for(kind: str, dim: int):
    if kind == "tiny":
        return TINY_LINE_GRID if dim == 1 else TINY_GRID
    return LINE_GRID if dim == 1 else HALF_GRID


def _points(rng: random.Random, kind: str, dim: int, size: int) -> list[tuple]:
    grid = _grid_for(kind, dim)
    zero = (F(0),) * dim
    pts = {zero}
    while len(pts) < size:
        pts.add(tuple(rng.choice(grid) for _ in range(dim)))
    return sorted(pts)


def _function(rng: random.Random, kind: str, dim: int, size: int) -> tuple[dict, dict]:
    """Samples {point: value} and facts known by construction."""
    if kind in ("line", "capped-line"):
        k = size - 1
        cap = F(rng.randint(k // 4, 3 * k // 4)) if kind == "capped-line" else None
        table = {(F(t),): (F(t) if cap is None else min(F(t), cap)) for t in range(k + 1)}
        return table, {"subadditive": True, "line_cap": cap, "line_end": F(k)}
    pts = _points(rng, kind, dim, size)
    if kind == "tiny":
        raw = {p: rng.choice(VALUE_POOL) for p in pts}
        table = {p: max(raw[q] for q in pts if leq(q, p)) for p in pts}
        table[pts[0]] = F(0)
        return table, {"subadditive": None}
    # min(cap, w.p) is isotone and subadditive on the whole orthant, and
    # so is the max of two such cones; so is their restriction to any
    # sample set.
    cones = [_cone(rng, dim) for _ in range(1 if kind == "cone" else 2)]
    table = {p: max(min(cap, sum(w * c for w, c in zip(weights, p))) for weights, cap in cones)
             for p in pts}
    return table, {"subadditive": True}


def _cone(rng: random.Random, dim: int):
    weights = [rng.choice((F(1, 2), F(1), F(3, 2), F(2))) for _ in range(dim)]
    return weights, rng.choice((F(2), F(5, 2), F(3), F(4)))


def _probes(rng: random.Random, kind: str, table: dict) -> list[tuple]:
    """Two on-sample probes and ten off-sample probes in the sample range."""
    pts = sorted(table)
    dim = len(pts[0])
    on_sample = rng.sample(pts[1:], 2)
    reach = 1 if kind == "tiny" else 0  # tiny sample sets leave too few points inside
    top = [max(p[i] for p in pts) + reach for i in range(dim)]
    step = F(1, 2) if kind in ("line", "capped-line") else F(1, 4)
    off = []
    while len(off) < PROBES_PER_FUNCTION - 2:
        q = tuple(F(rng.randint(0, int(t / step))) * step for t in top)
        if q not in table and q not in off:
            off.append(q)
    return on_sample + off


def _sup_below(table: dict, y: tuple) -> Fraction:
    return max((v for p, v in table.items() if leq(p, y)), default=F(0))


def _ground_value(table: dict, point: tuple) -> Fraction:
    """Value of a certificate part: a sample, or an axis point on an axis
    with no positive sample, valued at the default axis constant 1."""
    if point in table:
        return table[point]
    positive = [i for i, c in enumerate(point) if c > 0]
    require(len(positive) == 1, f"part {point} is neither a sample nor an axis point")
    axis = positive[0]
    require(all(p[axis] == 0 for p in table), f"axis point {point} on a supported axis")
    return F(1)


def _check_certificate(table: dict, cert: dict, target: tuple) -> Fraction:
    """Re-sum a certificate: its parts dominate the target and its cost is
    the sum of value x count.  Returns the cost."""
    require(parse_point(cert["target"]) == target, "certificate target differs from probe")
    parts = certificate_parts(cert)
    if parts:
        require(leq(target, sum_points(parts)), f"parts do not cover {target}")
    else:
        require(not any(target), "empty certificate for a nonzero target")
    cost = sum((_ground_value(table, p) * count for p, count in parts), F(0))
    require(cost == F(cert["cost"]), f"certificate cost {cert['cost']} != re-summed {cost}")
    return cost


class _Function:
    """One generated function with its files and lazily computed references."""

    def __init__(self, name, kind, table, facts, probes, workdir):
        self.name = name
        self.kind = kind
        self.table = table
        self.facts = facts
        self.probes = probes
        self.path = str(write_sampled(workdir / f"{name}.json", table))
        self.probes_path = str(write_json(workdir / f"{name}-probes.json",
                                          [point_text(p) for p in probes]))
        self._oracle_envelope = None
        self._oracle_violation = "unset"

    def oracle_envelope(self):
        if self._oracle_envelope is None:
            from isoprod.points import PointN

            f = sampled_function(self.table)
            self._oracle_envelope = [oracles().cover_enumerate_min(f, PointN(p)) for p in self.probes]
        return self._oracle_envelope

    def oracle_violation(self):
        if self._oracle_violation == "unset":
            self._oracle_violation = oracles().subadditive_violation(sampled_function(self.table))
        return self._oracle_violation


def _two_part_covers_hold(table: dict) -> bool:
    """f(x) <= f(a) + f(b) whenever a + b dominates x: a property every
    subadditive sample set has (used where the oracle is too slow)."""
    items = list(table.items())
    for x, fx in items:
        for (a, fa), (b, fb) in itertools.combinations_with_replacement(items, 2):
            if fa + fb < fx and leq(x, tuple(p + q for p, q in zip(a, b))):
                return False
    return True


def _check_check(fn: _Function, output) -> None:
    report = json_report(output)
    verdicts = {v["check"]: v for v in report["verdicts"]}
    require(verdicts["isotone"]["ok"], "generated function reported not isotone")
    require(verdicts["amenable"]["ok"], "generated function reported not amenable")
    sub = verdicts["subadditive"]
    if fn.kind == "tiny":
        require(sub["ok"] == (fn.oracle_violation() is None),
                "subadditive verdict disagrees with oracles.subadditive_violation")
    elif fn.facts["subadditive"]:
        require(sub["ok"], "function subadditive by construction reported not subadditive")
    if sub["ok"]:
        require(_two_part_covers_hold(fn.table), "subadditive verdict but a two-part cover is cheaper")
    else:
        cert = sub["witness"]
        target = parse_point(cert["target"])
        require(target in fn.table, "violation target is not a sample")
        cost = _check_certificate(fn.table, cert, target)
        require(cost < fn.table[target], "violation certificate is not cheaper than the sample")


def _values(report: dict, verb: str, probes) -> list[Fraction]:
    verdicts = report["verdicts"]
    require(len(verdicts) == len(probes), "one verdict per probe expected")
    for v, p in zip(verdicts, probes):
        require(v["check"] == f"{verb}({', '.join(str(c) for c in p)})", f"bad check name {v['check']}")
    return [F(v["value"]) for v in verdicts]


def _check_sup(fn: _Function, output) -> None:
    report = json_report(output, expect_code=0)
    for p, value in zip(fn.probes, _values(report, "extend-sup", fn.probes)):
        require(value == _sup_below(fn.table, p), f"sup-continuation at {p} is {value}")


def _check_amenable(fn: _Function, output) -> None:
    report = json_report(output, expect_code=0)
    for p, value in zip(fn.probes, _values(report, "extend-amenable", fn.probes)):
        if p in fn.table:
            require(value == fn.table[p], f"amenable continuation differs from f at {p}")
        require(value >= _sup_below(fn.table, p), f"amenable continuation below sup at {p}")
        require(value > 0 or not any(p), f"amenable continuation vanishes at {p}")


def _check_envelope(fn: _Function, output) -> None:
    report = json_report(output, expect_code=0)
    values = _values(report, "envelope", fn.probes)
    oracle = fn.oracle_envelope() if fn.kind == "tiny" else None
    for i, (p, value, v) in enumerate(zip(fn.probes, values, report["verdicts"])):
        cost = _check_certificate(fn.table, v["certificate"], p)
        require(cost == value, f"envelope value {value} != certificate cost {cost}")
        above = [fx for x, fx in fn.table.items() if leq(p, x)]
        require(not above or value <= min(above), f"envelope at {p} exceeds f above it")
        if oracle is not None:
            require(value == oracle[i][0], f"envelope at {p} != oracle {oracle[i][0]}")
        if fn.kind in ("line", "capped-line"):
            closed = F(math.ceil(p[0]))
            if fn.facts["line_cap"] is not None:
                closed = min(closed, fn.facts["line_cap"])
            require(value == closed, f"line envelope at {p} is {value}, closed form {closed}")


def build(seed: int, workdir) -> list[Job]:
    rng = random.Random(f"order-cover:{seed}")
    functions = []
    for i, (kind, dim, size) in enumerate(SLOTS):
        table, facts = _function(rng, kind, dim, size)
        probes = _probes(rng, kind, table)
        functions.append(_Function(f"f{i:02d}-{kind}-d{dim}", kind, table, facts, probes, workdir))
    jobs = []
    for fn in functions:
        probe_args = ["--function", fn.path, "--probes", fn.probes_path]
        jobs.append(Job("check", in_process_cli(["check", "--function", fn.path]),
                        lambda out, fn=fn: _check_check(fn, out)))
        jobs.append(Job("extend-sup", in_process_cli(["extend-sup", *probe_args]),
                        lambda out, fn=fn: _check_sup(fn, out)))
        jobs.append(Job("extend-amenable", in_process_cli(["extend-amenable", *probe_args]),
                        lambda out, fn=fn: _check_amenable(fn, out)))
        jobs.append(Job("envelope", in_process_cli(["envelope", *probe_args]),
                        lambda out, fn=fn: _check_envelope(fn, out)))
    return jobs

