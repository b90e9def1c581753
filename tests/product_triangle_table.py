"""In-process timings of the two ways ``product --verify`` decides the triangles of a product.

    PYTHONPATH=src python tests/product_triangle_table.py OUT

For N = 180, 216 and 1024 product points (factor sizes 5x6x6, 6x6x6 and 8x8x16), closure
factors (shortest-path closures of weights drawn from {1, 2, 3}, as the lattice-product bench
builds them) and line factors (distinct integers), and the combiners SUM, MAX and SQRT_SUM_SQ,
each row times:

- ``proof_ms``: :func:`isoprod.metric.product_metric_proved` as ``product --verify`` calls it,
  with its count rule, which refuses (False) a product whose factor triples cost more than the
  matrix scan;
- ``unrefused_ms``: the same proof with no count rule, where it tests at most 10**7 triples;
- ``scan_ms``: :func:`isoprod.metric.verify_metric` on the coded product matrix, the packed scan
  that ``product --verify`` runs when the proof refuses or fails.

Each time is the median of 5 runs, or one run where the first takes over 10 s.  Every verdict is
compared with the scan's.  The table goes to OUT as JSON and to stdout.  It takes a few minutes,
most of them in the scans of the SQRT_SUM_SQ products at N = 1024.  ``closure_space`` is also
read by ``test_metric.py``; pytest does not collect this file.
"""

from __future__ import annotations

import itertools
import json
import math
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from isoprod import metric
from isoprod.combiners import named_combiner
from isoprod.fixtures import line_space
from isoprod.metric import FiniteMetricSpace, ProductSpec

SHAPES = ((5, 6, 6), (6, 6, 6), (8, 8, 16))
COMBINERS = ("SUM", "MAX", "SQRT_SUM_SQ")
UNREFUSED_TRIPLES = 10 ** 7
REPEAT, SLOW_S = 5, 10.0


def closure_space(rng, size: int) -> FiniteMetricSpace:
    """The shortest-path closure of weights drawn from {1, 2, 3}: at most four distances."""
    d = [[Fraction(0) if i == j else Fraction(rng.choice((1, 2, 3))) for j in range(size)] for i in range(size)]
    for i, j in itertools.combinations(range(size), 2):
        d[j][i] = d[i][j]
    for k, i, j in itertools.product(range(size), repeat=3):
        d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return FiniteMetricSpace([f"x{i}" for i in range(size)], d)


def timed(call):
    """The median milliseconds of REPEAT calls (one where the first is slow) and the first result."""
    start = time.perf_counter()
    result = call()
    times = [time.perf_counter() - start]
    while times[0] <= SLOW_S and len(times) < REPEAT:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3, result


def pruned_triples(factors) -> int:
    """The product triples the proof tests on an isotone table: each factor's distinct (b, c)."""
    return math.prod(len({(b, c) for x in sp._ranks for b, y in zip(x, sp._ranks) for c in y})
                     for sp in factors)


def row(kind: str, factors, name: str) -> dict:
    combiner = named_combiner(name)
    table = []
    _, codes = metric.product_metric(ProductSpec(tuple(factors), combiner), values=table)
    squares = None
    if not combiner.exact:  # as product --verify decides SQRT_SUM_SQ: on the exact squares
        grid = itertools.product(*(sp.distance_set() for sp in factors))
        squares = list(map(named_combiner("SQUARE_SUM"), grid))
    proof_ms, proved = timed(lambda: metric.product_metric_proved(factors, table, squares))
    triples = pruned_triples(factors)
    unrefused_ms = unrefused = None
    if triples <= UNREFUSED_TRIPLES:
        rule, metric.TRIPLES_PER_ROW_PAIR = metric.TRIPLES_PER_ROW_PAIR, math.inf
        try:
            unrefused_ms, unrefused = timed(lambda: metric.product_metric_proved(factors, table, squares))
        finally:
            metric.TRIPLES_PER_ROW_PAIR = rule
    scan_ms, (ok, _) = timed(lambda: metric.verify_metric(codes, 0, values=table, squares=squares))
    if (proved and not ok) or (unrefused is not None and unrefused != ok):
        raise AssertionError(f"{kind} {name} N={len(codes)}: proof {proved}/{unrefused}, scan {ok}")
    n = len(codes)
    return {"factors": kind, "sizes": [sp.size for sp in factors], "n": n, "combiner": name,
            "metric": ok, "path": "factor triples" if proved else "packed scan",
            "triples": triples, "sum_k3": sum(sp.size ** 3 for sp in factors),
            "rule_limit": metric.TRIPLES_PER_ROW_PAIR * n * n,
            "proof_ms": round(proof_ms, 3), "unrefused_ms": unrefused_ms and round(unrefused_ms, 3),
            "scan_ms": round(scan_ms, 3)}


def main(out: str) -> None:
    rng = random.Random(3131)
    rows = []
    for sizes in SHAPES:
        spaces = {"closure": [closure_space(rng, k) for k in sizes],
                  "line": [line_space([0, *rng.sample(range(1, 8 * k), k - 1)]) for k in sizes]}
        for kind, factors in spaces.items():
            for name in COMBINERS:
                rows.append(row(kind, factors, name))
                print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    report = {"about": __doc__.split("\n\n")[2].strip(), "python": platform.python_version(),
              "repeat": REPEAT, "slow_s": SLOW_S, "rows": rows}
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
