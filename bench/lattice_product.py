"""lattice-product: grid moduli and three-factor metric products.

Grid functions (n=2 with 225 lattice points, n=3 with 216) of the exact
named combiners go through fixed-point, lemma42, omega and nonconstant.
Three-factor products (N = 64, 125, 180) go through product --verify,
verify-metric and extract, and ``is_distance_increasing`` and
``metric_preserving_verdict``, which have no verb, are called as library
functions.  One product uses a sampled-combiner file instead of a named
combiner.  The quadratic and cubic exact scans in ``modulus`` and
``metric`` and large-matrix load and render do the work; the cover
search sits idle except in the sampled-combiner verdicts.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from common import (
    Job,
    fmt,
    in_process_cli,
    json_report,
    leq,
    parse_point,
    require,
    sum_points,
    write_json,
    write_matrix,
    write_sampled,
)

F = Fraction
NAMED = ("SUM", "MAX", "CAPPED_SUM", "SQUARE_SUM")
# (cells + 1) ** n = 225 and 216 points: a scan costs about the same at both n.
GRID_CELLS = {2: 14, 3: 5}
GRID_STEP = {2: F(1, 4), 3: F(1, 3)}
# Factor sizes and combiner of each product: N = 64, 125 and 180 points.
PRODUCTS = (((4, 4, 4), "SUM"), ((5, 5, 5), "MAX"), ((5, 6, 6), "CAPPED_SUM"))
WEIGHTS = (F(1), F(2), F(3))


def combine(name: str, values, cap: Fraction) -> Fraction:
    if name == "SUM":
        return sum(values, F(0))
    if name == "MAX":
        return max(values)
    if name == "CAPPED_SUM":
        return min(cap, sum(values, F(0)))
    return sum((v * v for v in values), F(0))


# -- grids -------------------------------------------------------------

def _omega(name: str, eps, bound: Fraction, cap: Fraction) -> Fraction:
    """Closed-form lattice modulus of the named combiner at box eps."""
    if name == "SQUARE_SUM":
        return sum((bound * bound - (bound - e) ** 2 for e in eps), F(0))
    return combine(name, eps, cap)


class _Grid:
    def __init__(self, rng, workdir, name: str, n: int):
        self.name, self.n = name, n
        self.cells = GRID_CELLS[n]
        self.step = GRID_STEP[n]
        self.bound = self.cells * self.step
        self.cap = rng.randint(2, self.cells) * self.step
        self.boxes = [tuple(rng.randint(1, self.cells) * self.step for _ in range(n)) for _ in range(2)]
        self.var = rng.randint(1, n)
        values = [
            {"point": [fmt(i * self.step) for i in idx],
             "value": fmt(self.value(tuple(i * self.step for i in idx)))}
            for idx in itertools.product(range(self.cells + 1), repeat=n)
        ]
        self.path = str(write_json(workdir / f"grid-{name}-n{n}.json", {
            "n": n, "T": fmt(self.bound), "h": fmt(self.step), "values": values}))

    def value(self, x) -> Fraction:
        return combine(self.name, x, self.cap)

    def lattice(self):
        return (tuple(i * self.step for i in idx)
                for idx in itertools.product(range(self.cells + 1), repeat=self.n))

    def check_fixed_point(self, output) -> None:
        verdict = json_report(output)["verdicts"][0]
        if self.name != "SQUARE_SUM":
            require(verdict["ok"] and F(verdict["max_deviation"]) == 0,
                    f"{self.name} grid is not its own modulus")
            return
        require(not verdict["ok"], "SQUARE_SUM grid reported as its own modulus")
        deviation = {x: _omega(self.name, x, self.bound, self.cap) - self.value(x)
                     for x in self.lattice()}
        worst = max(deviation.values())
        require(F(verdict["max_deviation"]) == worst, "max_deviation differs from the closed form")
        require(deviation[parse_point(verdict["at"])] == worst, "deviation witness does not attain it")

    def check_lemma42(self, output) -> None:
        verdict = json_report(output)["verdicts"][0]
        if self.name != "SQUARE_SUM":
            require(verdict["ok"], f"{self.name} grid fails |f(x)-f(y)| <= f(|x-y|)")
            return
        require(not verdict["ok"], "SQUARE_SUM grid passes the difference bound")
        x, y = (parse_point(p) for p in verdict["witness"])
        gap = abs(self.value(x) - self.value(y))
        require(gap > self.value(tuple(abs(a - b) for a, b in zip(x, y))),
                "difference-bound witness does not violate the bound")

    def check_omega(self, eps, output) -> None:
        verdict = json_report(output, expect_code=0)["verdicts"][0]
        expected = _omega(self.name, eps, self.bound, self.cap)
        require(F(verdict["value"]) == expected, f"omega{eps} of {self.name} != {expected}")

    def check_nonconstant(self, output) -> None:
        verdict = json_report(output)["verdicts"][0]
        # the line through the origin along the variable already moves
        line = [self.value(tuple(k * self.step if j == self.var - 1 else F(0) for j in range(self.n)))
                for k in range(self.cells + 1)]
        require(verdict["ok"] == (len(set(line)) > 1), "nonconstant verdict is wrong")

    def jobs(self) -> list[Job]:
        g = ["--grid", self.path]
        jobs = [
            Job("fixed-point", in_process_cli(["fixed-point", *g]), self.check_fixed_point),
            Job("lemma42", in_process_cli(["lemma42", *g]), self.check_lemma42),
            Job("nonconstant", in_process_cli(["nonconstant", *g, "--var", str(self.var)]),
                self.check_nonconstant),
        ]
        for eps in self.boxes:
            box = ",".join(fmt(e) for e in eps)
            jobs.append(Job("omega", in_process_cli(["omega", *g, "--eps", box]),
                            lambda out, eps=eps: self.check_omega(eps, out)))
        return jobs


# -- products ----------------------------------------------------------

def _metric_space(rng, size: int) -> list[list[Fraction]]:
    """Shortest-path closure of random positive weights: a metric."""
    d = [[F(0) if i == j else rng.choice(WEIGHTS) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i):
            d[i][j] = d[j][i]
    for k in range(size):
        for i in range(size):
            for j in range(size):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


class _Product:
    def __init__(self, rng, workdir, sizes: tuple, combiner: str):
        self.combiner = combiner
        self.cap = rng.choice((F(2), F(3), F(4)))
        self.factors = [_metric_space(rng, size) for size in sizes]
        self.factor_paths = []
        n = sizes[0] * sizes[1] * sizes[2]
        for k, d in enumerate(self.factors):
            labels = [f"x{k}{i}" for i in range(len(d))]
            self.factor_paths.append(str(write_matrix(workdir / f"factor-N{n}-{k}.json", labels, d)))
        self.points = list(itertools.product(*(range(size) for size in sizes)))
        self.labels = ["|".join(f"x{k}{i}" for k, i in enumerate(p)) for p in self.points]
        self.expected = [[fmt(self.value(p, q)) for q in self.points] for p in self.points]
        self.matrix_path = str(write_json(workdir / f"product-N{n}.json",
                                          {"labels": self.labels, "dist": self.expected}))
        self.distance_sets = [sorted({v for row in d for v in row}) for d in self.factors]

    def tuple_of(self, p, q):
        return tuple(d[a][b] for d, a, b in zip(self.factors, p, q))

    def value(self, p, q) -> Fraction:
        return combine(self.combiner, self.tuple_of(p, q), self.cap)

    def factor_args(self) -> list[str]:
        return [arg for path in self.factor_paths for arg in ("--factor", path)]

    def check_product(self, output) -> None:
        report = json_report(output, expect_code=0)
        matrix = report["verdicts"][0]["matrix"]
        require(matrix["labels"] == self.labels, "product labels differ")
        require(matrix["dist"] == self.expected, "product entries differ from the combiner")
        require(report["verdicts"][1]["ok"], f"{self.combiner} product is not a metric")

    def check_verify(self, output) -> None:
        verdict = json_report(output)["verdicts"][0]
        require(verdict["ok"], f"{self.combiner} product matrix fails the metric axioms")

    def check_extract(self, output) -> None:
        function = json_report(output, expect_code=0)["verdicts"][0]["function"]
        grid = set(itertools.product(*self.distance_sets))
        seen = set()
        for entry in function["entries"]:
            t = parse_point(entry["point"])
            require(t in grid, f"extracted tuple {t} is not a distance tuple")
            require(F(entry["value"]) == combine(self.combiner, t, self.cap),
                    f"extracted value at {t} differs from {self.combiner}")
            seen.add(t)
        require(seen == grid, "extraction misses distance tuples")

    def distance_increasing(self):
        from isoprod import fileio
        from isoprod.metric import is_distance_increasing

        _, matrix = fileio.load_matrix(self.matrix_path)
        factors = [fileio.load_metric_space(p) for p in self.factor_paths]
        return is_distance_increasing(matrix, factors)

    def check_distance_increasing(self, output) -> None:
        ok, _ = output
        require(ok, f"{self.combiner} product reported not distance increasing")

    def jobs(self) -> list[Job]:
        cap = ["--cap", fmt(self.cap)] if self.combiner == "CAPPED_SUM" else []
        return [
            Job("product", in_process_cli(["product", *self.factor_args(), "--combiner",
                                           self.combiner, *cap, "--verify"]), self.check_product),
            Job("verify-metric", in_process_cli(["verify-metric", "--space", self.matrix_path]),
                self.check_verify),
            Job("extract", in_process_cli(["extract", "--product", self.matrix_path,
                                           *self.factor_args()]), self.check_extract),
            Job("distance-increasing", self.distance_increasing, self.check_distance_increasing),
        ]


def _broken_metric_job(product: _Product, workdir) -> Job:
    """verify-metric on a product matrix with one pair pushed too far apart."""
    n = len(product.points)
    i, j = n - 2, n - 1
    dist = [row[:] for row in product.expected]
    far = F(dist[i][j]) + 100
    dist[i][j] = dist[j][i] = fmt(far)
    path = str(write_json(workdir / f"broken-N{n}.json", {"labels": product.labels, "dist": dist}))

    def check(output):
        verdict = json_report(output, expect_code=1)["verdicts"][0]
        witness = verdict["witness"]
        require(witness["kind"] == "triangle", "expected a triangle violation")
        index = {label: k for k, label in enumerate(product.labels)}
        a, b, c = (index[label] for label in witness["labels"])
        require(F(dist[a][c]) > F(dist[a][b]) + F(dist[b][c]),
                "triangle witness does not violate the inequality")

    return Job("verify-metric", in_process_cli(["verify-metric", "--space", path]), check)


def _sampled_combiner_jobs(rng, product: _Product, workdir) -> list[Job]:
    """The same product through a sampled-combiner file, plus the
    metric-preserving verdict of two sampled combiners."""
    name = product.combiner
    grid = list(itertools.product(*product.distance_sets))
    table = {t: combine(name, t, product.cap) for t in grid}
    comb_path = str(write_sampled(workdir / f"combiner-{name}.json", table))
    full = (F(0), F(1), F(2), F(3))  # contains 1 and 2, so SQUARE_SUM is never subadditive
    square = {t: combine("SQUARE_SUM", t, product.cap) for t in itertools.product(full, repeat=3)}
    good = {t: combine(name, t, product.cap) for t in itertools.product(full, repeat=3)}

    def verdict_job(table):
        def run():
            from isoprod.metric import metric_preserving_verdict
            from isoprod.points import PointN
            from isoprod.sampled import SampledFunction

            return metric_preserving_verdict(SampledFunction({PointN(t): v for t, v in table.items()}))
        return run

    def check_good(output):
        ok, report = output
        require(ok and report.amenable and report.subadditive,
                f"sampled {name} is not reported metric preserving")

    def check_square(output):
        ok, report = output
        require(not ok and not report.subadditive, "sampled SQUARE_SUM reported subadditive")
        cert = report.subadditive_certificate
        target = cert.target.coords
        parts = [(p.coords, m) for p, m in cert.parts]
        require(leq(target, sum_points(parts)), "violation parts do not cover the target")
        cost = sum((square[p] * m for p, m in parts), F(0))
        require(cost == cert.cost and cost < square[target], "violation certificate does not hold")

    def check_product(output):
        report = json_report(output, expect_code=0)
        require(report["verdicts"][0]["matrix"]["dist"] == product.expected,
                "sampled-combiner product differs from the combiner")
        require(report["verdicts"][1]["ok"], "sampled-combiner product is not a metric")

    return [
        Job("product-sampled", in_process_cli(["product", *product.factor_args(),
                                               "--combiner-file", comb_path, "--verify"]),
            check_product),
        Job("metric-preserving", verdict_job(good), check_good),
        Job("metric-preserving", verdict_job(square), check_square),
    ]


def build(seed: int, workdir) -> list[Job]:
    rng = random.Random(f"lattice-product:{seed}")
    jobs = []
    for n in (2, 3):
        for name in NAMED:
            jobs.extend(_Grid(rng, workdir, name, n).jobs())
    products = [_Product(rng, workdir, sizes, name) for sizes, name in PRODUCTS]
    for product in products:
        jobs.extend(product.jobs())
    jobs.append(_broken_metric_job(products[0], workdir))
    jobs.extend(_sampled_combiner_jobs(rng, products[1], workdir))
    return jobs
