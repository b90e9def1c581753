"""Seeded, reproducible generators for test fixtures.

Every generator is deterministic in its seed: running one twice writes
byte-identical files.  The same generators back the randomized parts of
the test suite.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

from . import fileio
from .cantor import scaled_cantor_level_set
from .combiners import named_combiner
from .continuation import lower_cone_max
from .errors import OutOfRangeError
from .metric import FiniteMetricSpace
from .modulus import GridFunction
from .points import PointN, origin, rat
from .sampled import SampledFunction

GENERATOR_KINDS = (
    "random-sampled-function",
    "random-metric-space",
    "named-combiner-grid",
    "ce-level-set",
)

VALUE_GRID = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
)
POSITIVE_GRID = VALUE_GRID[1:]
POINTS_CAP = 64  # random_metric_space's max_points: 64 points close in 0.7 s, the closure's time grows as points^3
DIM_CAP = 64  # random_sampled_function's dim: 200 amenable samples of dimension 64 build and write in 0.1 s


def random_point(rng: random.Random, dim: int, grid=VALUE_GRID) -> PointN:
    return PointN(tuple(rng.choice(grid) for _ in range(dim)))


def random_sampled_function(
    rng: random.Random,
    dim: int | None = None,
    size: int | None = None,
    grid=VALUE_GRID,
    mode: str = "raw",
) -> SampledFunction:
    """A random sample set with coordinates and values from a fixed grid.

    mode "raw" draws arbitrary values, "isotone" monotonizes them along
    the partial order, "amenable" additionally pins value 0 at the
    origin and keeps every other value positive.
    """
    if mode not in ("raw", "isotone", "amenable"):
        raise ValueError(f"unknown mode {mode!r}")
    if dim is not None and dim > DIM_CAP:
        raise OutOfRangeError(f"dimension {dim} exceeds the fixture dimension cap {DIM_CAP}")
    dim = dim if dim is not None else rng.randint(1, 3)
    size = size if size is not None else rng.randint(1, 5)
    points = set()
    if mode == "amenable":
        points.add(origin(dim))
    attempts = 0
    while len(points) < size and attempts < 200:
        points.add(random_point(rng, dim, grid))
        attempts += 1
    ordered = sorted(points, key=lambda p: p.coords)
    value_pool = POSITIVE_GRID if mode == "amenable" else grid
    raw = SampledFunction({p: rng.choice(value_pool) for p in ordered})
    if mode == "raw":
        return raw
    values = {p: lower_cone_max(raw, p) for p in ordered}
    if mode == "amenable":
        values[origin(dim)] = Fraction(0)
    return SampledFunction(values)


def random_metric_space(rng: random.Random, max_points: int = 4) -> FiniteMetricSpace:
    """A random finite metric: shortest-path closure of positive weights."""
    if max_points > POINTS_CAP:
        raise OutOfRangeError(f"{max_points} points exceed the fixture cap {POINTS_CAP} (up to {max_points}^3 steps)")
    n = rng.randint(1, max_points)
    labels = [f"p{i}" for i in range(n)]
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.choice(POSITIVE_GRID)
            dist[i][j] = dist[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return FiniteMetricSpace(labels, dist)


def line_space(values) -> FiniteMetricSpace:
    """Points of the rational line with the absolute-difference metric."""
    pts = sorted({rat(v) for v in values})
    labels = [str(v) for v in pts]
    dist = [[abs(a - b) for b in pts] for a in pts]
    return FiniteMetricSpace(labels, dist)


def combiner_grid(
    name: str,
    n: int = 2,
    bound=Fraction(2),
    step=Fraction(1, 4),
    cap=Fraction(1),
) -> GridFunction:
    combiner = named_combiner(name, cap)
    if not combiner.exact:
        raise ValueError(f"{name} is not exact; grids need exact values")
    return GridFunction.from_callable(n, bound, step, combiner)


def sampled_combiner(name: str, axis_grid, n: int = 2, cap=Fraction(1)) -> SampledFunction:
    """Sample a named closed form on a product grid of axis values."""
    combiner = named_combiner(name, cap)
    if not combiner.exact:
        raise ValueError(f"{name} is not exact; sampled functions need exact values")
    axis = sorted({rat(v) for v in axis_grid})
    entries = {}
    for coords in itertools.product(axis, repeat=n):
        entries[PointN(coords)] = rat(combiner(coords))
    return SampledFunction(entries)


def fixture_generate(kind: str, seed: int, outdir, **params) -> list[Path]:
    """Write the named fixture deterministically and return the file paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    if kind == "random-sampled-function":
        value = random_sampled_function(
            rng, dim=params.get("dim"), size=params.get("size"), mode=params.get("mode", "raw"))
        name, dump = f"{kind}-seed{seed}", fileio.dump_sampled_function
    elif kind == "random-metric-space":
        value = random_metric_space(rng, max_points=params.get("max_points", 4))
        name, dump = f"{kind}-seed{seed}", fileio.dump_metric_space
    elif kind == "named-combiner-grid":
        combiner = params.get("combiner", "SUM")
        value = combiner_grid(combiner, cap=params.get("cap", Fraction(1)))
        name, dump = f"{kind}-{combiner}-seed{seed}", fileio.dump_grid_function
    elif kind == "ce-level-set":
        level = params.get("level", 8)
        value = scaled_cantor_level_set(level)
        name, dump = f"{kind}-k{level}", fileio.dump_rational_set
    else:
        raise ValueError(f"unknown fixture kind {kind!r}; expected one of {GENERATOR_KINDS}")
    path = outdir / f"{name}.json"
    dump(value, path)
    return [path]
