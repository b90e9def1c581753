"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is
exact rational arithmetic except the one Euclidean-style combiner,
which gets an explicit 1e-12 tolerance.
"""

import contextlib
import itertools
import random
import time
from fractions import Fraction as F

import pytest

from extremality import envelope_maximality_check
from oracles import cover_enumerate_min
from isoprod.cantor import (
    SymbolicAffine,
    cantor_decompose,
    in_cantor,
    rational_subspace_refutation,
    scaled_cantor_distance_witness,
    scaled_cantor_level_set,
    scaled_cantor_triple_refutation,
    three_point_search,
    transcendental_embed,
)
from isoprod.combiners import named_combiner
from isoprod.continuation import (
    amenable_isotone_continuation,
    subadditive_envelope,
    sup_continuation,
)
from isoprod.errors import NotWellDefinedError
from isoprod.fixtures import (
    VALUE_GRID,
    line_space,
    random_metric_space,
    random_point,
    random_sampled_function,
)
from isoprod.metric import (
    FiniteMetricSpace,
    ProductSpec,
    extract_product_function,
    max_ultrametric,
    product_metric,
    unbounded_gauge,
    unbounded_witness,
    verify_metric,
)
from isoprod.fixtures import combiner_grid
from isoprod.modulus import difference_bound_holds, is_fixed_point
from isoprod.points import PointN, leq, origin, point
from isoprod.sampled import (
    SampledFunction,
    is_isotone,
    is_subadditive,
    projection_support,
)


@contextlib.contextmanager
def criterion(num, description, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds the {budget}s budget"
            )
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS: {description} [{elapsed:.1f}s]")


def envelope_instances(count=100, seed=20240811):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f = random_sampled_function(
            rng, dim=rng.randint(1, 3), size=rng.randint(1, 5), mode="raw"
        )
        probes = [random_point(rng, f.dim) for _ in range(10)]
        out.append((f, probes))
    return out


def test_criterion_01_envelope_equals_enumeration_oracle():
    with criterion(1, "envelope equals the exhaustive cover enumerator", budget=60):
        for f, probes in envelope_instances():
            for probe in probes:
                value, cert = subadditive_envelope(f, probe)
                oracle = cover_enumerate_min(f, probe)
                assert oracle is not None and value == oracle[0]
                expanded = tuple(p.coords for p, m in cert.parts for _ in range(m))
                assert expanded == oracle[1]


def test_criterion_02_envelope_theorem_suite():
    with criterion(2, "envelope is the greatest isotone subadditive minorant"):
        for f, probes in envelope_instances():
            # isotone and subadditive on probe pairs, exactly
            for p, q in zip(probes[:5], probes[5:]):
                ep = subadditive_envelope(f, p)[0]
                eq = subadditive_envelope(f, q)[0]
                assert subadditive_envelope(f, p + q)[0] <= ep + eq
                assert ep <= subadditive_envelope(f, p + q)[0]
            # dominated by the samples
            equal_on_samples = True
            for a, v in f.items():
                value = subadditive_envelope(f, a)[0]
                assert value <= v
                equal_on_samples = equal_on_samples and value == v
            # restriction equality holds exactly for the subadditive isotone samples
            iso_ok, _ = is_isotone(f)
            verdict = iso_ok and is_subadditive(f)[0]
            assert equal_on_samples == verdict
            # maximality over explicit isotone subadditive minorants
            support = projection_support(f)

            def supported_sum(p, support=support):
                return sum((p.coords[j - 1] for j in support), F(0))

            positive = [(a, v) for a, v in f.items() if supported_sum(a) > 0]
            scale = (
                min(v / supported_sum(a) for a, v in positive) if positive else F(0)
            )
            check_probes = probes[:5] + [origin(f.dim)]
            assert envelope_maximality_check(f, lambda p: F(0), check_probes)
            assert envelope_maximality_check(
                f, lambda p, s=scale, ss=supported_sum: s * ss(p), check_probes
            )


def factor_collections(count=100, seed=92):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(
            tuple(
                random_metric_space(rng, max_points=4)
                for _ in range(rng.randint(1, 3))
            )
        )
    return out


def test_criterion_03_named_combiners_preserve_metrics():
    collections = factor_collections()
    with criterion(3, "SUM/MAX/CAPPED_SUM products are metrics, exactly"):
        for factors in collections:
            for name in ("SUM", "MAX", "CAPPED_SUM"):
                _, matrix = product_metric(
                    ProductSpec(factors, named_combiner(name, cap=F(1)))
                )
                assert verify_metric(matrix) == (True, None)
    with criterion(3, "SQUARE_SUM fails on three-point line factors", budget=1):
        line = line_space([0, 1, 2])
        _, matrix = product_metric(
            ProductSpec((line, line), named_combiner("SQUARE_SUM"))
        )
        ok, violation = verify_metric(matrix)
        assert not ok and violation.kind == "triangle"
        assert violation.indices is not None
    with criterion(3, "SQRT_SUM_SQ products are metrics within 1e-12"):
        for factors in collections:
            _, matrix = product_metric(
                ProductSpec(factors, named_combiner("SQRT_SUM_SQ"))
            )
            ok, violation = verify_metric(matrix, tol=1e-12)
            assert ok, violation


def random_grid_combiner(rng, factors):
    grids = [sp.distance_set() for sp in factors]
    pts = [PointN(tup) for tup in itertools.product(*grids)]
    raw = {p: rng.choice(VALUE_GRID) for p in pts}
    values = {
        p: max(raw[q] for q in pts if leq(q, p))
        for p in pts
    }
    return SampledFunction(values)


def test_criterion_04_extraction_round_trip():
    rng = random.Random(4242)
    with criterion(4, "extraction inverts product construction exactly"):
        for _ in range(50):
            factors = tuple(
                random_metric_space(rng, max_points=3)
                for _ in range(rng.randint(1, 3))
            )
            combiner = random_grid_combiner(rng, factors)
            _, matrix = product_metric(ProductSpec(factors, combiner))
            assert extract_product_function(matrix, factors) == combiner
        # a metric that does not factor raises with the conflicting pairs
        factors = (
            FiniteMetricSpace(["a0", "a1"], [[0, 1], [1, 0]]),
            FiniteMetricSpace(["b0", "b1"], [[0, 1], [1, 0]]),
        )
        matrix = [[F(0)] * 4 for _ in range(4)]
        pairs = {(0, 1): F(3, 2), (0, 2): F(3, 2), (1, 3): F(3, 2),
                 (2, 3): F(3, 2), (0, 3): F(2), (1, 2): F(3)}
        for (i, j), v in pairs.items():
            matrix[i][j] = matrix[j][i] = v
        assert verify_metric(matrix) == (True, None)
        with pytest.raises(NotWellDefinedError):
            extract_product_function(matrix, factors)


def test_criterion_05_difference_bound_and_fixed_points():
    with criterion(5, "difference bound and modulus fixed points on the default lattice", budget=10):
        for name in ("SUM", "MAX", "CAPPED_SUM"):
            grid = combiner_grid(name, n=2)
            assert difference_bound_holds(grid) == (True, None)
            ok, report = is_fixed_point(grid)
            assert ok and report.max_deviation == 0
        square = combiner_grid("SQUARE_SUM", n=2)
        ok, witness = difference_bound_holds(square)
        assert not ok and witness is not None
        ok, report = is_fixed_point(square)
        assert not ok and report.max_deviation > 0


def test_criterion_06_cantor_decomposition():
    with criterion(6, "triadic distances decompose into verified Cantor pairs"):
        for num in range(0, 3**6 + 1):
            t = F(num, 3**6)
            x, y = cantor_decompose(t)
            assert x - y == t and in_cantor(x) and in_cantor(y)
        rng = random.Random(66)
        for _ in range(200):
            k = rng.randint(0, 12)
            t = F(rng.randint(0, 3**k), 3**k)
            x, y = cantor_decompose(t)
            assert x - y == t and in_cantor(x) and in_cantor(y)
            scaled = t * 3 ** rng.randint(0, 3)
            sx, sy = scaled_cantor_distance_witness(scaled)
            assert sx - sy == scaled


def test_criterion_07_dilated_cantor_refutation():
    with criterion(7, "no dilated-Cantor triple realizes gaps 1/3 and 1/6", budget=120):
        report = scaled_cantor_triple_refutation(10)
        assert report.ok
        reasons = dict((str(v), r) for v, r in report.candidate_rejections)
        assert reasons == {
            "-1/6": "outside [0, 1]",
            "7/6": "outside [0, 1]",
            "1/6": "no digit-{0,2} expansion",
            "1/2": "no digit-{0,2} expansion",
            "5/6": "no digit-{0,2} expansion",
        }
        assert len(report.combos) == 6
        assert all(c.pair_count >= 1 for c in report.combos)
        assert not report.stray_pairs
        assert report.gap_holds
        level_set = scaled_cantor_level_set(8)
        assert three_point_search(level_set, F(1, 3), F(1, 6)) is None


def test_criterion_08_transcendental_embedding():
    rng = random.Random(888)
    with criterion(8, "finite rational sets embed isometrically off the rationals"):
        for _ in range(100):
            values = sorted(
                {
                    F(rng.randint(-100, 100), rng.randint(1, 20))
                    for _ in range(rng.randint(1, 8))
                }
            )
            images = transcendental_embed(values)
            assert all(img.r != 0 for img in images.values())
            original = sorted(abs(a - b) for a in values for b in values)
            shifted = sorted(abs((images[a] - images[b]).q) for a in values for b in values)
            assert original == shifted
            assert all((images[a] - images[b]).is_rational() for a in values for b in values)
        tau = SymbolicAffine(F(0), F(1))
        assert rational_subspace_refutation(tau).tau_coefficient == 1
        two_tau_one = SymbolicAffine(F(1), F(2))
        assert rational_subspace_refutation(two_tau_one).tau_coefficient == 2


def test_criterion_09_unbounded_gauge_witness():
    with criterion(9, "gauged ultrametric distances exceed any bound"):
        x, y = unbounded_witness(10**6)
        assert x != y and 0 <= x < 1 and 0 <= y < 1
        assert unbounded_gauge(max_ultrametric(x, y)) > 10**6
        rng = random.Random(9)
        for _ in range(1000):
            a, b, c = (F(rng.randint(0, 9999), 10000) for _ in range(3))
            assert max_ultrametric(a, b) <= max(
                max_ultrametric(a, c), max_ultrametric(c, b)
            )


def test_criterion_10_continuations_restrict_to_samples():
    with criterion(10, "continuations restrict to the samples and stay positive"):
        rng = random.Random(1001)
        for _ in range(100):
            f = random_sampled_function(rng, mode="isotone")
            for a, v in f.items():
                assert sup_continuation(f, a) == v
        rng = random.Random(1002)
        for _ in range(100):
            f = random_sampled_function(rng, mode="amenable", size=rng.randint(1, 6))
            for a, v in f.items():
                assert amenable_isotone_continuation(f, a) == v
            probes = 0
            while probes < 20:
                y = random_point(rng, f.dim)
                if y.is_origin():
                    continue
                probes += 1
                assert amenable_isotone_continuation(f, y) > 0
