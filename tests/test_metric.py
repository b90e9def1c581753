import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest

from oracles import (
    distance_increase_violation,
    metric_violation,
    product_conflict,
    product_pairs,
    root_metric_violation,
)
from product_triangle_table import closure_space

from isoprod import fileio, metric
from isoprod.combiners import COMBINER_NAMES, named_combiner
from isoprod.errors import (
    CombinerDomainGapError,
    InvalidMetricError,
    IsoprodError,
    MissingOriginError,
    NotIsotoneError,
    NotWellDefinedError,
)
from isoprod.fixtures import (
    line_space,
    random_metric_space,
    random_sampled_function,
    sampled_combiner,
)
from isoprod.metric import (
    FiniteMetricSpace,
    ProductSpec,
    extract_product_function,
    is_distance_increasing,
    max_ultrametric,
    metric_preserving_verdict,
    product_metric,
    unbounded_gauge,
    unbounded_witness,
    verify_metric,
)
from isoprod.points import PointN, first_inversion, point
from isoprod.sampled import SampledFunction
from isoprod.verbs import dispatch


def two_point_space(name, d):
    return FiniteMetricSpace([f"{name}0", f"{name}1"], [[0, d], [F(d), 0]])


def test_verify_metric_examples():
    assert verify_metric([[F(0)]]) == (True, None)
    assert verify_metric([[F(0), F(1)], [F(1), F(0)]]) == (True, None)
    ok, violation = verify_metric(
        [[F(0), F(1), F(3)], [F(1), F(0), F(1)], [F(3), F(1), F(0)]]
    )
    assert not ok
    assert violation.kind == "triangle" and violation.indices == (0, 1, 2)


def test_verify_metric_other_axioms():
    ok, violation = verify_metric([[F(0), F(1)], [F(2), F(0)]])
    assert not ok and violation.kind == "symmetry" and violation.indices == (0, 1)
    ok, violation = verify_metric([[F(1)]])
    assert not ok and violation.kind == "identity"
    ok, violation = verify_metric([[F(0), F(0)], [F(0), F(0)]])
    assert not ok and violation.kind == "identity" and violation.indices == (0, 1)
    with pytest.raises(ValueError, match="square"):
        verify_metric([[F(0), F(1)]])
    with pytest.raises(ValueError, match="negative"):
        verify_metric([[F(0), F(-1)], [F(-1), F(0)]])


def test_verify_metric_tolerance():
    eps = 1e-13
    matrix = [[0.0, 1.0, 2.0 + eps], [1.0, 0.0, 1.0], [2.0 + eps, 1.0, 0.0]]
    ok, _ = verify_metric(matrix, tol=1e-12)
    assert ok
    ok, violation = verify_metric(matrix, tol=1e-14)
    assert not ok and violation.kind == "triangle"


def test_verify_metric_refuses_what_no_verdict_answers():
    # a nan or infinite entry and a nan or negative tol raise ValueError, after the square and
    # negative-entry checks: a nan compares false, so it would pass every check (about 1 ms)
    nan, inf = float("nan"), float("inf")
    cases = [
        ([[0.0, nan], [nan, 0.0]], 1e-12, "entry at (0, 1) is not a finite number: nan"),
        ([[0.0, 1.0], [inf, 0.0]], 1e-12, "entry at (1, 0) is not a finite number: inf"),
        ([[F(0), F(1)], [F(1), inf]], 0, "entry at (1, 1) is not a finite number: inf"),
        ([[F(0), F(1)], [F(1), F(0)]], nan, "the tolerance must be a nonnegative number, got nan"),
        ([[0.0, 5.0], [1.0, 0.0]], nan, "the tolerance must be a nonnegative number, got nan"),
        ([[F(0), F(1)], [F(1), F(0)]], -1, "the tolerance must be a nonnegative number, got -1"),
        ([[F(0), F(1)], [F(1), F(0)]], F(-1, 2), "the tolerance must be a nonnegative number, got -1/2"),
        ([[0.0, 1.0], [1.0, 0.0]], -1e-12, "the tolerance must be a nonnegative number, got -1e-12"),
        # the earlier checks keep their texts and their precedence
        ([[0.0, nan], [nan, 0.0], [0.0, 0.0]], nan, "matrix is not square"),
        ([[0.0, nan], [-1.0, 0.0]], nan, "negative entry at (1, 0)"),
        ([[0.0, -inf], [nan, 0.0]], 1e-12, "negative entry at (0, 1)"),
        ([[0.0, nan], [nan, 0.0]], -1, "the tolerance must be a nonnegative number, got -1"),
    ]
    for matrix, tol, text in cases:
        for coded in (False, True):  # nested rows, and the same matrix coded by position
            values = [v for row in matrix for v in row] if coded else None
            rows = [range(i * len(row), (i + 1) * len(row)) for i, row in enumerate(matrix)] if coded else matrix
            with pytest.raises(ValueError) as err:
                verify_metric(rows, tol, values=values)
            assert str(err.value) == text
    # an infinite tol is still a question with an answer (every entry vanishes within it), and
    # so is a zero one of either type
    ok, violation = verify_metric([[0.0, 1.0], [2.0, 0.0]], inf)
    assert not ok and (violation.kind, violation.indices) == ("identity", (0, 1))
    assert verify_metric([[F(0), F(1)], [F(1), F(0)]], -0.0) == (True, None)


def _candidate_matrices(seed, count):
    """Random (matrix, tol) pairs, most of them near the triangle boundary.

    Each starts from a shortest-path metric on 0-14 points, so many
    triangles are tight, scaled by up to 3**50 over a denominator up to
    10**9 + 7.  Most then get one entry pair raised, or one entry
    broken, by a rational of another denominator, and tol is 0 or a
    rational close to that change.  Some hold their integral entries as
    ints, and a few become floats with tol 1e-12, the inexact path.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(15)
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = rng.randint(1, 12)
        for k, i, j in itertools.product(range(n), repeat=3):
            d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        scale = rng.choice([1, 1, 2**64, 3**50])
        den = rng.choice([1, 2, 6, 35, 10**9 + 7])
        matrix = [[F(v * scale, den) for v in row] for row in d]
        delta = F(rng.randint(1, 3) * scale, den * rng.choice([1, 4, 5, 97]))
        tol = rng.choice([0, 0, 0, delta, delta / 2, delta / 3, 2 * delta])
        move = rng.random()
        if n >= 2:
            i, k = rng.sample(range(n), 2)
            if move < 0.5:
                matrix[i][k] = matrix[k][i] = matrix[i][k] + delta
            elif move < 0.6:
                matrix[i][k] += delta
            elif move < 0.7:
                # symmetric within tol, so a failed triangle of the last row
                # need not fail in the mirrored row k
                i, k, tol = n - 1, rng.randrange(n - 1), delta / 2
                matrix[i][k] += delta
                matrix[k][i] += delta / 2
            elif move < 0.75:
                matrix[i][k] = matrix[k][i] = F(0)
            elif move < 0.78:
                matrix[i][i] = delta
            elif move < 0.8:
                matrix[i][k] = -delta
        shape = rng.random()
        if shape < 0.05:
            matrix = [[float(v) for v in row] for row in matrix]
            tol = 1e-12
        elif shape < 0.15:
            matrix = [[v.numerator if v.denominator == 1 else v for v in row] for row in matrix]
        yield matrix, tol


def _library_violation(matrix, tol, **values):
    ok, violation = verify_metric(matrix, tol, **values)
    return None if ok else (violation.kind, violation.indices, violation.detail)


def _outcome(check, matrix, tol):
    try:
        return check(matrix, tol)
    except ValueError as exc:
        return "error", str(exc)


def test_verify_metric_agrees_with_direct_scan():
    kinds = Counter()
    for matrix, tol in _candidate_matrices(7070, 2000):
        expected = _outcome(metric_violation, matrix, tol)
        assert _outcome(_library_violation, matrix, tol) == expected
        kinds[expected[0] if expected else "metric", len(matrix) > 1] += 1
    assert kinds["triangle", True] >= 250
    assert kinds["metric", True] >= 250
    assert kinds["metric", False] >= 20  # n = 0 and n = 1
    assert {"symmetry", "identity", "error"} <= {kind for kind, _ in kinds}


def _coded(matrix, rng):
    """values and codes with values[codes[i][j]] == matrix[i][j]: either each distinct value once
    (its first object, so an int may stand for an equal Fraction) or one code per entry, shuffled."""
    if rng.random() < 0.5:
        index = {}
        codes = [[index.setdefault(v, len(index)) for v in row] for row in matrix]
        return list(index), codes
    n = len(matrix)
    order = list(range(n * n))
    rng.shuffle(order)
    values = [None] * (n * n)
    for k, v in zip(order, itertools.chain.from_iterable(matrix)):
        values[k] = v
    return values, [order[i * n:(i + 1) * n] for i in range(n)]


def test_verify_metric_on_codes_and_the_verb_agree_with_direct_scan(tmp_path, monkeypatch):
    # 250 candidates, about 1 s: verify_metric on codes, and each exact matrix as a file through
    # verify-metric, against the direct scan; the packed test runs with byte fields and wider ones
    packed, widths = metric._packed_triangle_failures, set()

    def recording(m, bound):
        widths.add(2 * max(map(max, m), default=0) + bound < 2 ** 7)  # fields of w <= 8 bits
        return packed(m, bound)

    monkeypatch.setattr(metric, "_packed_triangle_failures", recording)
    rng, kinds = random.Random(9191), Counter()
    for k, (matrix, tol) in enumerate(_candidate_matrices(9090, 250)):
        expected = _outcome(metric_violation, matrix, tol)
        values, codes = _coded(matrix, rng)
        coded = _outcome(lambda _, t: _library_violation(codes, t, values=values), matrix, tol)
        assert coded == _outcome(_library_violation, matrix, tol) == expected
        if any(isinstance(v, float) for row in matrix for v in row):
            continue
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps({"dist": [[fileio.format_rational(v) for v in row] for row in matrix]}))
        code, report = dispatch(["verify-metric", "--space", str(path), "--tol", fileio.format_rational(tol)])
        kinds[expected[0] if expected else "metric"] += 1
        if expected and expected[0] == "error":
            assert (code, report["error"]) == (2, f"ValueError: {expected[1]}")
            continue
        (verdict,) = report["verdicts"]
        assert (code, verdict["ok"]) == ((1, False) if expected else (0, True))
        if expected:
            witness = verdict["witness"]
            assert (witness["kind"], tuple(map(int, witness["labels"])), witness["detail"]) == expected
    assert widths == {True, False}
    assert min(kinds[kind] for kind in ("metric", "triangle", "symmetry", "identity", "error")) >= 3


def test_product_metric_agrees_with_per_pair_combiner():
    # every named combiner and a sampled one with arbitrary grid values,
    # so a misplaced table code shows as a wrong entry
    rng = random.Random(8080)
    for _ in range(40):
        factors = tuple(
            random_metric_space(rng, max_points=4) for _ in range(rng.randint(1, 3))
        )
        grid = itertools.product(*(sp.distance_set() for sp in factors))
        values = {PointN(tup): F(rng.randint(0, 9), rng.choice([1, 3])) for tup in grid}
        values[PointN((0,) * len(factors))] = F(0)
        cap = F(rng.randint(1, 8), 2)
        combiners = [named_combiner(name, cap) for name in COMBINER_NAMES]
        combiners.append(SampledFunction(values))
        for combiner in combiners:
            labels, matrix = product_metric(ProductSpec(factors, combiner))
            if isinstance(combiner, SampledFunction):
                apply = lambda tup: combiner.value(PointN(tup))  # noqa: E731
            else:
                apply = combiner
            assert labels == list(itertools.product(*(sp.labels for sp in factors)))
            for pair, tup, value in product_pairs(matrix, factors):
                assert value == F(apply(tup)), (combiner, pair)
            assert all(row == list(col) for row, col in zip(matrix, zip(*matrix)))


def _product_argv(paths, combiner, cap, verify):
    factors = [arg for path in paths for arg in ("--factor", str(path))]
    if isinstance(combiner, str):
        use = ["--combiner", combiner, "--cap", fileio.format_rational(cap)]
    else:
        use = ["--combiner-file", str(combiner)]
    return ["product", *factors, *use, *(["--verify"] if verify else [])]


def test_product_verb_matches_the_nested_row_report(tmp_path, monkeypatch):
    # the product report, coded, equals one built from the nested rows: the matrix as
    # matrix_jsonable writes the rows, and verify_metric's verdict on them; each passing product
    # is proved on its factors' triples, and each failing one goes on to the packed scan
    packed, proved, taken, running = metric._packed_triangle_failures, metric.product_metric_proved, [], {}

    def recording_scan(m, bound):
        if len(m) == running.get("size"):  # the product matrix, not a factor being loaded
            taken.append("packed")
        return packed(m, bound)

    def recording_proof(*args):
        taken.append(proved(*args))
        return taken[-1]

    monkeypatch.setattr(metric, "_packed_triangle_failures", recording_scan)
    monkeypatch.setattr(metric, "product_metric_proved", recording_proof)
    rng, outcomes, deciders = random.Random(4242), Counter(), Counter()
    for trial in range(8):
        # collinear triples fail SQUARE_SUM's triangles; the product outgrows every factor
        factors = [line_space([0, 1, 2]), line_space([0, 1]),
                   *(random_metric_space(rng, max_points=3) for _ in range(rng.randint(0, 2)))]
        paths = [tmp_path / f"t{trial}f{k}.json" for k in range(len(factors))]
        for space, path in zip(factors, paths):
            fileio.dump_metric_space(space, path)
        grid = itertools.product(*(sp.distance_set() for sp in factors))
        values = {PointN(tup): F(rng.randint(0, 9), rng.choice([1, 3])) for tup in grid}
        values[PointN((0,) * len(factors))] = F(0)
        sampled = SampledFunction(values)
        sampled_path = tmp_path / f"t{trial}c.json"
        fileio.dump_sampled_function(sampled, sampled_path)
        cap = F(rng.randint(1, 8), 2)
        for combiner_name in (*COMBINER_NAMES, "sampled"):
            combiner = sampled if combiner_name == "sampled" else named_combiner(combiner_name, cap)
            labels, matrix = product_metric(ProductSpec(tuple(factors), combiner))
            running.update(size=len(labels), combiner=combiner_name)
            for verify in (False, True):
                target = sampled_path if combiner_name == "sampled" else combiner_name
                taken.clear()
                code, report = dispatch(_product_argv(paths, target, cap, verify))
                decided = tuple(taken)
                expected = [{"check": "product-matrix", "ok": True, "matrix": fileio.matrix_jsonable(labels, matrix)}]
                if verify and combiner_name == "SQRT_SUM_SQ":  # decided on the exact squares
                    squares = product_metric(ProductSpec(tuple(factors), named_combiner("SQUARE_SUM")))[1]
                    assert root_metric_violation(squares) is None
                    expected.append({"check": "metric-axioms", "ok": True})
                elif verify:
                    ok, violation = verify_metric(matrix)
                    expected.append({"check": "metric-axioms", "ok": ok})
                    if violation is not None:
                        expected[1]["witness"] = {"kind": violation.kind, "detail": violation.detail,
                                                  "labels": ["|".join(labels[i]) for i in violation.indices]}
                    outcomes[ok] += 1
                assert (code, report["verdicts"]) == (0 if all(v["ok"] for v in expected) else 1, expected)
                if verify:
                    kind = expected[1]["witness"]["kind"] if "witness" in expected[1] else "metric"
                    deciders[combiner_name == "SQRT_SUM_SQ", kind, decided] += 1
            if combiner_name == "SQRT_SUM_SQ":  # JSON floats, the verdict decided on the exact squares
                assert all(isinstance(v, float) for row in report["verdicts"][0]["matrix"]["dist"] for v in row)
    # which path decided each verified product: the factor triples on every passing product;
    # on a failing one verify_metric, whose packed scan finds each triangle witness
    assert deciders.keys() <= {(False, "metric", (True,)), (True, "metric", (True,)),
                               (False, "triangle", (False, "packed")), (False, "identity", (False,))}, deciders
    assert deciders[True, "metric", (True,)] == 8 and deciders[False, "metric", (True,)] >= 10
    assert deciders[False, "triangle", (False, "packed")] >= 10
    assert outcomes[True] >= 10 and outcomes[False] >= 10


def _squared_distances(rng):
    """Squared distances of up to 7 rational points in the plane, a third of the time all on one
    line, so many root triangles hold with equality; then one entry pair raised or lowered by a
    small rational, or set to 0, or one entry alone changed."""
    n = rng.randint(2, 7)
    line = rng.random() < 1 / 3
    pts = [(F(rng.randint(-6, 6), rng.choice([1, 2, 3])), 0 if line else F(rng.randint(-6, 6), rng.choice([1, 5])))
           for _ in range(n)]
    squares = [[(x - u) ** 2 + (y - v) ** 2 for u, v in pts] for x, y in pts]
    i, k = rng.sample(range(n), 2)
    delta, move = F(1, rng.choice([1, 7, 10 ** 6, 10 ** 15])), rng.random()
    if move < 0.35:
        squares[i][k] = squares[k][i] = squares[i][k] + delta
    elif move < 0.5:
        squares[i][k] = squares[k][i] = max(squares[i][k] - delta, F(0))
    elif move < 0.55:
        squares[i][k] = squares[k][i] = F(0)
    elif move < 0.6:
        squares[i][k] += delta
    elif move < 0.62:
        squares[i][i] = delta
    return squares


def test_sqrt_sum_sq_is_decided_exactly_on_its_squares(tmp_path):
    # 600 squared-distance matrices (about 0.3 s): verify_metric on float roots, decided on the
    # squares, gives the first violation of the algebraic direct scan; then the product verb
    rng, kinds = random.Random(2323), Counter()
    for _ in range(600):
        squares = _squared_distances(rng)
        index = {}
        codes = [[index.setdefault(v, len(index)) for v in row] for row in squares]
        roots = [math.sqrt(v) for v in index]
        ok, violation = verify_metric(codes, values=roots, squares=list(index))
        expected = root_metric_violation(squares)
        assert (None if ok else (violation.kind, violation.indices)) == expected
        if violation is not None:
            i, j, *rest = violation.indices
            assert violation.detail.startswith(f"d({i},{rest[0] if rest else j})={roots[codes[i][rest[0] if rest else j]]}")
        kinds[expected[0] if expected else "metric"] += 1
    assert min(kinds[kind] for kind in ("metric", "triangle", "symmetry", "identity")) >= 20, kinds
    # the verb: line factors, whose products hold collinear triples, and distances below 1e-12,
    # which the old absolute tolerance 1e-12 took for zero (identity, exit 1)
    tiny = FiniteMetricSpace(["a", "b"], [[0, F(1, 10 ** 13)], [F(1, 10 ** 13), 0]])
    spaces = [tiny, line_space([0, 1, 3]), line_space([0, F(1, 10 ** 14), 1]), random_metric_space(rng, max_points=4)]
    for trial in range(6):
        factors = rng.sample(spaces, rng.randint(1, 3))
        paths = [tmp_path / f"t{trial}f{k}.json" for k in range(len(factors))]
        for space, path in zip(factors, paths):
            fileio.dump_metric_space(space, path)
        code, report = dispatch(_product_argv(paths, "SQRT_SUM_SQ", 1, True))
        squares = product_metric(ProductSpec(tuple(factors), named_combiner("SQUARE_SUM")))[1]
        assert root_metric_violation(squares) is None
        assert (code, report["verdicts"][1]) == (0, {"check": "metric-axioms", "ok": True})
    # the reported case, through the verb's own argument parsing
    (tmp_path / "small.json").write_text(json.dumps({"labels": ["a", "b"], "dist": [
        ["0", "1/10000000000000"], ["1/10000000000000", "0"]]}))
    code, report = dispatch(["product", "--factor", str(tmp_path / "small.json"), "--combiner", "SQRT_SUM_SQ", "--verify"])
    assert (code, report["verdicts"][1]) == (0, {"check": "metric-axioms", "ok": True})


def _product_table(rng, factors):
    """A table on the factors' distance grid, its kind, and whether it holds squares of roots: random
    values, an isotone capped sum, a capped sum with one entry lowered (seldom isotone), a capped sum
    that vanishes at one nonzero tuple, or weighted sums of squares or of fourth powers."""
    grid = list(itertools.product(*(sp.distance_set() for sp in factors)))
    kind, cap = rng.choice(("random", "capped", "lowered", "vanishing", "roots")), F(rng.randint(1, 8), 2)
    if kind == "random":
        table = [F(rng.randint(0, 9), rng.choice([1, 3])) for _ in grid]
    elif kind == "roots":  # a weighted Euclidean product, or roots of fourth powers, failing on (2, 1, 1)
        power, weights = rng.choice([2, 4]), [rng.choice([1, 1, 2]) for _ in factors]
        table = [sum((w * x ** power for w, x in zip(weights, tup)), F(0)) for tup in grid]
    else:
        table = [min(cap, sum(tup, F(0))) for tup in grid]
        if len(grid) > 1 and kind != "capped":
            g = rng.randrange(1, len(grid))
            table[g] = F(0) if kind == "vanishing" else table[g] / rng.choice([2, 3, 5])
    table[0] = F(0)
    return table, kind, kind == "roots"


def test_product_proof_agrees_with_the_matrix_scans(tmp_path, monkeypatch):
    # 400 products of 1-3 factors (random metrics of up to 4 points, line factors), about 1 s:
    # product_metric_proved never passes a product that verify_metric or the direct scans fail, and
    # with no count rule it gives their verdict exactly; a third of the non-root tables also go
    # through product --verify as sampled combiner files
    rng, seen = random.Random(6262), Counter()
    for trial in range(400):
        factors = tuple(random_metric_space(rng, max_points=4) if rng.random() < 0.7
                        else line_space(rng.sample(range(7), rng.randint(1, 3))) for _ in range(rng.randint(1, 3)))
        table, kind, roots = _product_table(rng, factors)
        _, codes = product_metric(ProductSpec(factors, named_combiner("SUM")), values=[])
        squares = table if roots else None
        values = [math.sqrt(v) for v in table] if roots else table
        ok, _ = verify_metric(codes, values=values, squares=squares)
        if len(codes) <= 24:
            matrix = [[table[c] for c in row] for row in codes]
            assert ok == ((root_metric_violation if roots else metric_violation)(matrix) is None)
        proved = metric.product_metric_proved(factors, values, squares)
        assert ok or not proved, (trial, kind)
        with monkeypatch.context() as patch:
            patch.setattr(metric, "TRIPLES_PER_ROW_PAIR", 10 ** 9)
            assert metric.product_metric_proved(factors, values, squares) == ok, (trial, kind)
        seen[kind, ok, proved] += 1
        if not roots and trial % 3 == 0:
            paths = [tmp_path / f"t{trial}f{k}.json" for k in range(len(factors))]
            for space, path in zip(factors, paths):
                fileio.dump_metric_space(space, path)
            grid = itertools.product(*(sp.distance_set() for sp in factors))
            fileio.dump_sampled_function(SampledFunction(zip(map(PointN, grid), table)), tmp_path / f"t{trial}c.json")
            code, report = dispatch(_product_argv(paths, tmp_path / f"t{trial}c.json", 1, True))
            assert (code, report["verdicts"][1]["ok"]) == (0 if ok else 1, ok), (trial, kind)
    for kind in ("random", "lowered", "vanishing", "roots"):
        assert seen[kind, False, False] >= 10, seen
    for kind in ("random", "capped", "lowered", "roots"):
        assert seen[kind, True, True] >= 10, seen


def test_passing_products_never_reach_the_matrix_scan(tmp_path, monkeypatch):
    # about 0.1 s: products of closure factors, as the bench builds them, pass product --verify
    # with the packed scan of the product matrix raising, so a count rule that always sent them
    # to the scan fails here; a 5x6x6 line product still goes to that scan, refused before any
    # sum set is built (unrefused, its proof tests over a million pruned triples)
    packed, scans = metric._packed_triangle_failures, []

    def refusing(m, bound):
        if len(m) > 8:  # the product matrix, not a factor of at most 6 points being loaded
            scans.append(len(m))
            if len(m) != 180:
                raise AssertionError(f"the packed scan ran on a product of {len(m)} points")
        return packed(m, bound)

    monkeypatch.setattr(metric, "_packed_triangle_failures", refusing)
    rng = random.Random(2024)

    def verify(factors, *combiner):
        paths = [tmp_path / f"f{len(scans)}-{k}.json" for k in range(len(factors))]
        for space, path in zip(factors, paths):
            fileio.dump_metric_space(space, path)
        return dispatch(["product", *(arg for path in paths for arg in ("--factor", str(path))), *combiner, "--verify"])

    for sizes, combiner in (((4, 4, 4), ["--combiner", "SUM"]), ((5, 5, 5), ["--combiner", "MAX"]),
                            ((5, 6, 6), ["--combiner", "CAPPED_SUM", "--cap", "3"]), ((5, 5, 5), "sampled"),
                            ((6, 6, 6), ["--combiner", "SQRT_SUM_SQ"])):
        factors = [closure_space(rng, size) for size in sizes]
        if combiner == "sampled":
            grid = itertools.product(*(sp.distance_set() for sp in factors))
            fileio.dump_sampled_function(SampledFunction({PointN(t): max(t) for t in grid}), tmp_path / "max.json")
            combiner = ["--combiner-file", str(tmp_path / "max.json")]
        code, report = verify(factors, *combiner)
        assert (code, report["verdicts"][1]) == (0, {"check": "metric-axioms", "ok": True}), sizes
    assert scans == []
    lines = [line_space(rng.sample(range(1, 40), size - 1) + [0]) for size in (5, 6, 6)]
    table = []
    product_metric(ProductSpec(tuple(lines), named_combiner("SUM")), values=table)
    tracemalloc.start()
    assert not metric.product_metric_proved(lines, table)
    assert tracemalloc.get_traced_memory()[1] < 200_000  # bytes: the factors' triples, no sum set
    tracemalloc.stop()
    code, report = verify(lines, "--combiner", "SUM")
    assert (code, report["verdicts"][1], scans) == (0, {"check": "metric-axioms", "ok": True}, [180])


def test_finite_metric_space_validation():
    space = FiniteMetricSpace(["a", "b"], [["0", "1/2"], ["1/2", "0"]])
    assert space.distance(0, 1) == F(1, 2)
    assert space.distance_set() == (F(0), F(1, 2))
    with pytest.raises(InvalidMetricError):
        FiniteMetricSpace(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    with pytest.raises(InvalidMetricError):
        FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]])


def test_product_metric_sum_and_max_are_metrics():
    factors = (two_point_space("a", 1), two_point_space("b", 2))
    labels, matrix = product_metric(ProductSpec(factors, named_combiner("SUM")))
    assert labels[0] == ("a0", "b0")
    assert verify_metric(matrix) == (True, None)
    _, matrix = product_metric(ProductSpec(factors, named_combiner("MAX")))
    assert verify_metric(matrix) == (True, None)


def test_product_metric_square_sum():
    # with 2-point factors no coordinate ever adds twice, so the square
    # combiner squeaks through with triangle equalities
    factors = (two_point_space("a", 1), two_point_space("b", 2))
    _, matrix = product_metric(ProductSpec(factors, named_combiner("SQUARE_SUM")))
    assert verify_metric(matrix) == (True, None)
    # three collinear points expose the failure
    line = line_space([0, 1, 2])
    _, matrix = product_metric(ProductSpec((line, line), named_combiner("SQUARE_SUM")))
    ok, violation = verify_metric(matrix)
    assert not ok and violation.kind == "triangle"


def test_product_metric_sampled_combiner_and_domain_gap():
    factors = (two_point_space("a", 1), two_point_space("b", 2))
    combiner = sampled_combiner("SUM", [0, 1, 2], n=2)
    labels, matrix = product_metric(ProductSpec(factors, combiner))
    assert verify_metric(matrix) == (True, None)
    sparse = SampledFunction([(point(0, 0), 0), (point(1, 2), 1)])
    with pytest.raises(CombinerDomainGapError):
        ProductSpec(factors, sparse)


def test_sup_metric():
    factors = (two_point_space("a", 1), two_point_space("b", 2))
    labels, matrix = product_metric(ProductSpec(factors, named_combiner("MAX")))
    entries = {v for row in matrix for v in row}
    assert entries == {F(0), F(1), F(2)}
    assert verify_metric(matrix) == (True, None)
    one = two_point_space("a", "3/2")
    _, matrix = product_metric(ProductSpec((one,), named_combiner("MAX")))
    assert matrix[0][1] == F(3, 2)
    assert matrix[0][0] == 0


def test_is_distance_increasing():
    factors = (two_point_space("a", 1), two_point_space("b", 2))
    _, matrix = product_metric(ProductSpec(factors, named_combiner("SUM")))
    assert is_distance_increasing(matrix, factors) == (True, None)
    # invert one comparison: make the double step cheaper than a single one
    bad = [row[:] for row in matrix]
    bad[0][3] = bad[3][0] = F(1, 2)
    ok, witness = is_distance_increasing(bad, factors)
    assert not ok
    assert witness.small_value > witness.large_value
    single = (FiniteMetricSpace(["x"], [[0]]),)
    assert is_distance_increasing([[F(0)]], single) == (True, None)


def test_extract_product_function_round_trip():
    factors = (two_point_space("a", 1), two_point_space("b", 2))
    spec = ProductSpec(factors, named_combiner("SUM"))
    _, matrix = product_metric(spec)
    extracted = extract_product_function(matrix, factors)
    expected = SampledFunction(
        [(point(a, b), F(a) + F(b)) for a in (0, 1) for b in (0, 2)]
    )
    assert extracted == expected


def test_extract_single_factor_scaling():
    space = line_space([0, 1, 2])
    doubled = [[2 * space.distance(i, j) for j in range(3)] for i in range(3)]
    extracted = extract_product_function(doubled, (space,))
    for t in (0, 1, 2):
        assert extracted.value(point(t)) == 2 * t


def test_extract_not_well_defined():
    # a metric on the 2x2 product whose diagonals disagree cannot factor
    factors = (two_point_space("a", 1), two_point_space("b", 1))
    labels = [("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")]
    d = {(0, 1): F(3, 2), (0, 2): F(3, 2), (1, 3): F(3, 2), (2, 3): F(3, 2),
         (0, 3): F(2), (1, 2): F(3)}
    matrix = [[F(0)] * 4 for _ in range(4)]
    for (i, j), v in d.items():
        matrix[i][j] = matrix[j][i] = v
    assert verify_metric(matrix) == (True, None)
    with pytest.raises(NotWellDefinedError) as err:
        extract_product_function(matrix, factors)
    assert err.value.pair_a is not None and err.value.pair_b is not None


def test_extract_and_distance_increasing_need_a_square_product_matrix():
    factors = (two_point_space("a", 1), two_point_space("b", 2))
    _, matrix = product_metric(ProductSpec(factors, named_combiner("SUM")))
    cases = [
        (matrix[:3], "product of factor sizes is 4 but the matrix has 3 rows"),
        ([*matrix[:2], matrix[2] + [F(1)], matrix[3]], "product of factor sizes is 4 but row 2 has 5 entries"),
        ([*matrix[:3], matrix[3][:3]], "product of factor sizes is 4 but row 3 has 3 entries"),
    ]
    for bad, text in cases:
        for scan in (extract_product_function, is_distance_increasing):
            with pytest.raises(IsoprodError) as err:
                scan(bad, factors)
            assert type(err.value) is IsoprodError and str(err.value) == text


def test_distance_increasing_iff_extractable_isotone():
    rng = random.Random(808)
    from isoprod.sampled import is_isotone

    for _ in range(20):
        factors = tuple(
            random_metric_space(rng, max_points=3) for _ in range(rng.randint(1, 2))
        )
        combiner = rng.choice([named_combiner("SUM"), named_combiner("MAX")])
        _, matrix = product_metric(ProductSpec(factors, combiner))
        increasing, _ = is_distance_increasing(matrix, factors)
        extracted = extract_product_function(matrix, factors)
        assert increasing == is_isotone(extracted)[0]
        assert increasing


def _perturbed_products(seed, count, combiners=("SUM", "MAX", "CAPPED_SUM", "SQUARE_SUM")):
    """Random 1-3 factor products, most with a few entries moved off the combiner; a moved
    entry of an inexact combiner's float matrix is a float."""
    rng = random.Random(seed)
    for _ in range(count):
        factors = tuple(
            random_metric_space(rng, max_points=3) for _ in range(rng.randint(1, 3))
        )
        combiner = named_combiner(rng.choice(combiners))
        _, matrix = product_metric(ProductSpec(factors, combiner))
        n = len(matrix)
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                value = F(rng.randint(1, 12), rng.choice([1, 2, 4]))
                matrix[i][j] = value if combiner.exact else float(value)
                if rng.random() < 0.7:  # else the matrix is left asymmetric
                    matrix[j][i] = matrix[i][j]
        yield factors, matrix


def _extract_agrees(factors, matrix):
    """extract_product_function against a direct i <= j scan: its values, or its conflict pairs and
    message; whether the matrix was a product."""
    conflict = product_conflict(matrix, factors)
    if conflict is None:
        extracted = extract_product_function(matrix, factors)
        for _, tup, value in product_pairs(matrix, factors):
            assert extracted.value(PointN(tup)) == value
        return True
    pair_a, pair_b, tup, val_a, val_b = conflict
    with pytest.raises(NotWellDefinedError) as err:
        extract_product_function(matrix, factors)
    assert (err.value.pair_a, err.value.pair_b) == (pair_a, pair_b)
    assert str(err.value) == (
        f"pairs {pair_a} and {pair_b} share the distance tuple {PointN(tup)} "
        f"but have distances {val_a} and {val_b}"
    )
    return False


def _distance_increasing_agrees(factors, matrix):
    """is_distance_increasing against the direct scan of first-realizing pairs; its verdict."""
    expected = distance_increase_violation(matrix, factors)
    ok, violation = is_distance_increasing(matrix, factors)
    assert ok == (expected is None)
    if violation is not None:
        assert (
            violation.small_pair, violation.large_pair,
            violation.small_tuple, violation.large_tuple,
            violation.small_value, violation.large_value,
        ) == expected
    return ok


def test_extract_agrees_with_direct_pair_scan():
    # the conflict pairs and message against a direct i <= j scan
    outcomes = {_extract_agrees(factors, matrix) for factors, matrix in _perturbed_products(5150, 220)}
    assert outcomes == {True, False}


def test_distance_increasing_agrees_with_direct_pair_scan(monkeypatch):
    # the exact products, then 80 SQRT_SUM_SQ products of float entries (about 0.04 s more); the
    # quadratic scan is handed int rank tuples and ints only, a float scaled exactly through Fraction
    handed = set()

    def recording(keys, values):
        handed.update(type(x) for key in keys for x in (key, *key))
        handed.update(map(type, values))
        return first_inversion(keys, values)

    monkeypatch.setattr(metric, "first_inversion", recording)
    outcomes = {_distance_increasing_agrees(factors, matrix) for factors, matrix in _perturbed_products(6160, 220)}
    assert outcomes == {True, False}
    floats = [(factors, matrix) for factors, matrix in _perturbed_products(6161, 80, ("SQRT_SUM_SQ",))]
    assert all(isinstance(v, float) for _, matrix in floats for row in matrix for v in row)
    assert {_distance_increasing_agrees(factors, matrix) for factors, matrix in floats} == {True, False}
    assert handed == {tuple, int}


def test_pair_scans_compare_entries_by_value_not_identity():
    # equal entries as distinct objects, integral ones as int or Fraction at random: the
    # scans' entry comparison is identity first, and must still fall back to equality
    rng = random.Random(7171)
    outcomes = set()
    for factors, matrix in _perturbed_products(7170, 160):
        fresh = [[v.numerator if v.denominator == 1 and rng.random() < 0.5 else F(v.numerator, v.denominator)
                  for v in row] for row in matrix]
        assert fresh == matrix
        outcomes.add((_extract_agrees(factors, fresh), _distance_increasing_agrees(factors, fresh)))
    assert {True, False} <= {extractable for extractable, _ in outcomes}
    assert {True, False} <= {increasing for _, increasing in outcomes}


def test_equal_distances_held_by_distinct_objects_get_one_rank(tmp_path):
    # "1/2" beside "2/4" and 1 beside "1" load as distinct but equal objects, and so do int, str
    # and Fraction entries built in-process; each distance must get one rank, or the distance
    # set, the product verb and its verdict, extract and is_distance_increasing part from the
    # oracles.  About 0.05 s.
    labels = ["a0", "a1", "a2"]
    path = tmp_path / "factor.json"
    path.write_text(json.dumps({"labels": labels, "dist": [["0", "1/2", 1], ["2/4", "0", "1/2"], ["1", "2/4", 0]]}))
    loaded = fileio.load_metric_space(path)
    built = FiniteMetricSpace(labels, [[0, F(1, 2), 1], ["2/4", F(0), "1/2"], [F(1), F(2, 4), "0"]])
    assert loaded == built and loaded.distance_set() == built.distance_set() == (F(0), F(1, 2), F(1))
    line = line_space([0, 1])
    line_path = tmp_path / "line.json"
    fileio.dump_metric_space(line, line_path)
    checked, rng = Counter(), random.Random(2121)
    for factors, paths in (((loaded,), [path]), ((loaded, line), [path, line_path]), ((line, loaded), [line_path, path])):
        for name in ("SUM", "MAX", "SQUARE_SUM"):
            combiner = named_combiner(name)
            code, report = dispatch(_product_argv(paths, name, 1, True))
            text = report["verdicts"][0]["matrix"]
            matrix = [[F(v) for v in row] for row in text["dist"]]
            grid = set(itertools.product(*(sp.distance_set() for sp in factors)))
            assert {tup for _, tup, _ in product_pairs(matrix, factors)} == grid
            index = {label: k for k, label in enumerate(text["labels"])}
            for (p, q), tup, value in product_pairs(matrix, factors):
                assert value == combiner(tup) == matrix[index["|".join(q)]][index["|".join(p)]]
            expected = metric_violation(matrix)
            assert (code, report["verdicts"][1]["ok"]) == ((1, False) if expected else (0, True))
            if expected:
                witness = report["verdicts"][1]["witness"]
                assert (witness["kind"], tuple(index[label] for label in witness["labels"])) == expected[:2]
            checked[expected is None] += 1
            # the matrix file writes half of its 1/2 entries as 2/4; the in-process matrix holds
            # equal entries as int, Fraction and float objects at random
            halves = itertools.count()
            text["dist"] = [[("2/4" if next(halves) % 2 else v) if v == "1/2" else v for v in row]
                            for row in text["dist"]]
            product_path = tmp_path / f"product-{len(factors)}-{name}.json"
            product_path.write_text(json.dumps(text))
            factor_args = [arg for p in paths for arg in ("--factor", str(p))]
            code, report = dispatch(["extract", "--product", str(product_path), *factor_args])
            assert code == 0 and product_conflict(matrix, factors) is None
            entries = report["verdicts"][0]["function"]["entries"]
            assert {tuple(map(F, e["point"])): F(e["value"]) for e in entries} == {
                tup: value for _, tup, value in product_pairs(matrix, factors)}
            for spaces in (factors, tuple(built if sp is loaded else sp for sp in factors)):
                fresh = [[rng.choice([F(v.numerator, v.denominator), float(v)] + [int(v)] * (v.denominator == 1))
                          for v in row] for row in matrix]
                _distance_increasing_agrees(spaces, fresh)
                _extract_agrees(spaces, [[F(v) for v in row] for row in fresh])
                inverted = [row[:] for row in fresh]
                inverted[0][-1] = inverted[-1][0] = F(1, 8)  # the farthest pair, nearer than any other
                assert not _distance_increasing_agrees(spaces, inverted)
    assert checked[True] >= 6 and checked[False] >= 1


def test_metric_preserving_verdict():
    grid = [0, 1, 2]
    ok, report = metric_preserving_verdict(sampled_combiner("SUM", grid, n=2))
    assert ok and report.amenable and report.subadditive
    ok, report = metric_preserving_verdict(sampled_combiner("SQUARE_SUM", grid, n=2))
    assert not ok and report.amenable and not report.subadditive
    assert report.subadditive_certificate.cost < 4
    ok, _ = metric_preserving_verdict(sampled_combiner("MAX", grid, n=2))
    assert ok
    with pytest.raises(NotIsotoneError):
        metric_preserving_verdict(
            SampledFunction([(point(0, 0), 1), (point(1, 1), 0)])
        )
    with pytest.raises(MissingOriginError):
        metric_preserving_verdict(SampledFunction([(point(1, 1), 1)]))


def find_line_refutation(f):
    """Factor collections of collinear triples on which f fails the axioms.

    Searches sample pairs whose sum stays inside the domain, building
    per-coordinate line spaces {0, a_j, a_j+b_j}; also tries the
    two-point factors matching a vanishing positive sample.
    """
    for x, v in f.items():
        if not x.is_origin() and v == 0:
            factors = tuple(
                line_space([0, c]) if c > 0 else line_space([0])
                for c in x.coords
            )
            try:
                _, matrix = product_metric(ProductSpec(factors, f))
            except CombinerDomainGapError:
                continue
            ok, violation = verify_metric(matrix)
            if not ok:
                return factors, violation
    for a in f.domain:
        for b in f.domain:
            if a.is_origin() or b.is_origin():
                continue
            if (a + b) not in f:
                continue
            factors = tuple(
                line_space([0, aj, aj + bj])
                for aj, bj in zip(a.coords, b.coords)
            )
            try:
                _, matrix = product_metric(ProductSpec(factors, f))
            except CombinerDomainGapError:
                continue
            ok, violation = verify_metric(matrix)
            if not ok:
                return factors, violation
    return None


def test_failing_verdict_yields_concrete_metric_failure():
    square = sampled_combiner("SQUARE_SUM", [0, 1, 2], n=2)
    assert not metric_preserving_verdict(square)[0]
    found = find_line_refutation(square)
    assert found is not None and found[1].kind == "triangle"

    not_amenable = SampledFunction(
        [(point(0, 0), 0), (point(1, 0), 0), (point(0, 1), 1), (point(1, 1), 1)]
    )
    found = find_line_refutation(not_amenable)
    assert found is not None and found[1].kind == "identity"


def test_verdict_true_products_pass_verification():
    rng = random.Random(19)
    grid = [0, 1, 2]
    for name in ("SUM", "MAX", "CAPPED_SUM"):
        for n in (1, 2):
            combiner = sampled_combiner(name, grid, n=n)
            assert metric_preserving_verdict(combiner)[0]
            for _ in range(10):
                factors = tuple(
                    line_space(rng.sample([0, 1, 2], rng.randint(2, 3)) + [0])
                    for _ in range(n)
                )
                _, matrix = product_metric(ProductSpec(factors, combiner))
                assert verify_metric(matrix) == (True, None)


def test_uniform_continuity_floor():
    # pairs separated by at least eps in some coordinate sit at distance
    # at least the combiner's value on that axis vector
    grid = [0, 1, 2]
    f = sampled_combiner("SUM", grid, n=2)
    factors = (line_space(grid), line_space(grid))
    labels, matrix = product_metric(ProductSpec(factors, f))
    pts = list(itertools.product(*(range(sp.size) for sp in factors)))
    for axis in (0, 1):
        for eps in (F(1), F(2)):
            floor = f.value(point(*(eps if i == axis else 0 for i in range(2))))
            assert floor > 0
            relevant = [
                matrix[i][j]
                for i in range(len(pts))
                for j in range(len(pts))
                if factors[axis].distance(pts[i][axis], pts[j][axis]) >= eps
            ]
            assert min(relevant) >= floor


def test_unbounded_witness():
    x, y = unbounded_witness(1)
    assert (x, y) == (F(0), F(3, 4))
    assert unbounded_gauge(max_ultrametric(x, y)) == 3
    x, y = unbounded_witness(10**6)
    assert unbounded_gauge(max_ultrametric(x, y)) > 10**6
    assert 0 <= x < 1 and 0 <= y < 1
    with pytest.raises(ValueError):
        unbounded_witness(0)
    with pytest.raises(ValueError):
        unbounded_gauge(1)


def test_ultrametric_strong_triangle():
    rng = random.Random(3)
    for _ in range(300):
        x, y, z = (F(rng.randint(0, 99), 100) for _ in range(3))
        assert max_ultrametric(x, y) <= max(
            max_ultrametric(x, z), max_ultrametric(z, y)
        )
