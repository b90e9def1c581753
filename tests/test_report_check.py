"""Certificates of check and envelope reports, and the verdicts of lemma42 and fixed-point reports,
checked from the report and its input file alone."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction as F

from report_check import check_certificates, check_grid_verdicts
from test_modulus import LATE_WITNESSES, late_witness_grid
from isoprod import fileio
from isoprod.fixtures import fixture_generate
from isoprod.modulus import GridFunction
from isoprod.verbs import dispatch, render


def test_check_and_envelope_certificates_check_out_from_the_report_alone(tmp_path):
    # the isotone and amenable fixture functions of seeds 0-29 (about 0.1 s): each check report,
    # and an envelope report at every sample point and at (2, ..., 2) with c = 3/2, whose
    # certificates use axis points wherever an axis carries no positive sample
    seen = Counter()
    for seed, mode in itertools.product(range(30), ("isotone", "amenable")):
        (path,) = fixture_generate("random-sampled-function", seed, tmp_path / mode, mode=mode)
        code, report = dispatch(["check", "--function", str(path)])
        seen["certificates"] += check_certificates(render(report), path)
        seen[next(v["ok"] for v in report["verdicts"] if v["check"] == "subadditive")] += 1
        data = json.loads(path.read_text())
        points = [e["point"] for e in data["entries"]]
        probes = [*points, ["2"] * data["dim"]]
        argv = ["envelope", "--function", str(path), "--c", "3/2"]
        code, report = dispatch([*argv, *itertools.chain(*(("--probe", f"({','.join(p)})") for p in probes))])
        assert code == 0, report
        seen["envelopes"] += check_certificates(render(report), path, "3/2")
        seen["axis parts"] += sum(part["point"] not in points for v in report["verdicts"] for part in v["certificate"]["parts"])
    assert seen[True] and seen[False] and seen["certificates"] == seen[False], seen
    assert seen["envelopes"] > 200 and seen["axis parts"], seen


def test_grid_witnesses_check_out_from_the_report_alone(tmp_path):
    # lemma42 and fixed-point reports on the named-combiner-grid fixtures of the four exact
    # combiners, the late-witness grids and six non-isotone grids of arbitrary values (about 0.4 s)
    rng = random.Random(34)
    paths = [fixture_generate("named-combiner-grid", 0, tmp_path, combiner=name, cap=F(3, 2))[0]
             for name in ("SUM", "MAX", "CAPPED_SUM", "SQUARE_SUM")]
    grids = [late_witness_grid(n, cells, cap) for n, cells, cap, _ in LATE_WITNESSES]
    for n, cells in [(1, 6), (1, 9), (2, 2), (2, 3), (3, 1), (3, 2)]:
        idxs = itertools.product(range(cells + 1), repeat=n)
        grids.append(GridFunction(n, cells * F(1, 2), F(1, 2), {idx: F(rng.randint(0, 9), 2) for idx in idxs}))
    for k, g in enumerate(grids):
        paths.append(tmp_path / f"grid{k}.json")
        fileio.dump_grid_function(g, paths[-1])
    seen = Counter()
    for path, verb in itertools.product(paths, ("lemma42", "fixed-point")):
        code, report = dispatch([verb, "--grid", str(path)])
        assert code in (0, 1), report
        assert check_grid_verdicts(render(report), path) == 1
        seen[verb, report["verdicts"][0]["ok"]] += 1
    assert set(seen) == set(itertools.product(("lemma42", "fixed-point"), (True, False))), seen
