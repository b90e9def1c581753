"""Certificates of check and envelope reports, checked from the report and its input file alone."""

import itertools
import json
from collections import Counter

from report_check import check_certificates
from isoprod.fixtures import fixture_generate
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
