"""Certificates and grid witnesses checked from a JSON report and its input file alone.

Each checker reads a report as the CLI prints it, and the JSON file it was
run on, with nothing but ``json`` and ``fractions``.

:func:`check_certificates` reads a ``check`` or ``envelope`` report and its
sampled-function file, and re-derives every covering certificate in it:

- each part is a sample point of the file or, in an envelope only, an axis
  point whose single positive coordinate lies on an axis where no sample is
  positive, valued by the envelope's axis constant c (``--c``);
- the parts, each times its count, sum to at least the target coordinatewise;
- the cost is the sum of count times value over the parts;
- a ``check`` certificate's target is a sample point valued above the cost,
  and an ``envelope`` value equals its certificate's cost.

A ``subadditive`` verdict that is not skipped carries a certificate exactly
when it is false.

:func:`check_grid_verdicts` reads a ``lemma42`` or ``fixed-point`` report and
its grid file:

- a ``difference-bound`` verdict carries a witness exactly when it is false,
  and the witness is two lattice points of the file, the first before the
  second in lattice order, with |f(x) - f(y)| > f(|x - y|);
- a ``fixed-point`` verdict's ``max_deviation`` is the largest |omega - f|
  over the boxes, where the lattice modulus omega at a box is the largest
  gap |f(x) - f(y)| over the pairs whose index difference lies inside it;
  ``at`` is the first box in lattice order that attains it, absent when it
  is 0, and ``ok`` holds exactly when it is 0.

Any fault raises AssertionError.  Pytest does not collect this file.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _point(coords) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, coords))


def _cost_and_cover(cert, samples, empty_axes, c):
    """The certificate's cost and the sum of its parts, each part valued by the file or by c."""
    target = _point(cert["target"])
    total, cover = Fraction(0), [Fraction(0)] * len(target)
    for part in cert["parts"]:
        p, count = _point(part["point"]), part["count"]
        assert type(count) is int and count > 0, f"part {part} has no positive count"
        nonzero = [j for j, t in enumerate(p) if t]
        if p in samples:
            value = samples[p]
        elif c is not None and len(nonzero) == 1 and nonzero[0] in empty_axes and p[nonzero[0]] > 0:
            value = c
        else:
            raise AssertionError(f"part {part['point']} is neither a sample point nor an allowed axis point")
        total += count * value
        cover = [s + count * t for s, t in zip(cover, p)]
    assert all(s >= t for s, t in zip(cover, target)), f"the parts sum to {cover}, below the target {cert['target']}"
    assert total == Fraction(cert["cost"]), f"the parts cost {total}, not the stated {cert['cost']}"
    return target, total


def check_certificates(report_text: str, function_path, c="1") -> int:
    """Check every certificate of a check or envelope report; returns how many were checked.

    c is the envelope's axis constant as given to ``--c``; a check report does not read it.
    """
    report = json.loads(report_text)
    with open(function_path, encoding="utf-8") as fh:
        data = json.load(fh)
    samples = {_point(e["point"]): Fraction(e["value"]) for e in data["entries"]}
    empty_axes = {j for j in range(data["dim"]) if not any(p[j] for p in samples)}
    checked = 0
    for verdict in report.get("verdicts", []):
        if report["command"] == "check" and verdict["check"] == "subadditive" and "skipped" not in verdict:
            assert ("witness" in verdict) != verdict["ok"], f"subadditive is {verdict['ok']} with {verdict}"
            if "witness" in verdict:
                target, cost = _cost_and_cover(verdict["witness"], samples, empty_axes, None)
                assert target in samples and cost < samples[target], f"{verdict['witness']} violates nothing"
                checked += 1
        elif report["command"] == "envelope":
            _, cost = _cost_and_cover(verdict["certificate"], samples, empty_axes, Fraction(c))
            assert Fraction(verdict["value"]) == cost, f"value {verdict['value']} is not its certificate's cost"
            checked += 1
    return checked


def check_grid_verdicts(report_text: str, grid_path) -> int:
    """Check the verdicts of a lemma42 or fixed-point report against its grid file; returns how many."""
    report = json.loads(report_text)
    with open(grid_path, encoding="utf-8") as fh:
        data = json.load(fh)
    f = {_point(e["point"]): Fraction(e["value"]) for e in data["values"]}
    boxes = sorted(f)  # the lexicographic order of the coordinates is the lattice order
    for verdict in report["verdicts"]:
        if verdict["check"] == "difference-bound":
            assert ("witness" in verdict) != verdict["ok"], f"difference-bound is {verdict['ok']} with {verdict}"
            if "witness" in verdict:
                x, y = map(_point, verdict["witness"])
                assert x in f and y in f and x < y, f"witness {verdict['witness']} is no lattice pair in order"
                d = tuple(abs(a - b) for a, b in zip(x, y))
                assert abs(f[x] - f[y]) > f[d], f"witness {verdict['witness']} keeps the bound"
        else:
            assert verdict["check"] == "fixed-point", f"unexpected verdict {verdict}"
            h = Fraction(data["h"])
            lattice = [(tuple(int(c / h) for c in x), f[x]) for x in boxes]  # (index, value) in lattice order
            gaps = {}  # the largest gap per index difference
            for i, (x, fx) in enumerate(lattice):
                for y, fy in lattice[i:]:
                    d, gap = tuple(abs(a - b) for a, b in zip(x, y)), abs(fx - fy)
                    if gap > gaps.get(d, -1):
                        gaps[d] = gap
            deviations = [abs(max(gap for d, gap in gaps.items() if all(map(int.__le__, d, box))) - fbox)
                          for box, fbox in lattice]
            worst = max(deviations)
            assert Fraction(verdict["max_deviation"]) == worst, f"max_deviation {verdict['max_deviation']} != {worst}"
            assert verdict["ok"] == (worst == 0), f"fixed-point is {verdict['ok']} at deviation {worst}"
            at = boxes[deviations.index(worst)] if worst else None
            assert (_point(verdict["at"]) if "at" in verdict else None) == at, f"at {verdict.get('at')} is not {at}"
    return len(report["verdicts"])
