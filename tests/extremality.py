"""The paper's two extremality claims, checked on finitely many probes.

The sup-continuation is the least isotone extension of an isotone
sample set, and the subadditive envelope is the greatest isotone
subadditive minorant of the samples.  These helpers hold a candidate
function to each claim; tests run them against ``sup_continuation``
and ``subadditive_envelope``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from isoprod.continuation import subadditive_envelope, sup_continuation
from isoprod.points import PointN, leq, rat
from isoprod.sampled import SampledFunction, require_isotone


def minimality_check(
    f: SampledFunction,
    candidate: Callable[[PointN], object],
    probes: Iterable[PointN],
) -> bool:
    """Check that an isotone extension dominates the sup-continuation.

    The candidate must agree with f on the sample set; any isotone
    extension is then at least the sup-continuation at every probe.
    """
    require_isotone(f)
    for a, v in f.items():
        if rat(candidate(a)) != v:
            raise ValueError(f"candidate({a}) != f({a})")
    return all(rat(candidate(p)) >= sup_continuation(f, p) for p in probes)


def envelope_maximality_check(
    f: SampledFunction,
    candidate: Callable[[PointN], object],
    probes: Iterable[PointN],
    c=Fraction(1),
) -> bool:
    """Check that an isotone subadditive minorant stays below the envelope.

    The candidate must be dominated by f on the sample set; isotonicity
    and subadditivity are spot-checked on the probe pairs.
    """
    for a, v in f.items():
        if rat(candidate(a)) > v:
            raise ValueError(f"candidate({a}) > f({a})")
    probe_list = sorted(set(probes), key=lambda p: p.coords)
    for p in probe_list:
        fp = rat(candidate(p))
        for q in probe_list:
            fq = rat(candidate(q))
            if leq(p, q) and fp > fq:
                raise ValueError(f"candidate is not isotone on probes {p}, {q}")
            if rat(candidate(p + q)) > fp + fq:
                raise ValueError(f"candidate is not subadditive on probes {p}, {q}")
    return all(
        rat(candidate(p)) <= subadditive_envelope(f, p, c)[0] for p in probe_list
    )
