"""The benchmark tracer must still find every function it wraps.

``bench/tracer.py`` patches isoprod module attributes by name; a rename
or deletion here would silently zero its per-layer spans.
"""

import importlib
from pathlib import Path

import pytest

from isoprod.points import point
from isoprod.sampled import SampledFunction

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def test_every_span_resolves(tracer):
    for module_name, attr, _name, _counter in tracer.SPANS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module_name}.{attr}"


def test_install_wraps_and_uninstall_restores(tracer):
    import isoprod.cli as cli
    import isoprod.continuation as continuation

    dispatch = cli.dispatch
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert cli.dispatch is not dispatch
        f = SampledFunction([(point(0, 0), 0), (point(1, 1), 4)])
        assert continuation.amenable_isotone_continuation(f, point(1, 0)) == 4
        times, counts = recorder.take_job()
    finally:
        recorder.uninstall()
    assert cli.dispatch is dispatch
    # the precheck is reached through the wrapped module attribute
    assert "incl:continuation.amenable_continuation_precheck" in times
    assert counts["continuation.subsets_scanned"] == 0
    assert counts["sampled.is_isotone_calls"] >= 1
