"""The benchmark's span recorder (perfbench/tracing.py) patches cpoe names.

It looks each name up in its owner's ``__dict__``, so removing or renaming a
patched function would only fail under ``perfbench/run.py --trace 1``; this
test installs the recorder and checks that uninstalling restores every name.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()  # raises KeyError for a patched name that no longer exists
    try:
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
