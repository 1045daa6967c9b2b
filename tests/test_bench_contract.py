"""The benchmark's tracer still finds every function it times.

``perfbench/tracer.py`` wraps library functions and methods by name from
outside the package.  Constructing a :class:`Tracer` resolves every
target without installing any wrapper, so a rename or removal that
would break a traced benchmark run fails here.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    assert len(tracer.Tracer().names) == len(tracer.TARGETS)
