"""The benchmark wraps mfil functions by name; every name must still exist.

``perfbench/probes.py`` and ``perfbench/spans.py`` patch module attributes
with ``getattr``, so renaming or moving a wrapped function would otherwise
first show as an ``AttributeError`` in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _listing():
    return sorted(p.relative_to(PERFBENCH) for p in PERFBENCH.rglob("*"))


def test_benchmark_patch_targets_exist_and_are_restored(monkeypatch):
    before = _listing()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        probes = importlib.import_module("probes")
        spans = importlib.import_module("spans")
        with probes.Patcher() as p:
            m = probes.Measure()
            probes.install(p, m)
            spans.install(p, spans.Tracer(), m)
            # An attribute wrapped twice keeps its first saved value: the
            # original.
            originals = {}
            for owner, attr, old in p._saved:
                originals.setdefault((owner, attr), old)
            assert all(getattr(owner, attr) is not old
                       for (owner, attr), old in originals.items())
    finally:
        sys.modules.pop("spans", None)
        sys.modules.pop("probes", None)
    assert originals
    assert all(getattr(owner, attr) is old
               for (owner, attr), old in originals.items())
    assert _listing() == before
