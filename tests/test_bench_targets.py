"""The benchmark wraps mfil functions by name; every name must still exist,
and the benchmark's entry points must run under the wrappers.

``perfbench/probes.py`` and ``perfbench/spans.py`` patch module attributes
with ``getattr``, so renaming or moving a wrapped function would otherwise
first show as an ``AttributeError`` in a traced benchmark run, and so would
a wrapper that reads internals the code no longer has.
"""

import importlib
import inspect
import sys
from contextlib import contextmanager
from pathlib import Path

from mfil import analysis, backbone, block, ssm
from mfil.config import RunConfig
from mfil.train import train_run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _listing():
    return sorted(p.relative_to(PERFBENCH) for p in PERFBENCH.rglob("*"))


@contextmanager
def _benchmark_wrappers(monkeypatch):
    """The probes and spans wrappers installed, as a traced run has them;
    yields the patcher and the probes' measurements."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        probes = importlib.import_module("probes")
        spans = importlib.import_module("spans")
        with probes.Patcher() as p:
            m = probes.Measure()
            probes.install(p, m)
            spans.install(p, spans.Tracer(), m)
            yield p, m
    finally:
        sys.modules.pop("spans", None)
        sys.modules.pop("probes", None)


def test_benchmark_patch_targets_exist_and_are_restored(monkeypatch):
    before = _listing()
    with _benchmark_wrappers(monkeypatch) as (p, _):
        # An attribute wrapped twice keeps its first saved value: the
        # original.
        originals = {}
        for owner, attr, old in p._saved:
            originals.setdefault((owner, attr), old)
        assert all(getattr(owner, attr) is not old
                   for (owner, attr), old in originals.items())
    assert originals
    assert all(getattr(owner, attr) is old
               for (owner, attr), old in originals.items())
    assert _listing() == before


def test_benchmark_entry_points_run_under_the_wrappers(monkeypatch,
                                                       tmp_path):
    """A desk gradcheck suite and a 2-step desk training run, with every
    probe and span wrapper in place, run to the end and write nothing
    under perfbench."""
    before = _listing()
    cfg = RunConfig(steps=2, batch_size=8, dataset_size=16,
                    checkpoint_interval=0)
    with _benchmark_wrappers(monkeypatch) as (_, m):
        report = analysis.gradcheck_suite(backbone.desk(), 1)
        train_run(cfg.with_overrides(out_dir=str(tmp_path)))
    assert report.passed and report.entries
    assert len(m.losses) == 2 and not m.flop_errors
    assert _listing() == before


def test_wrapped_signatures_are_the_ones_the_benchmark_reads():
    """``perfbench/spans.py`` reads ``u.shape`` and ``a.shape[1]`` from
    ``ssm.ssm_scan``'s first and third positional arguments, and its
    ``block.conv_ffn`` span wraps a module-level function of that name."""
    params = list(inspect.signature(ssm.ssm_scan).parameters.values())
    assert [p.name for p in params[:3:2]] == ["u", "a_log"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:3])
    assert inspect.isfunction(block.conv_ffn)
    assert (block.conv_ffn.__module__,
            block.conv_ffn.__qualname__) == ("mfil.block", "conv_ffn")
