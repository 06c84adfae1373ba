"""End-to-end probes: timestamps and checks taken around public mfil calls.

Nothing here edits mfil. ``Patcher`` swaps attributes of the loaded mfil
modules and classes for wrappers and puts the originals back on exit;
``Measure`` holds what the wrappers record for one workload run.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field

from mfil import analysis, backbone, scan, train
from mfil.data import SyntheticDataset
from mfil.tensor import flop_counter

now = time.perf_counter


class Patcher:
    """Replaces attributes and restores every one of them on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()
        return False

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def method(self, cls, attr: str, make):
        """Wrap ``cls.attr``; ``make(original)`` returns the wrapper."""
        self.set(cls, attr, make(getattr(cls, attr)))

    def function(self, module, attr: str, make):
        """Wrap a module-level function in every mfil module that binds it.

        mfil modules import primitives by name (``from .tensor import
        linear``), so each importing module holds its own reference.
        """
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "mfil" or name.startswith("mfil.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, wrapper)
        return wrapper


def batch_independent_flops(cfg: backbone.VariantConfig) -> float:
    """Tallies a forward makes once, whatever the batch size.

    ``exp(A_log)`` and the fusion-weight softmax act on parameters only, so
    the counter tallies them once per forward while ``count_flops`` (an
    analytic per-image cost) holds them in every image.
    """
    scans = scan.num_scans(cfg.scan_mode)
    fusion = 5 * scans if cfg.adaptive_weighting and scans > 1 else 0
    return float(sum(depth * (5 * int(round(cfg.ssm_ratio * dim))
                              * cfg.d_state + fusion)
                     for dim, depth in zip(cfg.dims, cfg.depths)))


def expected_forward_flops(cfg, batch: int, h: int, w: int) -> float:
    return (batch * backbone.count_flops(cfg, h, w)
            - (batch - 1) * batch_independent_flops(cfg))


@dataclass
class Measure:
    """What one workload run records; filled by the wrappers of ``install``."""

    # (start, end) of each attempted operation: a training step, from the
    # batch request to the return of AdamW.step, or one gradcheck group.
    ops: list[tuple[float, float]] = field(default_factory=list)
    # (seconds, batch, taped, counted flops) per Backbone.forward call.
    forwards: list[tuple[float, int, bool, float]] = field(
        default_factory=list)
    flop_errors: list[str] = field(default_factory=list)
    # Each training loss as an exact float hex string, in step order.
    losses: list[str] = field(default_factory=list)
    # (seconds, samples, loss) per train.evaluate call.
    evals: list[tuple[float, int, float]] = field(default_factory=list)
    # Backbone.forward calls made inside gradcheck_suite.
    gradcheck_forwards: int = 0
    # Active Backbone.forward flop counters; traced op wrappers that open a
    # counter of their own pass their tally on to the innermost one.
    counters: list = field(default_factory=list)
    _step_start: float | None = None

    def latencies(self) -> dict[str, float]:
        """Median and mean operation and forward times, in ms."""
        ops = [1e3 * (b - a) for a, b in self.ops]
        fwd = [1e3 * f[0] for f in self.forwards]
        return {"step_ms_p50": statistics.median(ops),
                "step_ms_mean": statistics.fmean(ops),
                "forward_ms_p50": statistics.median(fwd),
                "forward_ms_mean": statistics.fmean(fwd)}


class _StampedDict(dict):
    """A dict that timestamps every store; used on GradcheckReport fields."""

    def __init__(self, stamps: list):
        super().__init__()
        self.stamps = stamps

    def __setitem__(self, key, value):
        self.stamps.append(now())
        super().__setitem__(key, value)


def install(p: Patcher, m: Measure):
    """Wrap the calls the end-to-end metrics are measured at."""

    def batch(orig):
        def wrapper(self, indices, flip_rng=None):
            if flip_rng is not None:  # a training batch opens a step
                m._step_start = now()
            return orig(self, indices, flip_rng=flip_rng)
        return wrapper

    def adamw_step(orig):
        def wrapper(self, params, grads, lr):
            out = orig(self, params, grads, lr)
            if m._step_start is not None:
                m.ops.append((m._step_start, now()))
                m._step_start = None
            return out
        return wrapper

    def loss(orig):
        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            m.losses.append(float(out.data).hex())
            return out
        return wrapper

    def evaluate(orig):
        def wrapper(model, dataset, *args, **kwargs):
            t0 = now()
            acc, nll = orig(model, dataset, *args, **kwargs)
            m.evals.append((now() - t0, len(dataset), nll))
            return acc, nll
        return wrapper

    def forward(orig):
        def wrapper(self, images, *args, **kwargs):
            with flop_counter() as fc:
                m.counters.append(fc)
                t0 = now()
                try:
                    out = orig(self, images, *args, **kwargs)
                finally:
                    m.counters.pop()
                dt = now() - t0
            b, _, h, w = images.shape
            want = expected_forward_flops(self.config, b, h, w)
            if fc.total != want:
                m.flop_errors.append(
                    f"forward B={b} {h}x{w}: counted {fc.total:.0f} flops, "
                    f"expected {want:.0f} from count_flops")
            m.forwards.append((dt, b, out.node is not None, fc.total))
            return out
        return wrapper

    group_starts: list[float] = []
    group_ends: list[float] = []

    class TimedReport(analysis.GradcheckReport):
        # gradcheck_suite stores a group's gradient norm before checking it
        # and its error after, so the two stores bracket each group.
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.grad_norms = _StampedDict(group_starts)
            self.entries = _StampedDict(group_ends)

    def suite(orig):
        def wrapper(*args, **kwargs):
            n, f = len(group_starts), len(m.forwards)
            try:
                return orig(*args, **kwargs)
            finally:
                m.ops.extend(zip(group_starts[n:], group_ends[n:]))
                m.gradcheck_forwards += len(m.forwards) - f
        return wrapper

    p.method(SyntheticDataset, "batch", batch)
    p.method(train.AdamW, "step", adamw_step)
    p.function(train, "softmax_cross_entropy", loss)
    p.function(train, "evaluate", evaluate)
    p.method(backbone.Backbone, "forward", forward)
    p.set(analysis, "GradcheckReport", TimedReport)
    p.function(analysis, "gradcheck_suite", suite)
