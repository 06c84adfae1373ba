"""Span tracing around the public calls of each mfil module.

A span is (name, start, end, parent). Spans live in flat arrays while the
workload runs and are written out once it ends. A layer's self time is its
span minus the spans nested directly inside it, so self times partition the
traced wall time: nothing counts twice.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from mfil import (analysis, backbone, block, checkpoint, reference, scan, ssm,
                  tensor, train)
from mfil.data import SyntheticDataset
from mfil.tensor import flop_counter

from probes import Measure, Patcher, now

# tensor primitive -> the name it records its node under.
OPS = {
    "add": "add", "sub": "sub", "mul": "mul", "neg": "neg", "exp": "exp",
    "sigmoid": "sigmoid", "silu": "silu", "gelu": "gelu",
    "softplus": "softplus", "softmax": "softmax", "tsum": "sum",
    "tmean": "mean", "reshape": "reshape", "transpose": "transpose",
    "concat": "concat", "slice_axis": "slice", "take": "take",
    "tile_leading": "tile_leading", "scale_per_sample": "scale_per_sample",
    "linear": "linear", "layer_norm": "layer_norm", "conv2d": "conv2d",
    "depthwise_conv2d": "depthwise_conv2d",
    "softmax_cross_entropy": "cross_entropy",
}
# Primitives whose achieved flop rate is reported.
FLOP_OPS = ("conv2d", "depthwise_conv2d", "linear")
SCAN_STAGES = ("mfil_ssm", "orthogonal_maps", "dynamic_map", "stack_scans",
               "unstack_scans", "adaptive_merge")


def _node_layer(name: str) -> str:
    """Span prefix of a recorded node: the fused scan belongs to ssm."""
    return "ssm.ssm_scan" if name == "ssm_scan" else f"tensor.{name}"


class Tracer:
    def __init__(self):
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.tally: dict[str, float] = defaultdict(float)
        self.peak: dict[str, float] = defaultdict(float)

    def intern(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(now())
        return i

    def close(self, i: int, nid: int | None = None):
        self.end[i] = now()
        self.stack.pop()
        if nid is not None:
            self.name[i] = nid

    def span(self, name: str):
        """``make`` for Patcher: wrap a callable in a span called ``name``."""
        nid = self.intern(name)

        def make(orig):
            def wrapper(*args, **kwargs):
                i = self.open(nid)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.close(i)
            return wrapper
        return make

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path: Path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def install(p: Patcher, t: Tracer, m: Measure):
    """Span every layer boundary the per-layer metrics are taken at."""
    current = {"stage_of_dim": {}, "saved": 0.0}

    def op(fn_name, op_name):
        nid = t.intern(f"tensor.{op_name}.fwd")
        counted = op_name in FLOP_OPS
        flops_key = f"tensor.{op_name}.flops"
        bytes_key = f"tensor.{op_name}.out_bytes"

        def make(orig):
            def wrapper(*args, **kwargs):
                i = t.open(nid)
                try:
                    if counted:
                        with flop_counter() as fc:
                            out = orig(*args, **kwargs)
                        if m.counters:
                            m.counters[-1].add(fc.total)
                    else:
                        out = orig(*args, **kwargs)
                finally:
                    t.close(i)
                if counted:
                    t.tally[flops_key] += fc.total
                t.tally[bytes_key] += out.data.nbytes
                return out
            return wrapper
        p.function(tensor, fn_name, make)

    for fn_name, op_name in OPS.items():
        op(fn_name, op_name)

    rid = t.intern("tensor.record_op")
    bwd_ids: dict[str, int] = {}

    def record_op(orig):
        def wrapper(name, inputs, out_data, backward_fn):
            if name not in bwd_ids:
                bwd_ids[name] = t.intern(f"{_node_layer(name)}.bwd")
            bid = bwd_ids[name]

            def timed_backward(g):
                j = t.open(bid)
                try:
                    return backward_fn(g)
                finally:
                    t.close(j)
            i = t.open(rid)
            try:
                return orig(name, inputs, out_data, timed_backward)
            finally:
                t.close(i)
        return wrapper
    p.function(tensor, "record_op", record_op)

    gid = t.intern("tensor.Tape.gradients")

    def gradients(orig):
        def wrapper(self, loss, params=None):
            held = float(sum(n.out.data.nbytes for n in self.nodes))
            t.peak["tensor.tape_bytes"] = max(t.peak["tensor.tape_bytes"],
                                              held)
            i = t.open(gid)
            try:
                return orig(self, loss, params)
            finally:
                t.close(i)
        return wrapper
    p.method(tensor.Tape, "gradients", gradients)

    sid = t.intern("ssm.ssm_scan.fwd")

    def ssm_scan(orig):
        def wrapper(u, delta, a, b_tok, c_tok, *args, **kwargs):
            bsz, length, ch = u.shape
            n = a.shape[1]
            i = t.open(sid)
            try:
                return orig(u, delta, a, b_tok, c_tok, *args, **kwargs)
            finally:
                t.close(i)
                t.tally["ssm.ssm_scan.tokens"] += bsz * length
                # h_all and a_bar_all, each [B, L, C, N].
                current["saved"] += (2 * bsz * length * ch * n
                                     * u.data.itemsize)
        return wrapper
    p.function(ssm, "ssm_scan", ssm_scan)
    p.function(ssm, "selective_scan", t.span("ssm.selective_scan"))
    for name in SCAN_STAGES:
        p.function(scan, name, t.span(f"scan.{name}"))
    p.function(block, "conv_ffn", t.span("block.conv_ffn"))

    stage_ids = [t.intern(f"block.stage{s}") for s in range(4)]

    def block_forward(orig):
        def wrapper(self, x, *args, **kwargs):
            i = t.open(stage_ids[current["stage_of_dim"][self.dim]])
            try:
                return orig(self, x, *args, **kwargs)
            finally:
                t.close(i)
        return wrapper
    p.method(block.MfilBlock, "forward", block_forward)

    fid = t.intern("backbone.forward")
    taped_id = t.intern("backbone.forward.taped")
    untaped_id = t.intern("backbone.forward.untaped")

    def forward(orig):
        def wrapper(self, images, *args, **kwargs):
            # Stage widths strictly increase, so a block's width names it.
            current["stage_of_dim"] = {d: s for s, d in
                                       enumerate(self.config.dims)}
            current["saved"] = 0.0
            i = t.open(fid)
            out = None
            try:
                out = orig(self, images, *args, **kwargs)
                return out
            finally:
                taped = out is not None and out.node is not None
                t.close(i, taped_id if taped else untaped_id)
                if taped:
                    t.peak["ssm.ssm_scan.saved_bytes"] = max(
                        t.peak["ssm.ssm_scan.saved_bytes"], current["saved"])
        return wrapper
    p.method(backbone.Backbone, "forward", forward)
    p.function(backbone, "build", t.span("backbone.build"))

    p.method(train.AdamW, "step", t.span("train.AdamW.step"))
    p.function(train, "evaluate", t.span("train.evaluate"))
    p.function(train, "train_run", t.span("train.train_run"))
    p.method(SyntheticDataset, "__init__",
             t.span("data.SyntheticDataset.init"))
    p.method(SyntheticDataset, "batch", t.span("data.batch"))

    def save(orig):
        span = t.span("checkpoint.save_checkpoint")(orig)

        def wrapper(path, params):
            span(path, params)
            t.tally["checkpoint.save_checkpoint.bytes"] += \
                Path(path).stat().st_size
        return wrapper
    p.function(checkpoint, "save_checkpoint", save)

    p.function(analysis, "gradcheck_suite", t.span("analysis.gradcheck_suite"))
    p.function(reference, "central_difference",
               t.span("reference.central_difference"))


def self_times(t: Tracer):
    """Per-span duration and self time (duration minus direct children)."""
    name, parent, start, end = t.arrays()
    dur = end - start
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested],
                        minlength=dur.size)
    return dur, dur - child


def layer_table(t: Tracer) -> dict[str, dict[str, float]]:
    """calls, inclusive ms and self ms of every span name."""
    name, _, _, _ = t.arrays()
    dur, own = self_times(t)
    k = len(t.names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    selft = np.bincount(name, weights=own, minlength=k)
    return {n: {"calls": int(calls[i]), "ms": 1e3 * float(incl[i]),
                "self_ms": 1e3 * float(selft[i])}
            for i, n in enumerate(t.names) if calls[i]}


def coverage(t: Tracer, root_name: str, intervals) -> dict[str, float]:
    """How completely the spans account for the traced time.

    ``escaped_spans``: spans that start before or end after their parent.
    ``min_self_ms``: the smallest self time of any span; negative when
    children overlap. Either would count time twice. ``op``: per attempted operation
    (step or gradcheck group), the share of its wall time covered by the
    top-level spans inside it, as the median over operations; a missing
    layer shows as uncovered time. ``forward``: share of Backbone.forward
    time spent inside named layer spans.
    """
    name, parent, start, end = t.arrays()
    dur, own = self_times(t)
    nested = parent >= 0
    up = parent[nested]
    out = {"escaped_spans": int(((start[nested] < start[up])
                                 | (end[nested] > end[up])).sum()),
           "min_self_ms": 1e3 * float(own.min()) if own.size else 0.0}
    top = np.isin(parent, np.flatnonzero(name == t.ids[root_name]))
    ts, te = start[top], end[top]
    order = np.argsort(ts)
    ts, te = ts[order], te[order]
    shares = []
    for a, b in intervals:
        lo, hi = np.searchsorted(ts, a), np.searchsorted(ts, b)
        inside = te[lo:hi] <= b
        shares.append(float((te[lo:hi][inside] - ts[lo:hi][inside]).sum())
                      / (b - a))
    out["op"] = float(np.median(shares)) if shares else float("nan")
    fwd = np.isin(name, [t.ids["backbone.forward.taped"],
                         t.ids["backbone.forward.untaped"]])
    out["forward"] = 1.0 - float(own[fwd].sum() / dur[fwd].sum())
    return out


def layer_metrics(t: Tracer, table: dict, m: Measure, cov: dict,
                  untraced: dict[str, float]) -> dict:
    """Every per-layer metric as name -> (value, unit).

    Primitive ``fwd_ms``/``bwd_ms`` are self times, so they and
    ``tensor.record_op.self_ms`` add up without double counting; the
    module-level ``.ms`` rows are inclusive.
    """

    def row(name):
        return table.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})

    def ms(name, kind="ms"):
        return row(name)[kind], "ms"

    out = {"tensor.record_op.calls": (row("tensor.record_op")["calls"],
                                      "count"),
           "tensor.record_op.self_ms": ms("tensor.record_op", "self_ms")}
    for op in ("depthwise_conv2d", "conv2d", "linear", "transpose",
               "layer_norm", "concat", "slice", "gelu", "silu", "softplus",
               "mul", "add"):
        out[f"tensor.{op}.calls"] = (row(f"tensor.{op}.fwd")["calls"],
                                     "count")
        out[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}.fwd", "self_ms")
        out[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd", "self_ms")
        out[f"tensor.{op}.out_bytes"] = (t.tally[f"tensor.{op}.out_bytes"],
                                         "B")
    for op in FLOP_OPS:
        fwd_ms = row(f"tensor.{op}.fwd")["self_ms"]
        out[f"tensor.{op}.gflops"] = (
            t.tally[f"tensor.{op}.flops"] / (fwd_ms * 1e6) if fwd_ms else 0.0,
            "Gflop/s")
    out["tensor.Tape.gradients.ms"] = ms("tensor.Tape.gradients")
    out["tensor.tape_bytes"] = (t.peak["tensor.tape_bytes"], "B")
    out["ssm.ssm_scan.fwd_ms"] = ms("ssm.ssm_scan.fwd", "self_ms")
    out["ssm.ssm_scan.bwd_ms"] = ms("ssm.ssm_scan.bwd", "self_ms")
    out["ssm.ssm_scan.tokens"] = (t.tally["ssm.ssm_scan.tokens"], "count")
    out["ssm.ssm_scan.saved_bytes"] = (t.peak["ssm.ssm_scan.saved_bytes"],
                                       "B")
    out["ssm.selective_scan.ms"] = ms("ssm.selective_scan")
    for name in SCAN_STAGES:
        out[f"scan.{name}.ms"] = ms(f"scan.{name}")
    for s in range(4):
        out[f"block.stage{s}.ms"] = ms(f"block.stage{s}")
    out["block.conv_ffn.ms"] = ms("block.conv_ffn")
    taped = row("backbone.forward.taped")["ms"]
    untaped = row("backbone.forward.untaped")["ms"]
    out["backbone.forward.taped.ms"] = (taped, "ms")
    out["backbone.forward.untaped.ms"] = (untaped, "ms")
    out["backbone.gflops_per_s"] = (
        sum(f[3] for f in m.forwards) / ((taped + untaped) * 1e6), "Gflop/s")
    for name in ("train.AdamW.step", "train.evaluate",
                 "checkpoint.save_checkpoint", "reference.central_difference"):
        out[f"{name}.ms"] = ms(name)
    out["data.SyntheticDataset.init_ms"] = ms("data.SyntheticDataset.init")
    out["data.batch.ms"] = ms("data.batch")
    out["checkpoint.save_checkpoint.bytes"] = (
        t.tally["checkpoint.save_checkpoint.bytes"], "B")
    out["analysis.gradcheck.forwards"] = (m.gradcheck_forwards, "count")
    out["reference.central_difference.calls"] = (
        row("reference.central_difference")["calls"], "count")
    for key, value in m.latencies().items():
        out[f"trace.{key}.ratio"] = (value / untraced[key], "ratio")
    out["trace.coverage.op"] = (cov["op"], "fraction")
    out["trace.coverage.forward"] = (cov["forward"], "fraction")
    return out
