"""Dense row-major tensors with taped reverse-mode differentiation.

Everything downstream (scan, blocks, backbone, training) is built from the
primitives in this module. Tensors are value-semantic numpy wrappers; a Tape
records primitive applications in execution order, which is already a
topological order, so the backward pass is a single reverse sweep.

Broadcasting is deliberately restricted: elementwise ops accept equal shapes
or a scalar (0-d) operand, bias addition happens inside ``linear`` /
``layer_norm``, and anything else is a shape error. This keeps every op
checkable against an explicit loop oracle.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable, Sequence

import numpy as np
from scipy.special import erf as _erf

__all__ = [
    "Tensor", "Tape", "ShapeError", "NonFiniteError",
    "add", "sub", "mul", "neg",
    "exp", "sigmoid", "silu", "gelu", "softplus", "softmax",
    "tsum", "tmean", "reshape", "transpose", "concat", "slice_axis",
    "take", "tile_leading", "scale_per_sample",
    "linear", "layer_norm", "conv2d", "depthwise_conv2d", "pointwise_conv2d",
    "softmax_cross_entropy", "backward", "record_op", "recording",
    "flop_counter", "FlopCounter",
]

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class NonFiniteError(ArithmeticError):
    """Raised when an operation produces NaN or Inf from finite inputs."""


def _as_np_dtype(dtype):
    if dtype is None:
        return None
    if isinstance(dtype, str):
        try:
            return DTYPES[dtype]
        except KeyError:
            raise TypeError(f"unknown dtype {dtype!r}, expected 'f32' or 'f64'")
    return np.dtype(dtype)


class Tensor:
    """Dense N-dimensional array, row-major contiguous, f32 or f64.

    ``grad_enabled`` marks a leaf that participates in differentiation. Op
    outputs become grad-enabled automatically while a Tape is recording.
    """

    __slots__ = ("data", "grad_enabled", "node", "__weakref__")

    def __init__(self, data, dtype=None, grad_enabled: bool = False,
                 check_finite: bool = True):
        arr = np.asarray(data, dtype=_as_np_dtype(dtype))
        if arr.dtype not in _DTYPE_NAMES:
            arr = arr.astype(np.float64)
        # ascontiguousarray would promote 0-d to 1-d; 0-d is always contiguous.
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        if check_finite and not np.isfinite(arr).all():
            raise NonFiniteError("tensor constructed with non-finite values")
        self.grad_enabled = grad_enabled
        self.node = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> str:
        return _DTYPE_NAMES[self.data.dtype]

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data.copy()

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(_as_np_dtype(dtype)),
                      grad_enabled=self.grad_enabled, check_finite=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, grad={self.grad_enabled})"

    # Small conveniences; the functional API below is the primary surface.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self, axis=None):
        return tmean(self, axis)

    def reshape(self, shape):
        return reshape(self, shape)


class _Node:
    """One recorded primitive application: inputs, output, backward rule.

    The output tensor holds its node and the tape holds its nodes, so the
    node refers back to both weakly: a graph has no reference cycle, and
    reference counting frees it once its tape and last output are dropped.
    ``out`` and ``tape`` read as None after that.
    """

    __slots__ = ("name", "inputs", "_out", "backward", "_tape")

    def __init__(self, name, inputs, out, backward, tape):
        self.name = name
        self.inputs = inputs
        self._out = weakref.ref(out)
        self.backward = backward
        self._tape = weakref.ref(tape)

    @property
    def out(self):
        return self._out()

    @property
    def tape(self):
        return self._tape()


_LOCAL = threading.local()


def _tape_stack():
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Recording order is topological (inputs are created before the ops that
    consume them) so ``gradients`` is one reverse sweep that touches every
    recorded node at most once. Tapes are thread-local; independent tapes may
    run concurrently on different threads.
    """

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    @property
    def nodes(self) -> tuple:
        return tuple(self._nodes)

    def gradients(self, loss: Tensor, params: Iterable[Tensor] | None = None):
        """Reverse sweep from a scalar ``loss``.

        Returns a dict mapping each requested leaf tensor to its gradient.
        Leaves that do not participate in the graph map to zeros. With
        ``params=None`` all grad-enabled leaves encountered are returned.
        """
        if loss.data.ndim != 0:
            raise ValueError(
                f"loss must be a scalar tensor, got shape {loss.shape}")
        if loss.node is None or loss.node.tape is not self:
            raise ValueError("loss is detached from this tape")
        grads: dict[int, np.ndarray] = {
            id(loss): np.ones((), dtype=loss.data.dtype)}
        leaves: dict[int, Tensor] = {}
        for node in reversed(self._nodes):
            y = node.out
            # A dropped output fed nothing, so it has no gradient; skipping
            # it also keeps a reused id from matching.
            g_out = None if y is None else grads.pop(id(y), None)
            if g_out is None:
                continue
            in_grads = node.backward(g_out)
            for t, g in zip(node.inputs, in_grads):
                if g is None or not t.grad_enabled:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g
                if t.node is None:
                    leaves[key] = t
        if params is None:
            params = list(leaves.values())
        out = {}
        for p in params:
            g = grads.get(id(p))
            if g is None:
                g = np.zeros_like(p.data)
            out[p] = Tensor(np.asarray(g, dtype=p.data.dtype),
                            check_finite=False)
        return out


def backward(loss: Tensor, params: Iterable[Tensor] | None = None):
    """Gradient map of a scalar loss with respect to leaf parameters."""
    tape = None if loss.node is None else loss.node.tape
    if tape is None:
        raise ValueError("loss is detached: no live tape recorded its "
                         "computation")
    return tape.gradients(loss, params)


# ---------------------------------------------------------------------------
# FLOP accounting (used by the backbone's instrumented counter)

class FlopCounter:
    """Tallies op costs during forward execution, in fused multiply-add units.

    Convolutions and linears count one unit per multiply-accumulate, the scan
    counts two units per state per token, norms and activations count five
    elementwise ops per element.
    """

    def __init__(self):
        self.total = 0.0

    def add(self, n):
        self.total += float(n)


def _counter_stack():
    stack = getattr(_LOCAL, "counters", None)
    if stack is None:
        stack = []
        _LOCAL.counters = stack
    return stack


class flop_counter:
    def __init__(self):
        self.counter = FlopCounter()

    def __enter__(self):
        _counter_stack().append(self.counter)
        return self.counter

    def __exit__(self, exc_type, exc, tb):
        _counter_stack().pop()
        return False


def _tally(n):
    stack = _counter_stack()
    if stack:
        stack[-1].add(n)


# ---------------------------------------------------------------------------
# Recording helper

def recording(inputs: Sequence[Tensor]) -> bool:
    """Whether ``record_op`` tapes an op on ``inputs``: a tape is active and
    an input is grad-enabled. Ops use it to skip state only a backward
    reads."""
    return _active_tape() is not None and any(t.grad_enabled for t in inputs)


def record_op(name: str, inputs: Sequence[Tensor], out_data: np.ndarray,
              backward_fn) -> Tensor:
    """Build the output tensor of a primitive and record it on the active tape.

    ``backward_fn(grad_out) -> tuple`` must return one gradient array (or
    None) per input, aligned positionally.
    """
    if not np.isfinite(out_data).all():
        raise NonFiniteError(f"{name} produced non-finite values")
    out = Tensor(out_data, check_finite=False)
    if recording(inputs):
        tape = _active_tape()
        out.grad_enabled = True
        node = _Node(name, tuple(inputs), out, backward_fn, tape)
        out.node = node
        tape._nodes.append(node)
    return out


def _coerce_operand(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _binary_shapes(name, a: Tensor, b: Tensor):
    if a.data.dtype != b.data.dtype:
        raise TypeError(
            f"{name}: dtype mismatch {a.dtype} vs {b.dtype}")
    if a.shape == b.shape or a.data.ndim == 0 or b.data.ndim == 0:
        return
    raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not match "
                     "(only equal shapes or a scalar operand are allowed)")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # Undo scalar broadcasting in a binary op's backward.
    if g.shape == tuple(shape):
        return g
    return np.sum(g).reshape(shape) if shape == () else g


# ---------------------------------------------------------------------------
# Elementwise arithmetic

def add(a: Tensor, b) -> Tensor:
    b = _coerce_operand(b, a)
    _binary_shapes("add", a, b)
    out = a.data + b.data

    def bwd(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)
    return record_op("add", (a, b), out, bwd)


def sub(a: Tensor, b) -> Tensor:
    b = _coerce_operand(b, a)
    _binary_shapes("sub", a, b)
    out = a.data - b.data

    def bwd(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)
    return record_op("sub", (a, b), out, bwd)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce_operand(b, a)
    _binary_shapes("mul", a, b)
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def bwd(g):
        return _reduce_to(g * b_data, a.shape), _reduce_to(g * a_data, b.shape)
    return record_op("mul", (a, b), out, bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        return (-g,)
    return record_op("neg", (a,), -a.data, bwd)


# ---------------------------------------------------------------------------
# Activations

def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        out = np.exp(a.data)
    _tally(5 * out.size)

    def bwd(g):
        return (g * out,)
    return record_op("exp", (a,), out, bwd)


def _sigmoid_np(x):
    # exp(-|x|) never overflows; the numerator is 1 for x >= 0, else e.
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)  # branch-free select: e <= 1
    np.add(e, 1.0, out=e)
    return np.divide(num, e, out=num)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_np(a.data)
    _tally(5 * out.size)

    def bwd(g):
        return (g * out * (1.0 - out),)
    return record_op("sigmoid", (a,), out, bwd)


def _silu_grad_np(x, s):
    return s * (1.0 + x * (1.0 - s))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = _sigmoid_np(a.data)
    out = a.data * s
    _tally(5 * out.size)
    x = a.data

    def bwd(g):
        return (g * _silu_grad_np(x, s),)
    return record_op("silu", (a,), out, bwd)


_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Elements per block of the f32 GELU: its scratch buffers stay in cache.
_GELU_BLOCK = 1 << 15
# Eigen's fast f32 erf, erf(z) = z * P(z^2) / Q(z^2) on z clamped to
# [-4, 4], where erf is +-1 in f32. Highest power first; P is halved, so
# 0.5 + z * P / Q is 0.5 * (1 + erf(z)) exactly as rounded.
_ERF_P = tuple(0.5 * c for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04,
          -1.68282697438203e-03, -7.37332916720468e-03,
          -1.42647390514189e-02)


def _horner(z2, coeffs, out):
    np.multiply(z2, coeffs[0], out=out)
    np.add(out, coeffs[1], out=out)
    for c in coeffs[2:]:
        np.multiply(out, z2, out=out)
        np.add(out, c, out=out)


def _gelu_f32(x):
    """x * phi and phi = 0.5 * (1 + erf(x / sqrt 2)) with the fast erf,
    block by block through three reused scratch buffers."""
    out, phi = np.empty_like(x), np.empty_like(x)
    xs, outs, phis = x.reshape(-1), out.reshape(-1), phi.reshape(-1)
    z, z2, q = (np.empty(min(_GELU_BLOCK, x.size), x.dtype) for _ in range(3))
    for s in range(0, x.size, _GELU_BLOCK):
        e = min(s + _GELU_BLOCK, x.size)
        zb, z2b, qb, pb = z[:e - s], z2[:e - s], q[:e - s], phis[s:e]
        np.multiply(xs[s:e], _INV_SQRT2, out=zb)
        np.clip(zb, -4.0, 4.0, out=zb)  # NaN stays NaN, +-inf become +-4
        np.multiply(zb, zb, out=z2b)
        _horner(z2b, _ERF_P, pb)
        _horner(z2b, _ERF_Q, qb)
        np.divide(pb, qb, out=pb)
        np.multiply(pb, zb, out=pb)
        np.add(pb, 0.5, out=pb)
        np.multiply(xs[s:e], pb, out=outs[s:e])
    return out, phi


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, erf form: exact erf at f64, Eigen's
    rational erf (<= 7.5 ulp) at f32."""
    x = a.data
    if x.dtype == np.float32:
        out, phi = _gelu_f32(x)
    else:
        phi = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
        out = x * phi
    _tally(5 * out.size)

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (phi + x * pdf),)
    return record_op("gelu", (a,), out, bwd)


def _softplus_f32(x):
    """max(x, 0) + log1p(exp(-|x|)); exp(-|x|) never overflows."""
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(out, np.maximum(x, 0.0), out=out)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed overflow-safe; softplus(0) = ln 2."""
    x = a.data
    if x.dtype == np.float32:
        out = _softplus_f32(x)
    else:
        out = np.logaddexp(0.0, x).astype(x.dtype, copy=False)
    _tally(5 * out.size)

    def bwd(g):
        return (g * _sigmoid_np(x),)
    return record_op("softplus", (a,), out, bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis``; rows sum to one."""
    nd = a.data.ndim
    if not (-nd <= axis < nd):
        raise ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    z = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / np.sum(e, axis=axis, keepdims=True)
    _tally(5 * out.size)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return ((g - dot) * out,)
    return record_op("softmax", (a,), out, bwd)


# ---------------------------------------------------------------------------
# Reductions and shape ops

def _norm_axes(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a: Tensor, axis=None) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    out = np.sum(a.data, axis=axes)
    shape = a.shape

    def bwd(g):
        if axes is None:
            return (np.broadcast_to(g, shape).copy(),)
        ge = np.expand_dims(g, axes)
        return (np.broadcast_to(ge, shape).copy(),)
    return record_op("sum", (a,), out, bwd)


def tmean(a: Tensor, axis=None) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    out = np.mean(a.data, axis=axes)
    shape = a.shape
    if axes is None:
        count = a.size
    else:
        count = int(np.prod([shape[ax] for ax in axes]))

    def bwd(g):
        gs = g / count
        if axes is None:
            return (np.broadcast_to(gs, shape).copy(),)
        ge = np.expand_dims(gs, axes)
        return (np.broadcast_to(ge, shape).copy(),)
    return record_op("mean", (a,), out, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)
    return record_op("reshape", (a,), out, bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (np.ascontiguousarray(np.transpose(g, inv)),)
    return record_op("transpose", (a,), out, bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p)
                     for p in np.split(g, offsets, axis=axis))
    return record_op("concat", tuple(tensors), out, bwd)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % a.data.ndim
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = np.ascontiguousarray(a.data[idx])
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[idx] = g
        return (full,)
    return record_op("slice", (a,), out, bwd)


def take(a: Tensor, indices, axis: int) -> Tensor:
    """Gather along ``axis``; backward scatter-adds (handles repeats)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("take: indices must be one-dimensional")
    axis = axis % a.data.ndim
    out = np.take(a.data, idx, axis=axis)
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(np.moveaxis(full, axis, 0), idx, np.moveaxis(g, axis, 0))
        return (full,)
    return record_op("take", (a,), out, bwd)


def tile_leading(a: Tensor, reps: Sequence[int]) -> Tensor:
    """Replicate a tensor over new leading axes, e.g. [D] -> [B, L, D]."""
    reps = tuple(int(r) for r in reps)
    out = np.broadcast_to(a.data, reps + a.shape).copy()
    n_lead = len(reps)

    def bwd(g):
        return (np.sum(g, axis=tuple(range(n_lead))),)
    return record_op("tile_leading", (a,), out, bwd)


def scale_per_sample(a: Tensor, factors: np.ndarray) -> Tensor:
    """Multiply each leading-axis slice by a fixed scalar (drop-path mask)."""
    f = np.asarray(factors, dtype=a.data.dtype)
    if f.shape != (a.shape[0],):
        raise ShapeError(
            f"scale_per_sample: factors shape {f.shape} != ({a.shape[0]},)")
    fb = f.reshape((-1,) + (1,) * (a.data.ndim - 1))
    out = a.data * fb

    def bwd(g):
        return (g * fb,)
    return record_op("scale_per_sample", (a,), out, bwd)


# ---------------------------------------------------------------------------
# Linear algebra layers

def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x @ weight.T + bias over the trailing axis.

    x: [..., D_in], weight: [D_out, D_in], bias: [D_out] or None.
    """
    d_out, d_in = weight.shape
    if x.shape[-1] != d_in:
        raise ShapeError(
            f"linear: trailing extent {x.shape[-1]} != weight D_in {d_in}")
    if bias is not None and bias.shape != (d_out,):
        raise ShapeError(
            f"linear: bias shape {bias.shape} != ({d_out},)")
    lead = x.shape[:-1]
    m = int(np.prod(lead)) if lead else 1
    x2 = x.data.reshape(m, d_in)
    out2 = x2 @ weight.data.T
    if bias is not None:
        out2 = out2 + bias.data
    out = out2.reshape(lead + (d_out,))
    _tally(m * d_out * d_in)
    w_data = weight.data
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def bwd(g):
        g2 = g.reshape(m, d_out)
        gx = (g2 @ w_data).reshape(lead + (d_in,))
        gw = g2.T @ x2
        if bias is None:
            return gx, gw
        return gx, gw, g2.sum(axis=0)
    return record_op("linear", inputs, out, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean, unit variance, then affine."""
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({c},), got "
            f"{gamma.shape} and {beta.shape}")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out = xhat * gamma.data + beta.data
    _tally(5 * out.size)
    g_data = gamma.data

    def bwd(g):
        gxh = g * g_data
        lead = tuple(range(g.ndim - 1))
        ggamma = np.sum(g * xhat, axis=lead)
        gbeta = np.sum(g, axis=lead)
        m1 = np.mean(gxh, axis=-1, keepdims=True)
        m2 = np.mean(gxh * xhat, axis=-1, keepdims=True)
        gx = inv_std * (gxh - m1 - xhat * m2)
        return gx, ggamma, gbeta
    return record_op("layer_norm", (x, gamma, beta), out, bwd)


# ---------------------------------------------------------------------------
# Convolutions (cross-correlation convention). ``conv2d`` works on NCHW
# maps; ``depthwise_conv2d`` and ``pointwise_conv2d`` on channel-last NHWC.

def _conv_out_size(h, w, kh, kw, stride, padding):
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return oh, ow


def _check_conv_pre(name, h, w, kh, kw, stride, padding, axes):
    if stride < 1:
        raise ValueError(f"{name}: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"{name}: padding must be >= 0, got {padding}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(
            f"{name}: kernel {kh}x{kw} exceeds padded input "
            f"{h + 2 * padding}x{w + 2 * padding} (axes {axes})")


def _zero_pad(a: np.ndarray, padding: int, axes) -> np.ndarray:
    """Zero-pad two spatial axes of a 4-D array; ``a`` itself at 0."""
    if not padding:
        return a
    shape = list(a.shape)
    idx = [slice(None)] * 4
    for ax in axes:
        shape[ax] += 2 * padding
        idx[ax] = slice(padding, padding + a.shape[ax])
    out = np.zeros(shape, dtype=a.dtype)
    out[tuple(idx)] = a
    return out


def _windows(xp, kh, kw, stride, oh, ow):
    n, c, _, _ = xp.shape
    s0, s1, s2, s3 = xp.strides
    shape = (n, c, oh, ow, kh, kw)
    strides = (s0, s1, s2 * stride, s3 * stride, s2, s3)
    return np.lib.stride_tricks.as_strided(xp, shape, strides, writeable=False)


def _col2im(cols6, xshape, stride, padding):
    # cols6: [N, C, kh, kw, OH, OW] gradients per window tap.
    n, c, h, w = xshape
    kh, kw = cols6.shape[2], cols6.shape[3]
    oh, ow = cols6.shape[4], cols6.shape[5]
    hp, wp = h + 2 * padding, w + 2 * padding
    gx = np.zeros((n, c, hp, wp), dtype=cols6.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i:i + stride * oh:stride,
               j:j + stride * ow:stride] += cols6[:, :, i, j]
    if padding:
        gx = gx[:, :, padding:padding + h, padding:padding + w]
    return np.ascontiguousarray(gx)


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1,
           padding: int = 0, bias: Tensor | None = None) -> Tensor:
    """2-D cross-correlation.

    x: [N, C_in, H, W], kernel: [C_out, C_in, kH, kW]. Output spatial size is
    floor((H + 2*padding - kH)/stride) + 1 (same for W). No kernel flip.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d: input and kernel must be 4-D (NCHW)")
    n, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernel.shape
    if kc != c_in:
        raise ShapeError(
            f"conv2d: input channels (axis 1 = {c_in}) != kernel input "
            f"channels (axis 1 = {kc})")
    _check_conv_pre("conv2d", h, w, kh, kw, stride, padding, "2, 3")
    oh, ow = _conv_out_size(h, w, kh, kw, stride, padding)
    xp = _zero_pad(x.data, padding, (2, 3))
    win = _windows(xp, kh, kw, stride, oh, ow)
    # [N, C, OH, OW, kh, kw] -> cols [N, C*kh*kw, OH*OW]
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, c_in * kh * kw, oh * ow)
    kmat = kernel.data.reshape(c_out, c_in * kh * kw)
    out = np.matmul(kmat, cols).reshape(n, c_out, oh, ow)
    if bias is not None:
        if bias.shape != (c_out,):
            raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")
        out = out + bias.data.reshape(1, c_out, 1, 1)
    _tally(n * oh * ow * c_out * c_in * kh * kw)
    xshape = x.shape
    inputs = (x, kernel) if bias is None else (x, kernel, bias)

    def bwd(g):
        g2 = g.reshape(n, c_out, oh * ow)
        gk = np.tensordot(g2, cols, axes=((0, 2), (0, 2))).reshape(
            kernel.shape)
        gx = None
        if x.grad_enabled:  # input images need no gradient in training
            gcols = np.matmul(kmat.T, g2)  # [N, C*kh*kw, OH*OW]
            cols6 = gcols.reshape(n, c_in, kh, kw, oh, ow)
            gx = _col2im(cols6, xshape, stride, padding)
        if bias is None:
            return gx, gk
        return gx, gk, g.sum(axis=(0, 2, 3))
    return record_op("conv2d", inputs, out, bwd)


# Target size of one block of output rows in ``_tap_sum``: small enough
# that the block and its scratch product stay in cache across all taps.
_TAP_BLOCK_BYTES = 256 * 1024


def _tap_sum(src, offsets, weights, stride, out):
    """out[n, y, x] = sum_t weights[t] * src[n, s*y + di_t, s*x + dj_t].

    ``src`` and ``out`` are NHWC, ``offsets`` lists (di, dj) per tap and
    ``weights`` is [T, C]. Each output element is summed from zero in tap
    order, block by block: a block is a run of whole images, or of rows of
    one image, of about ``_TAP_BLOCK_BYTES``, and one scratch buffer holds
    each tap's product.
    """
    n, oh, ow, c = out.shape
    row = ow * c * out.itemsize
    if oh * row <= _TAP_BLOCK_BYTES:
        step = max(1, _TAP_BLOCK_BYTES // (oh * row))
        blocks = [(a, min(a + step, n), 0, oh) for a in range(0, n, step)]
    else:
        step = max(1, _TAP_BLOCK_BYTES // row)
        blocks = [(a, a + 1, y, min(y + step, oh))
                  for a in range(n) for y in range(0, oh, step)]
    a, b, y0, y1 = blocks[0]
    scratch = np.empty((b - a, y1 - y0, ow, c), dtype=out.dtype)
    span = stride * (ow - 1) + 1
    for a, b, y0, y1 in blocks:
        acc = out[a:b, y0:y1]
        prod = scratch[:b - a, :y1 - y0]
        acc.fill(0)
        for (di, dj), wt in zip(offsets, weights):
            win = src[a:b, di + stride * y0:di + stride * (y1 - 1) + 1:stride,
                      dj:dj + span:stride]
            np.multiply(win, wt, out=prod)
            acc += prod


def _dilate_pad(g, h, w, kh, kw, stride, padding):
    """Upstream gradient placed on the padded input grid, for a gather.

    Returns buf [N, H + kH - 1, W + kW - 1, C] holding g[:, o] at row
    kH - 1 - padding + stride*o (same for columns) and zeros elsewhere, so
    that the input gradient at (y, x) is the tap sum over kernel taps (i, j)
    of k[i, j] * buf[y + kH - 1 - i, x + kW - 1 - j].
    """
    n, oh, ow, c = g.shape
    buf = np.zeros((n, h + kh - 1, w + kw - 1, c), dtype=g.dtype)

    def place(k, size, count):
        # Outputs whose row lands inside buf; the others sit on padding out
        # of the kernel's reach and touch no input.
        t0 = k - 1 - padding
        lo = max(0, -(t0 // stride))
        hi = min(count, (size - 1 + padding) // stride + 1)
        return lo, hi, slice(t0 + stride * lo, t0 + stride * (hi - 1) + 1,
                             stride)

    r0, r1, rows = place(kh, h, oh)
    c0, c1, cols = place(kw, w, ow)
    if r0 < r1 and c0 < c1:
        buf[:, rows, cols] = g[:, r0:r1, c0:c1]
    return buf


def depthwise_conv2d(x: Tensor, kernel: Tensor, stride: int = 1,
                     padding: int = 0) -> Tensor:
    """Per-channel 2-D cross-correlation of a channel-last map.

    x: [N, H, W, C], kernel: [C, 1, kH, kW]; the output is [N, OH, OW, C]
    with the sizes of ``conv2d``. Every output element is a sum over the
    kernel taps in (i, j) order, from zero, computed as one multiply-add
    per tap over contiguous rows of whole channel vectors (``_tap_sum``).
    The input gradient is the same tap sum, gathered from the upstream
    gradient placed on the padded grid; the kernel gradient is one channel
    reduction per tap, and is skipped when the kernel is not grad-enabled.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("depthwise_conv2d: input and kernel must be 4-D")
    n, h, w, c = x.shape
    kc, one, kh, kw = kernel.shape
    if kc != c or one != 1:
        raise ShapeError(
            f"depthwise_conv2d: kernel shape {kernel.shape} incompatible "
            f"with {c} input channels (axis 3; want [{c}, 1, kH, kW])")
    _check_conv_pre("depthwise_conv2d", h, w, kh, kw, stride, padding,
                    "1, 2")
    oh, ow = _conv_out_size(h, w, kh, kw, stride, padding)
    xp = _zero_pad(x.data, padding, (1, 2))
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    weights = np.ascontiguousarray(
        kernel.data[:, 0].reshape(c, kh * kw).T)  # [kh*kw, C], tap order
    out = np.empty((n, oh, ow, c), dtype=x.data.dtype)
    _tap_sum(xp, taps, weights, stride, out)
    _tally(n * c * oh * ow * kh * kw)
    # Only the kernel gradient reads the padded input.
    xp_saved = xp if kernel.grad_enabled else None

    def bwd(g):
        gk = None
        if xp_saved is not None:
            gk = np.empty((c, 1, kh, kw), dtype=g.dtype)
            for i, j in taps:
                win = xp_saved[:, i:i + stride * oh:stride,
                               j:j + stride * ow:stride]
                gk[:, 0, i, j] = np.einsum("nhwc,nhwc->c", g, win)
        gx = np.empty((n, h, w, c), dtype=g.dtype)
        _tap_sum(_dilate_pad(g, h, w, kh, kw, stride, padding),
                 [(kh - 1 - i, kw - 1 - j) for i, j in taps], weights, 1, gx)
        return gx, gk
    return record_op("depthwise_conv2d", (x, kernel), out, bwd)


def pointwise_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """1x1 convolution of a channel-last map; kernel [C_out, C_in, 1, 1].

    x: [N, H, W, C_in] -> [N, H, W, C_out]. The products are formed image
    by image as kernel @ x[n]^T, the BLAS call of a 1x1 NCHW ``conv2d``,
    so the two give the same bytes; one flattened x @ kernel^T (``linear``)
    rounds differently on small grids. The kernel gradient is one BLAS
    product over all pixels.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("pointwise_conv2d: input and kernel must be 4-D")
    n, h, w, c_in = x.shape
    c_out, kc, kh, kw = kernel.shape
    if kc != c_in or (kh, kw) != (1, 1):
        raise ShapeError(
            f"pointwise_conv2d: kernel shape {kernel.shape} incompatible "
            f"with {c_in} input channels (axis 3; want [C_out, {c_in}, 1, 1])")
    x3 = x.data.reshape(n, h * w, c_in)
    kmat = kernel.data.reshape(c_out, c_in)
    out = np.matmul(kmat, x3.transpose(0, 2, 1)).transpose(0, 2, 1)
    _tally(n * h * w * c_out * c_in)

    def bwd(g):
        g2 = g.reshape(n * h * w, c_out)
        gk = (g2.T @ x3.reshape(n * h * w, c_in)).reshape(kernel.shape)
        gx = np.matmul(kmat.T, g.reshape(n, h * w, c_out).transpose(0, 2, 1))
        # Adding 0 while copying to channel-last turns -0 into +0, as the
        # zero-initialised accumulation of conv2d's backward does.
        gx_last = np.empty((n, h * w, c_in), dtype=g.dtype)
        np.add(gx.transpose(0, 2, 1), 0.0, out=gx_last)
        return gx_last.reshape(x.shape), gk
    return record_op("pointwise_conv2d", (x, kernel),
                     np.ascontiguousarray(out).reshape(n, h, w, c_out), bwd)


# ---------------------------------------------------------------------------
# Loss

def softmax_cross_entropy(logits: Tensor, labels: np.ndarray,
                          label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy with optional label smoothing; returns a scalar.

    logits: [B, K]; labels: int array [B]. The smoothed target for class k is
    (1 - s) * onehot + s / K.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross entropy expects [B, K], got {logits.shape}")
    b, k = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} != ({b},)")
    if not (0.0 <= label_smoothing < 1.0):
        raise ValueError("label_smoothing must be in [0, 1)")
    z = logits.data - np.max(logits.data, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    logp = z - lse
    target = np.full((b, k), label_smoothing / k, dtype=logits.data.dtype)
    target[np.arange(b), labels] += 1.0 - label_smoothing
    out = np.asarray(-np.sum(target * logp) / b, dtype=logits.data.dtype)
    p = np.exp(logp)

    def bwd(g):
        return ((p - target) * (g / b),)
    return record_op("cross_entropy", (logits,), out, bwd)
