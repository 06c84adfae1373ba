"""Dense row-major tensors with taped reverse-mode differentiation.

Everything downstream (scan, blocks, backbone, training) is built from the
primitives in this module. Tensors are value-semantic numpy wrappers; a Tape
records primitive applications in execution order, which is already a
topological order, so the backward pass is a single reverse sweep.
``Tape.sweep`` and ``Tape.gradients`` take the leaves to differentiate
as an explicit list.

Broadcasting is deliberately restricted: elementwise ops accept equal shapes
or a scalar (0-d) operand, bias addition happens inside ``linear`` /
``layer_norm``, and anything else is a shape error. This keeps every op
checkable against an explicit loop oracle.
"""

from __future__ import annotations

import math
import threading
import weakref
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeError", "NonFiniteError", "TapeOrderError",
    "add", "sub", "mul", "neg",
    "exp", "sigmoid", "silu", "gelu", "softplus", "softmax",
    "tsum", "tmean", "reshape", "transpose", "concat", "slice_axis",
    "take", "tile_leading", "scale_per_sample",
    "linear", "layer_norm", "conv2d", "depthwise_conv2d",
    "softmax_cross_entropy", "record_op", "recording",
    "flop_counter",
]

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class NonFiniteError(ArithmeticError):
    """Raised when an operation produces NaN or Inf from finite inputs."""


class TapeOrderError(RuntimeError):
    """Raised when a tape exits while it is not this thread's innermost."""


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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, grad={self.grad_enabled})"


class _Node:
    """One recorded primitive application: its inputs' producers and its
    backward rule.

    ``inputs`` holds, per input, the ``_Node`` that produced it, the input
    itself when it is a grad-enabled leaf, or None when it needs no
    gradient. A node never holds an op output, so an output that no
    backward rule reads is freed as soon as the forward drops it. The
    output tensor holds its node and the tape holds its nodes, so the node
    refers back to both weakly: a graph has no reference cycle, and
    reference counting frees it once its tape and last output are dropped.
    ``out`` and ``tape`` read as None after that. ``Tape.sweep`` sets
    ``backward`` to None and ``inputs`` to () once it has swept the node.
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


def _stack(name: str) -> list:
    """This thread's stack of active ``name``: "tapes" or "counters"."""
    stack = getattr(_LOCAL, name, None)
    if stack is None:
        stack = []
        setattr(_LOCAL, name, stack)
    return stack


def _active_tape():
    stack = _stack("tapes")
    return stack[-1] if stack else None


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Recording order is topological (inputs are created before the ops that
    consume them) so ``sweep`` is one reverse pass that touches every
    recorded node at most once. Tapes are thread-local; independent tapes may
    run concurrently on different threads.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._swept = False

    def __enter__(self):
        _stack("tapes").append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _stack("tapes")
        if not stack or stack[-1] is not self:
            raise TapeOrderError("a tape exited while it was not the "
                                 "innermost active tape")
        stack.pop()
        return False

    @property
    def nodes(self) -> tuple:
        return tuple(self._nodes)

    def sweep(self, loss: Tensor, params: Iterable[Tensor]):
        """One-shot reverse sweep from a scalar ``loss``, as a generator.

        Yields ``(leaf, gradient)`` for each tensor of ``params`` once no
        node left on the tape consumes it, so the caller may overwrite the
        leaf's data and drop the gradient while the sweep goes on. A leaf
        the loss does not depend on yields zeros; requested tensors that
        are not leaves of the graph yield zeros first.

        Pending gradients are keyed by producer: the ``_Node`` that made an
        op output, or the leaf itself, as ``_Node.inputs`` holds them. The
        sweep never reads an op output, so those may already be freed. It
        pops each node off the tape and, once its backward has run or it
        got no gradient, drops its backward rule and inputs, so the arrays
        a rule saved are freed while the sweep goes on. The tape is spent
        afterwards: a second sweep raises ``ValueError``.
        """
        if loss.data.ndim != 0:
            raise ValueError(
                f"loss must be a scalar tensor, got shape {loss.shape}")
        if loss.node is None or loss.node.tape is not self:
            raise ValueError("loss is detached from this tape")
        if self._swept:
            raise ValueError("tape already swept: record a new tape to take "
                             "gradients again")
        self._swept = True
        nodes = self._nodes
        wanted = {id(p): p for p in params}
        # Leaves by the index of their earliest consumer: the sweep runs in
        # reverse, so once that node is swept no node left reads the leaf.
        # The only tensors among the inputs are grad-enabled leaves.
        release: dict[int, list[Tensor]] = {}
        for i, node in enumerate(nodes):
            for src in node.inputs:
                if id(src) in wanted:
                    release.setdefault(i, []).append(wanted.pop(id(src)))
        for p in wanted.values():  # not a leaf of this graph
            yield p, Tensor(np.zeros_like(p.data), check_finite=False)
        grads: dict = {loss.node: np.ones((), dtype=loss.data.dtype)}
        while nodes:
            node = nodes.pop()
            pending = grads.pop(node, None)
            if pending is not None:
                for src, g in zip(node.inputs, node.backward(pending)):
                    if g is None or src is None:
                        continue
                    if src in grads:
                        g = grads[src] + g
                    grads[src] = g
            node.backward = None
            node.inputs = ()
            for p in release.pop(len(nodes), ()):
                g = grads.pop(p, None)
                g = np.zeros_like(p.data) if g is None else g
                yield p, Tensor(np.asarray(g, dtype=p.data.dtype),
                                check_finite=False)

    def gradients(self, loss: Tensor, params: Iterable[Tensor]):
        """``sweep`` collected into a dict mapping each leaf to its
        gradient."""
        return dict(self.sweep(loss, params))


# ---------------------------------------------------------------------------
# FLOP accounting (used by the backbone's instrumented counter)

class flop_counter:
    """Tallies op costs during forward execution, in fused multiply-add units.

    Convolutions and linears count one unit per multiply-accumulate, the scan
    counts two units per state per token, norms and activations count five
    elementwise ops per element. ``with flop_counter() as fc`` adds the cost
    of every op run inside the ``with`` statement to ``fc.total``.
    """

    def __init__(self):
        self.total = 0.0

    def add(self, n):
        self.total += float(n)

    def __enter__(self):
        _stack("counters").append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _stack("counters").pop()
        return False


def _tally(n):
    stack = _stack("counters")
    if stack:
        stack[-1].add(n)


# ---------------------------------------------------------------------------
# Recording helper

def recording(inputs: Sequence[Tensor]) -> bool:
    """Whether ``record_op`` tapes an op on ``inputs``: a tape is active and
    an input is grad-enabled. Ops use it to skip state only a backward
    reads."""
    return _active_tape() is not None and any(t.grad_enabled for t in inputs)


@contextmanager
def _untaped():
    """Run ops unrecorded while a tape is active. A fused node's forward
    runs its primitives so: each checks and tallies its output as its own
    node does, and records nothing."""
    stack = _stack("tapes")
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()


def record_op(name: str, inputs: Sequence[Tensor], out_data: np.ndarray,
              backward_fn) -> Tensor:
    """Build the output tensor of a primitive and record it on the active tape.

    ``backward_fn(grad_out) -> tuple`` must return one gradient array (or
    None) per input, aligned positionally. It should close over the arrays
    and shapes it reads, never over a ``Tensor``: the node records each
    input's producer (see ``_Node``), so an input that no rule reads is
    freed when the forward drops it, unless a rule holds the tensor.
    """
    if not np.isfinite(out_data).all():
        raise NonFiniteError(f"{name} produced non-finite values")
    out = Tensor(out_data, check_finite=False)
    if recording(inputs):
        tape = _active_tape()
        out.grad_enabled = True
        sources = tuple(t.node or (t if t.grad_enabled else None)
                        for t in inputs)
        node = _Node(name, sources, out, backward_fn, tape)
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
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _reduce_to(g, a_shape), _reduce_to(g, b_shape)
    return record_op("add", (a, b), out, bwd)


def sub(a: Tensor, b) -> Tensor:
    b = _coerce_operand(b, a)
    _binary_shapes("sub", a, b)
    out = a.data - b.data
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _reduce_to(g, a_shape), _reduce_to(-g, b_shape)
    return record_op("sub", (a, b), out, bwd)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce_operand(b, a)
    _binary_shapes("mul", a, b)
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def bwd(g):
        return (_reduce_to(g * b_data, a_data.shape),
                _reduce_to(g * a_data, b_data.shape))
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


def _silu_np(x, with_factor: bool):
    """(x * sigmoid(x), its derivative factor s * (1 + x * (1 - s)) when
    ``with_factor``, else None)."""
    s = _sigmoid_np(x)
    return x * s, _silu_grad_np(x, s) if with_factor else None


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x). A taped call keeps only the derivative factor
    s * (1 + x * (1 - s)), which its backward multiplies by."""
    out, factor = _silu_np(a.data, recording((a,)))
    _tally(5 * out.size)

    def bwd(g):
        return (g * factor,)
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
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= z2
        out += c


# Cephes ndtr.c's f64 erf, the code scipy's erf evaluates, with its
# coefficients and its operations in its order, so every result has
# scipy's bytes: erf(x) = x * T(x^2) / U(x^2) for |x| <= 1, else
# +-(1 - erfc(|x|)), where erfc(a) = exp(-a^2) * P(a) / Q(a) below 8 and
# exp(-a^2) * R(a) / S(a) from 8, and 0 once -a^2 < -_CEPHES_MAXLOG.
# Highest power first; U, Q and S are monic.
_CEPHES_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
             2.23200534594684319226E3, 7.00332514112805075473E3,
             5.55923013010394962768E4)
_CEPHES_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
             4.59432382970980127987E3, 2.26290000613890934246E4,
             4.92673942608635921086E4)
_CEPHES_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
             7.46321056442269912687E0, 4.86371970985681366614E1,
             1.96520832956077098242E2, 5.26445194995477358631E2,
             9.34528527171957607540E2, 1.02755188689515710272E3,
             5.57535335369399327526E2)
_CEPHES_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
             3.54937778887819891062E2, 9.75708501743205489753E2,
             1.82390916687909736289E3, 2.24633760818710981792E3,
             1.65666309194161350182E3, 5.57535340817727675546E2)
_CEPHES_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
             5.01905042251180477414E0, 6.16021097993053585195E0,
             7.40974269950448939160E0, 2.97886665372100240670E0)
_CEPHES_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
             1.20489539808096656605E1, 1.70814450747565897222E1,
             9.60896809063285878198E0, 3.36907645100081516050E0)
_CEPHES_MAXLOG = 7.09782712893383996843E2


def _erf(x):
    """erf of an f64 array, byte-identical to scipy's erf; NaN gives the
    canonical NaN."""
    if x.max(initial=0.0) <= 1.0 and x.min(initial=0.0) >= -1.0:  # NaN fails
        z = x * x
        p, q = np.empty_like(z), np.empty_like(z)
        _horner(z, _CEPHES_T, p)
        _horner(z, _CEPHES_U, q)
        p *= x
        p /= q
        return p
    out = np.full_like(x, np.nan)
    a = np.abs(x)
    small, tail = a <= 1.0, a > 1.0  # a NaN is in neither
    out[small] = _erf(x[small])
    a = a[tail]
    with np.errstate(over="ignore"):  # a^2 = inf: erfc is 0
        e = -(a * a)
    live = e >= -_CEPHES_MAXLOG
    erfc = np.zeros_like(a)
    for part, num, den in ((live & (a < 8.0), _CEPHES_P, _CEPHES_Q),
                           (live & (a >= 8.0), _CEPHES_R, _CEPHES_S)):
        ap = a[part]
        p, q = np.empty_like(ap), np.empty_like(ap)
        _horner(ap, num, p)
        _horner(ap, den, q)
        # Cephes calls libm's exp. numpy's own f64 exp differs from it by
        # an ulp on some inputs; the complex exp of a real argument is
        # libm's.
        erfc[part] = np.exp(e[part].astype(np.complex128)).real * p / q
    out[tail] = np.copysign(1.0 - erfc, x[tail])
    return out


def _gelu_f32(x, with_factor: bool):
    """x * phi, phi = 0.5 * (1 + erf(x / sqrt 2)) with the fast erf, block
    by block through reused scratch buffers; with the derivative factor
    phi + x * pdf(x) when ``with_factor``, else None."""
    out = np.empty_like(x)
    factor = np.empty_like(x) if with_factor else None
    xs, outs = x.reshape(-1), out.reshape(-1)
    z, z2, q, phi = (np.empty(min(_GELU_BLOCK, x.size), x.dtype)
                     for _ in range(4))
    for s in range(0, x.size, _GELU_BLOCK):
        e = min(s + _GELU_BLOCK, x.size)
        xb = xs[s:e]
        zb, z2b, qb, pb = z[:e - s], z2[:e - s], q[:e - s], phi[:e - s]
        np.multiply(xb, _INV_SQRT2, out=zb)
        np.clip(zb, -4.0, 4.0, out=zb)  # NaN stays NaN, +-inf become +-4
        np.multiply(zb, zb, out=z2b)
        _horner(z2b, _ERF_P, pb)
        _horner(z2b, _ERF_Q, qb)
        np.divide(pb, qb, out=pb)
        np.multiply(pb, zb, out=pb)
        np.add(pb, 0.5, out=pb)
        np.multiply(xb, pb, out=outs[s:e])
        if with_factor:  # phi + x * (exp(-0.5 * x * x) * 1/sqrt(2 pi))
            np.multiply(xb, -0.5, out=zb)
            np.multiply(zb, xb, out=zb)
            np.exp(zb, out=zb)
            np.multiply(zb, _INV_SQRT_2PI, out=zb)
            np.multiply(xb, zb, out=zb)
            np.add(pb, zb, out=factor.reshape(-1)[s:e])
    return out, factor


def _gelu_np(x, with_factor: bool):
    """(GELU of an array, its derivative factor phi + x * pdf(x) when
    ``with_factor``, else None)."""
    if x.dtype == np.float32:
        return _gelu_f32(x, with_factor)
    phi = _erf(x * _INV_SQRT2)
    phi += 1.0
    phi *= 0.5
    factor = (phi + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI)
              if with_factor else None)
    return x * phi, factor


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, erf form: scipy's Cephes erf
    (``_erf``) at f64, Eigen's rational erf (<= 7.5 ulp) at f32. A taped
    call keeps only the derivative factor phi + x * pdf(x), which its
    backward multiplies by."""
    out, factor = _gelu_np(a.data, recording((a,)))
    _tally(5 * out.size)

    def bwd(g):
        return (g * factor,)
    return record_op("gelu", (a,), out, bwd)


def _softplus_np(x):
    """log(1 + exp(x)) without overflow: at f32, max(x, 0) +
    log1p(exp(-|x|)), where exp(-|x|) never overflows; at f64,
    ``np.logaddexp``."""
    if x.dtype != np.float32:
        return np.logaddexp(0.0, x).astype(x.dtype, copy=False)
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(out, np.maximum(x, 0.0), out=out)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed overflow-safe; softplus(0) = ln 2."""
    x = a.data
    out = _softplus_np(x)
    _tally(5 * out.size)

    def bwd(g):
        return (g * _sigmoid_np(x),)
    return record_op("softplus", (a,), out, bwd)


def _softmax_np(x, axis):
    """Max-shifted softmax of an array along ``axis``."""
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis``; rows sum to one."""
    nd = a.data.ndim
    if not (-nd <= axis < nd):
        raise ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    out = _softmax_np(a.data, axis)
    _tally(5 * out.size)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return ((g - dot) * out,)
    return record_op("softmax", (a,), out, bwd)


# ---------------------------------------------------------------------------
# Reductions and shape ops

def tsum(a: Tensor) -> Tensor:
    out = np.sum(a.data)
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)
    return record_op("sum", (a,), out, bwd)


def tmean(a: Tensor, axis: tuple[int, ...]) -> Tensor:
    axes = tuple(ax % a.data.ndim for ax in axis)
    out = np.mean(a.data, axis=axes)
    shape = a.shape
    count = int(np.prod([shape[ax] for ax in axes]))

    def bwd(g):
        gs = g / count
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
        return (_take_grad(g, idx, axis, shape),)
    return record_op("take", (a,), out, bwd)


def _take_grad(g, idx, axis: int, shape) -> np.ndarray:
    """``take``'s input gradient: g scatter-added into zeros of ``shape``
    at ``idx`` along ``axis``."""
    full = np.zeros(shape, dtype=g.dtype)
    np.add.at(np.moveaxis(full, axis, 0), idx, np.moveaxis(g, axis, 0))
    return full


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

def _affine(x2, w, b=None):
    """``linear``'s product of the rows x2 [M, D_in]: x2 @ w.T, plus b."""
    out2 = x2 @ w.T
    return out2 if b is None else out2 + b


def _affine_grads(g2, x2, w, bias: bool = True):
    """``linear``'s gradients from g2 [M, D_out] and its rows x2: those of
    x2 and w, then b's when ``bias``."""
    grads = (g2 @ w, g2.T @ x2)
    return grads + (g2.sum(axis=0),) if bias else grads


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
    m = math.prod(lead)  # np.prod of a tuple costs microseconds a call
    x2 = x.data.reshape(m, d_in)
    has_bias = bias is not None
    out = _affine(x2, weight.data, bias.data if has_bias else None)
    _tally(m * d_out * d_in)
    w_data = weight.data
    inputs = (x, weight, bias) if has_bias else (x, weight)

    def bwd(g):
        gx, *rest = _affine_grads(g.reshape(m, d_out), x2, w_data, has_bias)
        return gx.reshape(lead + (d_in,)), *rest
    return record_op("linear", inputs, out.reshape(lead + (d_out,)), bwd)


# Added to the variance before the square root.
_LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the trailing axis to zero mean, unit variance, then affine."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({c},), got "
            f"{gamma.shape} and {beta.shape}")
    # np.mean's sum over the count, without its wrapper's per-call cost.
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / c
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / c
    inv_std = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    out = xc * inv_std * gamma.data + beta.data
    _tally(5 * out.size)
    x_data, g_data = x.data, gamma.data

    def bwd(g):
        # The forward's own expression, so the same bytes as a saved xhat,
        # without an x-sized array held from the forward to the sweep.
        xhat = (x_data - mu) * inv_std
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
# Convolutions (cross-correlation convention) of channel-last maps,
# [N, H, W, C], with kernels [C_out, C_in, kH, kW].

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


def _zero_pad(maps, padding: int, channels: int) -> np.ndarray:
    """[K, N, H + 2p, W + 2p, channels]: the K maps [N, H, W, <= channels]
    zero-padded by ``padding`` a side and to ``channels``. One map that
    needs neither is returned as a view, not copied."""
    n, h, w, c = maps[0].shape
    if len(maps) == 1 and padding == 0 and c == channels:
        return maps[0][None]
    out = np.zeros((len(maps), n, h + 2 * padding, w + 2 * padding,
                    channels), dtype=maps[0].dtype)
    for i, m in enumerate(maps):
        out[i, :, padding:padding + h, padding:padding + w, :m.shape[3]] = m
    return out


def _window(a: np.ndarray, shape, strides, offset: int = 0) -> np.ndarray:
    """Read-only strided view into the C-contiguous array ``a``.

    ``strides`` and ``offset`` are in bytes; a negative stride walks its
    axis backwards from ``offset``. Building the array on ``a``'s buffer
    costs a fraction of ``as_strided``'s overhead, which shows on B=1 maps.
    """
    view = np.ndarray(shape, a.dtype, a, offset, strides)
    view.flags.writeable = False
    return view


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """2-D cross-correlation of a channel-last map.

    x: [N, H, W, C_in], kernel: [C_out, C_in, kH, kW]; the output is
    [N, OH, OW, C_out] with OH = floor((H + 2*padding - kH)/stride) + 1
    (same for W). No kernel flip. im2col is one window view
    [N, OH, OW, C_in, kH, kW], in the kernel's (c, i, j) order, and the
    forward is one GEMM of its rows with the flattened kernel; a k x k,
    stride-k convolution is a patchify (reshape + linear). The input
    gradient scatters the per-tap column gradients back tap by tap.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d: input and kernel must be 4-D")
    n, h, w, c_in = x.shape
    c_out, kc, kh, kw = kernel.shape
    if kc != c_in:
        raise ShapeError(
            f"conv2d: input channels (axis 3 = {c_in}) != kernel input "
            f"channels (axis 1 = {kc})")
    _check_conv_pre("conv2d", h, w, kh, kw, stride, padding, "1, 2")
    oh, ow = _conv_out_size(h, w, kh, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    xp = _zero_pad([x.data], padding, c_in)[0]
    s0, s1, s2, s3 = xp.strides
    win = _window(xp, (n, oh, ow, c_in, kh, kw),
                  (s0, s1 * stride, s2 * stride, s3, s1, s2))
    cols = np.ascontiguousarray(win).reshape(n * oh * ow, c_in * kh * kw)
    kmat = kernel.data.reshape(c_out, c_in * kh * kw)
    out = (cols @ kmat.T).reshape(n, oh, ow, c_out)
    _tally(n * oh * ow * c_out * c_in * kh * kw)
    k_shape, x_grad = kernel.shape, x.grad_enabled

    def bwd(g):
        g2 = g.reshape(n * oh * ow, c_out)
        gk = (g2.T @ cols).reshape(k_shape)
        if not x_grad:  # input images need no gradient in training
            return None, gk
        gcols = g2 @ kmat
        gcols = gcols.reshape(n, oh, ow, c_in, kh, kw)
        gx = np.zeros((n, hp, wp, c_in), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                gx[:, i:i + stride * oh:stride,
                   j:j + stride * ow:stride] += gcols[..., i, j]
        if padding:
            gx = np.ascontiguousarray(
                gx[:, padding:padding + h, padding:padding + w])
        return gx, gk
    return record_op("conv2d", (x, kernel), out, bwd)


# Bytes of one block of output pixels in ``_window_tap_sum``: whole
# channel vectors, as many pixels as fit, that stay in cache across taps.
_PIXEL_BLOCK_BYTES = 8 * 1024


def _depthwise_taps(kernels) -> np.ndarray:
    """[K, kH, kW, cc] taps of the K depthwise kernels [C, 1, kH, kW].

    einsum sums each output from zero in the order of its reduced axes as
    long as its innermost loop runs over a kept axis: the channel axis,
    once there are two. So cc = max(C, 2); the maps are padded to cc
    channels, and callers keep the first C.
    """
    c, _, kh, kw = kernels[0].shape
    taps = np.zeros((len(kernels), kh, kw, max(c, 2)),
                    dtype=kernels[0].data.dtype)
    for i, k in enumerate(kernels):
        taps[i, :, :, :c] = k.data[:, 0].transpose(1, 2, 0)
    return taps


def _window_tap_sum(maps, taps, padding, oh, ow, stride=1, flip=False):
    """The K filters ``taps`` [K, kH, kW, cc] over ``maps`` [N, H, W, <= cc]
    zero-padded by ``padding``, as one einsum; [K, N, OH, OW, cc]. Every
    filter reads the one map of ``maps`` = [m], or filter k ``maps[k]``.

    out[k, n, y, x] = sum over taps (i, j) of taps[k, i, j] *
    src[n, s*y + i, s*x + j], or src[n, y + kH-1-i, x + kW-1-j] when
    ``flip`` (stride 1), summed in (i, j) order. Output rows are cut into
    blocks of P pixels, P dividing OW; at stride 1 a block reads P*cc
    contiguous values, so the view is [N, OH, OW/P, kH, kW, P*cc] against
    the taps tiled P times. P is 1 at stride > 1.
    """
    k, kh, kw, c = taps.shape
    src = _zero_pad(maps, padding, c)
    if len(maps) == 1:  # one map, read by every filter
        src = src[0]
    n = src.shape[-4]
    p = max(1, min(ow, _PIXEL_BLOCK_BYTES // (c * src.itemsize)))
    p = 1 if stride > 1 else p
    while ow % p:
        p -= 1
    *sk, s0, s1, s2, s3 = src.strides
    if flip:
        offset, si, sj = (kh - 1) * s1 + (kw - 1) * s2, -s1, -s2
    else:
        offset, si, sj = 0, s1, s2
    win = _window(src, src.shape[:-4] + (n, oh, ow // p, kh, kw, p * c),
                  (*sk, s0, s1 * stride, s2 * stride * p, si, sj, s3), offset)
    tiled = np.empty((k, kh, kw, p, c), dtype=taps.dtype)
    tiled[...] = taps[..., None, :]
    subscripts = f"{'k' * (src.ndim - 4)}nhbijq,kijq->knhbq"
    return np.einsum(subscripts, win, tiled.reshape(k, kh, kw, p * c)
                     ).reshape(k, n, oh, ow, c)


def _depthwise_kernel_grads(maps, grads, taps, padding, stride=1):
    """[K, C, 1, kH, kW] gradients of K depthwise kernels laid out as
    ``taps``, kernel k having read ``maps[k]`` [N, H, W, <= cc] and got
    ``grads[k]`` [N, OH, OW, C]: one einsum over the windows of the
    re-padded maps, summing the (n, y, x) terms in order."""
    k, (n, oh, ow, c) = len(grads), grads[0].shape
    _, kh, kw, cc = taps.shape
    src = _zero_pad(maps, padding, cc)
    s = src.strides
    win = _window(src, (k, n, oh, ow, kh, kw, cc),
                  (s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3],
                   s[4]))
    return np.einsum("knhwijc,knhwc->kcij", win,
                     _zero_pad(grads, 0, cc))[:, :c, None]


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


def _depthwise(x, taps, padding, oh, ow, stride=1):
    """``depthwise_conv2d``'s output for an [N, H, W, C] array and its
    kernel's ``taps``."""
    out = _window_tap_sum([x], taps, padding, oh, ow, stride)[0]
    return np.ascontiguousarray(out[..., :x.shape[3]])


def _depthwise_grads(g, in_shape, taps, padding, stride=1, x=None):
    """``depthwise_conv2d``'s gradients from g: the input's, of shape
    ``in_shape``, and the kernel's, None without the input ``x``."""
    _, h, w, c = in_shape
    _, kh, kw, _ = taps.shape
    gk = None if x is None else _depthwise_kernel_grads(
        [x], [g], taps, padding, stride)[0]
    gx = _window_tap_sum([_dilate_pad(g, h, w, kh, kw, stride, padding)],
                         taps, 0, h, w, flip=True)[0]
    return np.ascontiguousarray(gx[..., :c]), gk


def depthwise_conv2d(x: Tensor, kernel: Tensor, stride: int = 1,
                     padding: int = 0) -> Tensor:
    """Per-channel 2-D cross-correlation of a channel-last map.

    x: [N, H, W, C], kernel: [C, 1, kH, kW]; the output is [N, OH, OW, C]
    with the sizes of ``conv2d``. The K = 1 case of the depthwise helpers:
    the forward and the input gradient are tap sums (``_window_tap_sum``),
    the latter over the upstream gradient placed on the padded grid
    (``_dilate_pad``) with the taps walked backwards; the kernel gradient
    (``_depthwise_kernel_grads``) is skipped for a constant kernel.
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
    taps = _depthwise_taps([kernel])
    out = _depthwise(x.data, taps, padding, oh, ow, stride)
    _tally(n * c * oh * ow * kh * kw)
    # Only the kernel gradient reads the input; it pads x again rather than
    # keep a padded copy alive until the sweep.
    x_saved = x.data if kernel.grad_enabled else None

    def bwd(g):
        return _depthwise_grads(g, (n, h, w, c), taps, padding, stride,
                                x_saved)
    return record_op("depthwise_conv2d", (x, kernel), out, bwd)


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
