import gc
import types

import numpy as np
import pytest

from mfil.reference import central_difference
from mfil.reference import rel_err  # noqa: F401  (re-exported for tests)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def no_gc():
    """Cyclic garbage collector off: only reference counting frees."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def rule_values(rule):
    """Every value a backward rule reaches, each once: its closure cells,
    and what they hold through functions, tuples, lists and dicts."""
    seen, todo = set(), [rule]
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, types.FunctionType):
            for cell in value.__closure__ or ():
                try:
                    todo.append(cell.cell_contents)
                except ValueError:  # a cell not yet assigned
                    pass
        elif isinstance(value, (tuple, list)):
            todo += value
        elif isinstance(value, dict):
            todo += value.values()


def kept_bytes(tape, params):
    """{node name: bytes} of the distinct base arrays the tape's backward
    rules reach, each counted once, against the first node that reaches
    it; the parameters' arrays are not counted. Also the names of any
    base array two nodes reach."""
    skip = {id(_base(p.data)) for p in params}
    owner, per_node, shared = {}, {}, []
    for node in tape.nodes:
        bases = {id(b): b for b in map(_base, (
            v for v in rule_values(node.backward)
            if isinstance(v, np.ndarray)))}
        for key, base in bases.items():
            if key in skip:
                continue
            if key in owner:
                shared.append((owner[key], node.name))
                continue
            owner[key] = node.name
            per_node[node.name] = per_node.get(node.name, 0) + base.nbytes
    return per_node, shared


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def grad_close(analytic, numeric, rtol=1e-4, atol=1e-9):
    """Per-element relative comparison with a roundoff floor."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (diff <= atol) | (diff <= rtol * denom)
    return bool(np.all(ok))


def numeric_gradient(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar-valued f at every element of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        g.reshape(-1)[i] = central_difference(f, flat, i, h)
    return g


# The depthwise convolution written tap by tap, in (i, j) order: the byte
# references of ``tensor.depthwise_conv2d``. Maps are channel-last
# [N, H, W, C], kernels [C, 1, kH, kW].

def depthwise_tap_forward(xp, k, stride, oh, ow):
    """Forward over the padded input ``xp``: one multiply-add per tap."""
    n, _, _, c = xp.shape
    out = np.zeros((n, oh, ow, c), dtype=xp.dtype)
    for i in range(k.shape[2]):
        for j in range(k.shape[3]):
            out += k[:, 0, i, j] * xp[:, i:i + stride * oh:stride,
                                      j:j + stride * ow:stride]
    return out


def depthwise_tap_input_grad(g, k, stride, padding, h, w):
    """Input gradient as a scatter of the upstream gradient, tap by tap."""
    n, oh, ow, c = g.shape
    gxp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=g.dtype)
    for i in range(k.shape[2]):
        for j in range(k.shape[3]):
            gxp[:, i:i + stride * oh:stride,
                j:j + stride * ow:stride] += k[:, 0, i, j] * g
    return np.ascontiguousarray(gxp[:, padding:padding + h,
                                    padding:padding + w])


def depthwise_tap_kernel_grad(x, g, kh, kw, stride, padding):
    """Kernel gradient as one channel reduction per tap over the padded
    input."""
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    _, oh, ow, c = g.shape
    gk = np.empty((c, 1, kh, kw), dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            win = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
            gk[:, 0, i, j] = np.einsum("nhwc,nhwc->c", g, win)
    return gk
