"""Property-based checks of the convolution primitives over random cases.

Hypothesis draws the batch, channels and grid (1x1 included), kernels of
1 to 3 taps a side, stride 1-2, padding 0-1 and the dtype. Each case checks
the forward against the loop oracle of ``mfil.reference`` and the input
and kernel gradients against ``reference.central_difference``, taken on an
f64 copy of the same loss. The channel-last depthwise forward and input
gradient must also equal, bit for bit, the tap-ordered loops written here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfil import reference
from mfil.tensor import Tape, Tensor, conv2d, depthwise_conv2d, mul, tsum

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
# Forward: max error relative to the oracle's scale. Gradient: error
# relative to max(1, |finite difference|); the f32 analytic gradient sums
# f32 products.
FWD_TOL = {"f32": 1e-5, "f64": 1e-10}
GRAD_TOL = {"f32": 1e-4, "f64": 1e-7}
NP = {"f32": np.float32, "f64": np.float64}


@st.composite
def conv_cases(draw):
    kh = draw(st.integers(1, 3))
    kw = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 1))
    return {
        "n": draw(st.integers(1, 2)),
        "c": draw(st.integers(1, 4)),
        "c_out": draw(st.integers(1, 3)),
        # The kernel must fit the padded grid; 1x1 grids are drawn too.
        "h": draw(st.integers(max(1, kh - 2 * padding), 6)),
        "w": draw(st.integers(max(1, kw - 2 * padding), 6)),
        "kh": kh, "kw": kw, "stride": stride, "padding": padding,
        "dtype": draw(st.sampled_from(["f32", "f64"])),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
    }


def _nhwc(a):
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _check_gradients(op, arrays, readout, dtype, rng):
    """Taped gradients of sum(readout * op(*arrays)) in ``dtype`` against
    central differences of the same loss in f64, at the largest and two
    random elements of each operand."""
    tensors = [Tensor(a, dtype=dtype, grad_enabled=True) for a in arrays]
    with Tape() as tape:
        loss = tsum(mul(op(*tensors), Tensor(readout, dtype=dtype)))
    grads = tape.gradients(loss, tensors)
    exact = [a.astype(np.float64) for a in arrays]

    def f64_loss():
        out = op(*(Tensor(a) for a in exact))
        return float(np.sum(out.data * readout))

    for t, a in zip(tensors, exact):
        g = grads[t].data.reshape(-1)
        flat = a.reshape(-1)
        picks = {int(np.argmax(np.abs(g))),
                 *(int(i) for i in rng.integers(0, flat.size, size=2))}
        for i in picks:
            numeric = reference.central_difference(f64_loss, flat, i, 1e-3)
            assert abs(float(g[i]) - numeric) <= \
                GRAD_TOL[dtype] * max(1.0, abs(numeric)), \
                f"operand {a.shape}[{i}]: {g[i]} vs {numeric}"


def _tap_loop_forward(xp, k, stride, oh, ow):
    """The depthwise forward as a plain loop over taps in (i, j) order."""
    n, _, _, c = xp.shape
    out = np.zeros((n, oh, ow, c), dtype=xp.dtype)
    for i in range(k.shape[2]):
        for j in range(k.shape[3]):
            out += k[:, 0, i, j] * xp[:, i:i + stride * oh:stride,
                                      j:j + stride * ow:stride]
    return out


def _tap_loop_input_grad(g, k, stride, padding, h, w):
    """The depthwise input gradient as a scatter over taps in (i, j) order."""
    n, oh, ow, c = g.shape
    gxp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=g.dtype)
    for i in range(k.shape[2]):
        for j in range(k.shape[3]):
            gxp[:, i:i + stride * oh:stride,
                j:j + stride * ow:stride] += k[:, 0, i, j] * g
    return gxp[:, padding:padding + h, padding:padding + w]


@PROPERTY
@given(conv_cases())
def test_depthwise_conv2d_properties(case):
    rng = np.random.default_rng(case["seed"])
    n, c, h, w = case["n"], case["c"], case["h"], case["w"]
    kh, kw, s, p = case["kh"], case["kw"], case["stride"], case["padding"]
    dt = case["dtype"]
    x = rng.standard_normal((n, c, h, w)).astype(NP[dt])
    k = rng.standard_normal((c, 1, kh, kw)).astype(NP[dt])
    xt = Tensor(_nhwc(x), dtype=dt, grad_enabled=True)
    with Tape():
        out = depthwise_conv2d(xt, Tensor(k, dtype=dt), s, p)
    want = reference.depthwise_conv2d_reference(
        x.astype(np.float64), k.astype(np.float64), s, p)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(out.data.transpose(0, 3, 1, 2) - want)) <= \
        FWD_TOL[dt] * scale

    oh, ow = out.shape[1], out.shape[2]
    xp = np.pad(xt.data, ((0, 0), (p, p), (p, p), (0, 0)))
    assert out.data.tobytes() == \
        _tap_loop_forward(xp, k, s, oh, ow).tobytes()
    g = rng.standard_normal(out.shape).astype(NP[dt])
    g[g < -1.5] = -0.0  # signed zeros must come out as the loop's
    gx, _ = out.node.backward(g)
    assert gx.tobytes() == np.ascontiguousarray(
        _tap_loop_input_grad(g, k, s, p, h, w)).tobytes()

    readout = rng.standard_normal(out.shape)
    _check_gradients(lambda a, b: depthwise_conv2d(a, b, s, p),
                     [_nhwc(x), k], readout, dt, rng)


@PROPERTY
@given(conv_cases())
def test_conv2d_properties(case):
    rng = np.random.default_rng(case["seed"])
    n, c, h, w = case["n"], case["c"], case["h"], case["w"]
    kh, kw, s, p = case["kh"], case["kw"], case["stride"], case["padding"]
    dt = case["dtype"]
    x = rng.standard_normal((n, c, h, w)).astype(NP[dt])
    k = rng.standard_normal((case["c_out"], c, kh, kw)).astype(NP[dt])
    out = conv2d(Tensor(x, dtype=dt), Tensor(k, dtype=dt), s, p)
    want = reference.conv2d_reference(x.astype(np.float64),
                                      k.astype(np.float64), s, p)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(out.data - want)) <= FWD_TOL[dt] * scale
    readout = rng.standard_normal(out.shape)
    _check_gradients(lambda a, b: conv2d(a, b, s, p), [x, k], readout, dt,
                     rng)

