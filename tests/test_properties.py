"""Property-based checks of the convolution primitives and activations.

Hypothesis draws the batch, channels and grid (1x1 included), kernels of
1 to 3 taps a side, stride 1-2, padding 0-1 and the dtype. Each case checks
the forward against the loop oracle of ``mfil.reference`` and the input
and kernel gradients against ``reference.central_difference``, taken on an
f64 copy of the same loss. The channel-last depthwise forward and input
gradient must also equal, bit for bit, the tap-ordered loops written here.

The activations are checked the same way: the f32 fast forms of
``softplus`` and ``gelu`` against the f64 reference over the whole f32
range, the f64 forms byte for byte against the formulas they stand for,
the branch-free sigmoid byte for byte against its ``np.where`` form, and
the ``silu``, ``softplus`` and ``gelu`` gradients at both dtypes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from mfil import reference
from mfil.tensor import (NonFiniteError, Tape, Tensor, _sigmoid_np, conv2d,
                         depthwise_conv2d, gelu, mul, silu, softplus, tsum)

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


# ---------------------------------------------------------------------------
# Activations

F32 = np.finfo(np.float32)
_CLAMP = np.float32(4.0 * np.sqrt(2.0))  # the fast erf clamps x / sqrt 2 at 4
EDGES = np.array(
    [0.0, -0.0, F32.max, -F32.max, F32.tiny, -F32.tiny, F32.smallest_subnormal,
     -F32.smallest_subnormal, 100.0, -100.0, -104.0, 17.0]
    + [s * v for s in (1, -1) for v in
       (np.nextafter(_CLAMP, np.float32(0)), _CLAMP,
        np.nextafter(_CLAMP, np.float32(8)),
        np.nextafter(np.nextafter(_CLAMP, np.float32(8)), np.float32(8)))],
    dtype=np.float32)
# Measured on a sweep of every 53rd f32 bit pattern with |x| <= 120:
# softplus 3.13 ulp, gelu 2.62e-7 * max(1, |x|).
SOFTPLUS_ULPS = 4.0
GELU_REL = 3e-7


def _f32_ulps(got, want):
    """|got - want| in units of the f32 spacing at ``want`` (f64)."""
    _, e = np.frexp(want)
    ulp = np.ldexp(1.0, np.maximum(e - 24, -149))
    return np.abs(got.astype(np.float64) - want) / ulp


def _gelu_f64(x):
    return x * (0.5 * (1.0 + erf(x * float(1.0 / np.sqrt(2.0)))))


@PROPERTY
@given(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                max_size=40))
def test_f32_softplus_and_gelu_against_f64(values):
    x = np.concatenate([np.array(values, dtype=np.float32), EDGES])
    x64 = x.astype(np.float64)
    sp = softplus(Tensor(x)).data
    assert sp.dtype == np.float32
    assert np.all(sp >= np.maximum(x, 0))
    ulps = _f32_ulps(sp, np.logaddexp(0.0, x64))
    assert ulps.max() <= SOFTPLUS_ULPS, (x[np.argmax(ulps)], ulps.max())
    ge = gelu(Tensor(x)).data
    assert ge.dtype == np.float32
    err = np.abs(ge - _gelu_f64(x64)) / np.maximum(1.0, np.abs(x64))
    assert err.max() <= GELU_REL, (x[np.argmax(err)], err.max())


def test_f32_gelu_is_blind_to_block_edges():
    """Several blocks and a partial one: every element within the bound,
    and the same bytes as the pieces computed apart."""
    x = (np.random.default_rng(5).standard_normal((3, 5, 6571)) * 4) \
        .astype(np.float32)
    out = gelu(Tensor(x)).data
    x64 = x.astype(np.float64)
    err = np.abs(out - _gelu_f64(x64)) / np.maximum(1.0, np.abs(x64))
    assert err.max() <= GELU_REL
    flat = x.reshape(-1)
    pieces = [gelu(Tensor(flat[a:b])).data
              for a, b in ((0, 7), (7, 40000), (40000, flat.size))]
    assert out.tobytes() == np.concatenate(pieces).tobytes()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_activation_guard_names_op_on_nonfinite_input(dtype, bad):
    x = Tensor(np.array([0.5, bad, -1.0], dtype=NP[dtype]), check_finite=False)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError, match="gelu"):
            gelu(x)
        if bad == -np.inf:  # softplus(-inf) = 0 is finite, at both dtypes
            assert softplus(x).data[1] == 0.0
        else:
            with pytest.raises(NonFiniteError, match="softplus"):
                softplus(x)


@PROPERTY
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_f64_softplus_and_gelu_are_the_exact_formulas(values, seed):
    x = np.concatenate([np.array(values, dtype=np.float64),
                        EDGES.astype(np.float64),
                        np.random.default_rng(seed).standard_normal(64) * 8])
    assert softplus(Tensor(x)).data.tobytes() == \
        np.logaddexp(0.0, x).tobytes()
    with np.errstate(over="ignore"):
        want = _gelu_f64(x)
    assert gelu(Tensor(x)).data.tobytes() == want.tobytes()


def _sigmoid_where(x):
    """The select form of ``_sigmoid_np``: numerator 1 for x >= 0, else e."""
    e = np.exp(-np.abs(x))
    num = np.where(x >= 0, 1.0, e)
    return num / (e + 1.0)


@PROPERTY
@given(st.sampled_from(["f32", "f64"]),
       st.lists(st.floats(width=32, allow_nan=False), max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_sigmoid_select_is_the_where_form(dtype, values, seed):
    fi = np.finfo(NP[dtype])
    edges = [0.0, -0.0, fi.tiny, -fi.tiny, fi.max, -fi.max, 200.0, -200.0]
    x = np.concatenate([np.array(values + edges, dtype=NP[dtype]),
                        EDGES.astype(NP[dtype]),
                        (np.random.default_rng(seed).standard_normal(64)
                         * 8).astype(NP[dtype])])
    got = _sigmoid_np(x)
    assert got.dtype == x.dtype
    assert got.tobytes() == _sigmoid_where(x).tobytes()


@PROPERTY
@given(st.sampled_from([silu, softplus, gelu]),
       st.sampled_from(["f32", "f64"]),
       st.tuples(st.integers(1, 3), st.integers(1, 5)),
       st.sampled_from([0.5, 2.0, 6.0]),
       st.integers(0, 2 ** 32 - 1))
def test_activation_gradients(op, dtype, shape, scale, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(shape) * scale).astype(NP[dtype])
    _check_gradients(op, [x], rng.standard_normal(shape), dtype, rng)
