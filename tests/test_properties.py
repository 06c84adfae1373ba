"""Property-based checks of the convolution primitives and activations.

Hypothesis draws the batch, channels and grid (1x1 included), kernels of
1 to 3 taps a side, stride 1-2, padding 0-1 and the dtype. Each case checks
the forward against the loop oracle of ``mfil.reference`` and the input
and kernel gradients against ``reference.central_difference``, taken on an
f64 copy of the same loss. The channel-last depthwise forward and input
gradient must also equal, bit for bit, the tap-ordered loops of
``conftest``, and so must its kernel gradient, a 1-channel map taken with
a zero second channel.

The activations are checked the same way: the f32 fast forms of
``softplus`` and ``gelu`` against the f64 reference over the whole f32
range, the f64 forms byte for byte against the formulas they stand for,
the branch-free sigmoid byte for byte against its ``np.where`` form, and
the ``silu``, ``softplus`` and ``gelu`` gradients at both dtypes.

The taped ``mfil_ssm`` is one node, and so is the mixer's ``gate``; each
is checked byte for byte against the chain of nodes it replaces, and so
are the fused ``filter_views`` and the ``ssm_scan`` of ``selective_scan``
inside that chain, over scan mode, dtype, batch, grid (1x1 included),
channels (1 included), ``segment_reset``, exact discretization,
``d_state`` and adaptive weighting. A fixed case hands ``ssm_scan``'s rule
a -0.0 that no drawn case produces. The one-node ``conv_ffn`` is checked
the same way against its four-node chain, over dtype, batch, grid (1x1
included) and width (1 included).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from conftest import (depthwise_tap_forward, depthwise_tap_input_grad,
                      depthwise_tap_kernel_grad)
from mfil import block, reference, scan, ssm
from mfil.block import _ConvFfn, conv_ffn
from mfil.scan import (SCAN_MODES, SCAN_VIEWS, AdaptiveWeights, FilterBank,
                       dynamic_map, orthogonal_maps, stack_scans)
from mfil.ssm import SsmCore
from mfil.tensor import (NonFiniteError, Tape, Tensor, _sigmoid_np, conv2d,
                         depthwise_conv2d, exp, gelu, linear, mul, neg,
                         record_op, recording, reshape, silu, slice_axis,
                         softplus, take, tsum)

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
        out = depthwise_conv2d(xt, Tensor(k, dtype=dt, grad_enabled=True),
                               s, p)
    want = reference.depthwise_conv2d_reference(
        x.astype(np.float64), k.astype(np.float64), s, p)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(out.data.transpose(0, 3, 1, 2) - want)) <= \
        FWD_TOL[dt] * scale

    oh, ow = out.shape[1], out.shape[2]
    xp = np.pad(xt.data, ((0, 0), (p, p), (p, p), (0, 0)))
    assert out.data.tobytes() == \
        depthwise_tap_forward(xp, k, s, oh, ow).tobytes()
    g = rng.standard_normal(out.shape).astype(NP[dt])
    g[g < -1.5] = -0.0  # signed zeros must come out as the loop's
    gx, gk = out.node.backward(g)
    assert gx.tobytes() == \
        depthwise_tap_input_grad(g, k, s, p, h, w).tobytes()
    # A 1-channel map runs with a second, zero channel: only then does the
    # loop's per-tap einsum reduce over the grid in (n, y, x) order.
    xg = [xt.data, g]
    if c == 1:
        xg = [np.concatenate([a, np.zeros_like(a)], axis=3) for a in xg]
    assert gk.tobytes() == \
        depthwise_tap_kernel_grad(*xg, kh, kw, s, p)[:c].tobytes()

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
    out = conv2d(Tensor(_nhwc(x), dtype=dt), Tensor(k, dtype=dt), s, p)
    want = reference.conv2d_reference(x.astype(np.float64),
                                      k.astype(np.float64), s, p)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(out.data.transpose(0, 3, 1, 2) - want)) <= \
        FWD_TOL[dt] * scale
    readout = rng.standard_normal(out.shape)
    _check_gradients(lambda a, b: conv2d(a, b, s, p), [_nhwc(x), k], readout,
                     dt, rng)


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


# ---------------------------------------------------------------------------
# The fused scan nodes against the chains they replace

def _chain_views(x, bank, scan_mode):
    """``filter_views`` as its chain: five depthwise nodes and a conv2d
    (``orthogonal_maps``, ``dynamic_map``), then ``stack_scans``."""
    names = {m for m, _ in SCAN_VIEWS[scan_mode]}
    maps = {"input": x}
    if "sobel_h" in names:
        maps["sobel_h"], maps["sobel_v"] = orthogonal_maps(x, bank)
    if "dynamic" in names:
        maps["dynamic"] = dynamic_map(x, bank)
    return stack_scans(*(maps[m] for m, _ in SCAN_VIEWS[scan_mode]))


def _chain_ssm(u, dt_proj, a_log, proj, dt_bias, d_skip, exact):
    """``ssm_scan`` as eight nodes: three slices of proj, dt_proj with its
    bias, softplus, exp, neg and a scan node on delta and A."""
    r, n = dt_proj.shape[1], a_log.shape[1]
    dt_raw = slice_axis(proj, 2, 0, r)
    b_tok = slice_axis(proj, 2, r, r + n)
    c_tok = slice_axis(proj, 2, r + n, r + 2 * n)
    delta = softplus(linear(dt_raw, dt_proj, dt_bias))
    inputs = (u, delta, neg(exp(a_log)), b_tok, c_tok, d_skip)
    y, rule = ssm.recurrence(*(t.data for t in inputs),
                             exact_input_discretization=exact,
                             taped=recording(inputs))
    u_data, delta_data = u.data, delta.data
    return record_op("ssm_scan", inputs, y,
                     rule and (lambda gy: rule[0](gy, u_data, delta_data)))


def _chain_scan(x, core):
    """``selective_scan`` as its nine nodes: x_proj and ``_chain_ssm``."""
    return _chain_ssm(x, core.dt_proj_weight, core.A_log,
                      linear(x, core.x_proj_weight), core.dt_bias,
                      core.D_skip, core.exact_input_discretization)


def _chain_mfil(x, bank, core, weights, scan_mode):
    """``mfil_ssm`` as the nodes it replaces: ``filter_views``, the takes
    that reorder the views, ``selective_scan``'s, the ``segment_reset``
    reshapes and ``merge_views``. Each node is read from ``scan``, so a
    test can swap in that node's own chain."""
    rows = SCAN_VIEWS[scan_mode]
    b, h, w, c = x.shape
    n = len(rows)
    seq = scan.filter_views(x, bank, scan_mode)
    order = scan._view_order(rows, h, w)
    if order is not None:
        seq = take(seq, order, axis=1)
    if core.segment_reset:
        seq = reshape(seq, (b * n, h * w, c))
    out = scan.selective_scan(seq, core)
    if core.segment_reset:
        out = reshape(out, (b, n * h * w, c))
    if order is not None:
        out = take(out, np.argsort(order), axis=1)
    if n == 1:
        return reshape(out, (b, h, w, c))
    return scan.merge_views(out, None if weights is None else
                            weights.alphas(), h, w)


def _chain_gate(z, u2, out_proj):
    """``gate`` as its three nodes: silu, mul and linear."""
    return linear(mul(z, silu(u2)), out_proj)


# node -> (its module, its chain). Every case runs ``mfil_ssm`` as
# ``_chain_mfil``, so the nodes it chains are on the tape.
_CHAINS = {"filter_views": (scan, _chain_views),
           "selective_scan": (scan, _chain_scan),
           "mfil_ssm": (scan, _chain_mfil), "gate": (block, _chain_gate)}


@st.composite
def scan_cases(draw):
    return {
        "mode": draw(st.sampled_from(SCAN_MODES)),
        "dtype": draw(st.sampled_from(["f32", "f64"])),
        "b": draw(st.integers(1, 3)),
        "h": draw(st.integers(1, 3)),
        "w": draw(st.integers(1, 5)),
        "c": draw(st.integers(1, 4)),
        "segment_reset": draw(st.booleans()),
        "exact": draw(st.booleans()),
        "d_state": draw(st.integers(1, 2)),
        "adaptive": draw(st.booleans()),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
    }


def _signed_readout(rng, shape, dt):
    """A readout with about a fifth of its entries -0.0."""
    readout = rng.standard_normal(shape)
    readout[rng.random(shape) < 0.2] = -0.0
    return Tensor(readout, dtype=dt)


def _scan_bytes(case):
    """As bytes: the untaped and taped outputs of ``mfil_ssm`` and of the
    mixer's gate on it, and the gradients of x and every scan parameter
    from a readout of the scan, then of x, the gate's other input u2 and
    every parameter from a readout of the gate. The readouts hold signed
    zeros."""
    rng = np.random.default_rng(case["seed"])
    dt, c, mode = case["dtype"], case["c"], case["mode"]
    bank = FilterBank(c, rng=rng, dtype=dt, scan_mode=mode)
    core = SsmCore(c, d_state=case["d_state"],
                   exact_input_discretization=case["exact"],
                   segment_reset=case["segment_reset"], rng=rng, dtype=dt)
    views = len(SCAN_VIEWS[mode])
    weights = (AdaptiveWeights(views, dtype=dt)
               if case["adaptive"] and views > 1 else None)
    params = [*bank.parameters().values(), *core.parameters().values(),
              *([] if weights is None else [weights.w])]
    for p in params:  # off the identity and constant initial values
        p.data = (p.data + 0.3 * rng.standard_normal(p.shape)).astype(NP[dt])
    shape = (case["b"], case["h"], case["w"], c)
    x = Tensor(rng.standard_normal(shape), dtype=dt, grad_enabled=True)
    u2 = Tensor(rng.standard_normal(shape), dtype=dt, grad_enabled=True)
    out_proj = Tensor(rng.standard_normal((c, c)), dtype=dt,
                      grad_enabled=True)
    readouts = [_signed_readout(rng, shape, dt) for _ in range(2)]

    def scanned(x):
        return scan.mfil_ssm(x, bank, core, weights, mode)

    def gated(x):
        return block.gate(scanned(x), u2, out_proj)
    out = []
    for f, readout, leaves in ((scanned, readouts[0], [x, *params]),
                               (gated, readouts[1],
                                [x, u2, out_proj, *params])):
        out.append(f(Tensor(x.data)).data.tobytes())
        with Tape() as tape:
            y = f(x)
            grads = tape.gradients(tsum(mul(y, readout)), leaves)
        out += [y.data.tobytes(), *(grads[p].data.tobytes() for p in leaves)]
    return out


@PROPERTY
@given(st.sampled_from(sorted(_CHAINS)), scan_cases())
def test_fused_scan_nodes_are_byte_identical_to_their_chains(node, case):
    fused = _scan_bytes(case)
    module, chain = _CHAINS[node]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "mfil_ssm", _chain_mfil)
        mp.setattr(module, node, chain)
        assert _scan_bytes(case) == fused


def test_ssm_scan_turns_a_negative_zero_in_projs_gradient_positive(
        monkeypatch):
    """numpy's einsum and matmul start each sum at +0.0, so no drawn case
    gets a -0.0 into proj's gradient. Here the recurrence's backward hands
    back -0.0 for every zero of the B and C columns' gradients, which a
    zero readout of the last tokens makes. proj's gradient must still have
    the bytes of the chain, whose sum over the slices of proj turns each
    -0.0 into +0.0; ``ssm_scan``'s rule, which ``mfil_ssm`` runs too, does
    the same with ``g_proj += 0.0``."""
    original = ssm.recurrence
    flipped = []

    def negative_zeros(*args, **kwargs):
        y, rule = original(*args, **kwargs)
        if rule is None:
            return y, None

        def backward(*a):
            g = list(rule[0](*a))
            for k in (3, 4):  # g_b, g_c
                flipped.append(int((g[k] == 0).sum()))
                g[k] = np.where(g[k] == 0, -0.0, g[k]).astype(g[k].dtype)
            return tuple(g)
        return y, (backward, rule[1])
    monkeypatch.setattr(ssm, "recurrence", negative_zeros)
    rng = np.random.default_rng(5)
    length, ch, n = 12, 3, 2
    readout = rng.standard_normal((1, length, ch))
    readout[:, length // 2:] = 0.0
    arrays = (rng.standard_normal((1, length, ch)),
              0.5 * rng.standard_normal((ch, 1)),
              rng.standard_normal((ch, n)),
              rng.standard_normal((1, length, 1 + 2 * n)),
              rng.standard_normal(ch) - 2.0, rng.standard_normal(ch))

    def grads(scan_fn):
        args = [Tensor(a, grad_enabled=True) for a in arrays]
        with Tape() as tape:
            y = scan_fn(*args)
            g = tape.gradients(tsum(mul(y, Tensor(readout))), args)
        return [g[a].data.tobytes() for a in args]
    node = grads(ssm.ssm_scan)
    assert flipped and min(flipped) > 0
    assert node == grads(lambda *args: _chain_ssm(*args, False))


def _chain_ffn(x, ffn):
    """``conv_ffn`` as its four nodes: linear, depthwise_conv2d, gelu and
    linear."""
    h = linear(x, ffn.fc1_weight, ffn.fc1_bias)
    h = gelu(depthwise_conv2d(h, ffn.dw_weight, stride=1, padding=1))
    return linear(h, ffn.fc2_weight, ffn.fc2_bias)


def _ffn_bytes(ffn_fn, case):
    """Untaped and taped outputs of ``ffn_fn`` and the gradient of x and
    of every ConvFFN parameter, as bytes. The readout holds signed
    zeros."""
    rng = np.random.default_rng(case["seed"])
    dt, dim = case["dtype"], case["dim"]
    ffn = _ConvFfn(dim, 4 * dim, rng, dt)
    params = list(ffn.parameters().values())
    for p in params:  # off the identity and zero initial values
        p.data = (p.data + 0.3 * rng.standard_normal(p.shape)).astype(NP[dt])
    shape = (case["b"], case["h"], case["w"], dim)
    x = Tensor(rng.standard_normal(shape), dtype=dt, grad_enabled=True)
    readout = rng.standard_normal(shape)
    readout[rng.random(shape) < 0.2] = -0.0
    untaped = ffn_fn(Tensor(x.data), ffn)
    with Tape() as tape:
        out = ffn_fn(x, ffn)
        grads = tape.gradients(tsum(mul(out, Tensor(readout, dtype=dt))),
                               [x, *params])
    return [untaped.data.tobytes(), out.data.tobytes(),
            *(grads[p].data.tobytes() for p in [x, *params])]


@PROPERTY
@given(st.fixed_dictionaries({
    "dtype": st.sampled_from(["f32", "f64"]), "b": st.integers(1, 3),
    "h": st.integers(1, 3), "w": st.integers(1, 5), "dim": st.integers(1, 4),
    "seed": st.integers(0, 2 ** 32 - 1)}))
def test_conv_ffn_node_is_byte_identical_to_its_chain(case):
    assert _ffn_bytes(conv_ffn, case) == _ffn_bytes(_chain_ffn, case)
