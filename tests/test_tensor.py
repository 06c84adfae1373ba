import weakref

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from conftest import (depthwise_tap_forward, depthwise_tap_input_grad,
                      depthwise_tap_kernel_grad, grad_close, numeric_gradient,
                      rel_err)
from mfil import reference
from mfil import tensor as T
from mfil.ssm import ssm_scan
from mfil.tensor import (NonFiniteError, ShapeError, Tape, Tensor, add,
                         concat, conv2d, depthwise_conv2d, exp,
                         gelu, layer_norm, linear, mul, neg, record_op,
                         reshape, scale_per_sample,
                         sigmoid, silu, slice_axis,
                         softmax, softmax_cross_entropy, softplus, sub,
                         take, tile_leading, tmean, transpose, tsum)


# ---------------------------------------------------------------------------
# Convolutions

# conv2d and depthwise_conv2d are channel-last: [N, H, W, C]. The draws
# below stay NCHW, like the loop oracles, and are transposed in.

def _nhwc(a):
    return a.transpose(0, 2, 3, 1)


def _nchw(a):
    return a.transpose(0, 3, 1, 2)


def test_conv2d_ones_sum():
    x = Tensor(np.ones((1, 3, 3, 1)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, k)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_conv2d_disjoint_blocks():
    x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1))
    k = Tensor(np.ones((1, 1, 2, 2)))
    out = conv2d(x, k, stride=2)
    want = np.array([[0 + 1 + 4 + 5, 2 + 3 + 6 + 7],
                     [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]], dtype=float)
    assert np.array_equal(out.data[0, :, :, 0], want)


def test_conv2d_matches_loop_oracle(rng):
    x = rng.standard_normal((1, 2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    got = conv2d(Tensor(_nhwc(x)), Tensor(k)).data
    want = reference.conv2d_reference(x, k)
    assert rel_err(_nchw(got), want) <= 1e-6


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1),
                                            (3, 2)])
def test_conv2d_strides_paddings_vs_oracle(rng, stride, padding):
    x = rng.standard_normal((2, 3, 6, 7))
    k = rng.standard_normal((2, 3, 3, 2))
    got = _nchw(conv2d(Tensor(_nhwc(x)), Tensor(k), stride, padding).data)
    want = reference.conv2d_reference(x, k, stride, padding)
    assert got.shape == want.shape
    assert rel_err(got, want) <= 1e-6


def test_conv2d_channel_mismatch_names_axes():
    x = Tensor(np.zeros((1, 4, 4, 2)))
    k = Tensor(np.zeros((1, 3, 2, 2)))
    with pytest.raises(ShapeError, match="axis 3"):
        conv2d(x, k)


def test_conv2d_kernel_too_large():
    x = Tensor(np.zeros((1, 2, 2, 1)))
    k = Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d(x, k)


def test_depthwise_channel_isolation(rng):
    x = rng.standard_normal((1, 2, 5, 5))
    x[:, 1] = 0.0
    k = rng.standard_normal((2, 1, 3, 3))
    out = depthwise_conv2d(Tensor(_nhwc(x)), Tensor(k), padding=1).data
    assert np.all(out[..., 1] == 0.0)
    assert np.any(out[..., 0] != 0.0)


def test_depthwise_identity_kernel(rng):
    x = _nhwc(rng.standard_normal((2, 3, 4, 4)))
    k = np.zeros((3, 1, 3, 3))
    k[:, 0, 1, 1] = 1.0
    out = depthwise_conv2d(Tensor(x), Tensor(k), padding=1).data
    assert np.array_equal(out, x)


def test_depthwise_matches_loop_oracle(rng):
    x = rng.standard_normal((2, 4, 6, 5))
    k = rng.standard_normal((4, 1, 3, 3))
    got = depthwise_conv2d(Tensor(_nhwc(x)), Tensor(k), padding=1).data
    want = reference.depthwise_conv2d_reference(x, k, padding=1)
    assert rel_err(_nchw(got), want) <= 1e-6


# The depthwise maps the model runs (3x3, stride 1, padding 1): desk's
# stages at its f32 training batch and at the gradcheck's f64 batches, and
# tiny's largest grids and widest map at 224x224.
_DESK_MAPS = [(8, 8), (8, 32), (4, 16), (4, 64), (2, 32), (2, 128), (1, 64),
              (1, 256)]
_MODEL_MAPS = ([("f32", (32, s, s, c)) for s, c in _DESK_MAPS]
               + [("f64", (b, s, s, c)) for b in (1, 8) for s, c in _DESK_MAPS]
               + [("f32", (1, 56, 56, 94)), ("f32", (1, 56, 56, 376)),
                  ("f32", (1, 7, 7, 3008))])


@pytest.mark.parametrize("dtype,shape", _MODEL_MAPS,
                         ids=[f"{d}-{'x'.join(map(str, s))}"
                              for d, s in _MODEL_MAPS])
def test_depthwise_bytes_at_model_shapes(dtype, shape):
    # Forward, input gradient and kernel gradient equal the tap loops byte
    # for byte at the shapes training and gradcheck run; the property test
    # draws only grids up to 6x6 and up to 4 channels.
    rng = np.random.default_rng(sum(shape))
    n, h, w, c = shape
    x = Tensor(rng.standard_normal(shape), dtype=dtype, grad_enabled=True)
    k = Tensor(rng.standard_normal((c, 1, 3, 3)), dtype=dtype,
               grad_enabled=True)
    with Tape():
        out = depthwise_conv2d(x, k, padding=1)
    g = rng.standard_normal(shape).astype(out.data.dtype)
    g[g < -1.5] = -0.0
    gx, gk = out.node.backward(g)
    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1), (0, 0)))
    assert out.data.tobytes() == \
        depthwise_tap_forward(xp, k.data, 1, h, w).tobytes()
    assert gx.tobytes() == \
        depthwise_tap_input_grad(g, k.data, 1, 1, h, w).tobytes()
    assert gk.tobytes() == \
        depthwise_tap_kernel_grad(x.data, g, 3, 3, 1, 1).tobytes()


def test_constant_kernel_gets_no_gradient(rng):
    # A Sobel-style constant kernel: backward skips its reduction and
    # returns None in its slot, while the input still gets its gradient.
    x = Tensor(rng.standard_normal((1, 4, 4, 2)), grad_enabled=True)
    k = Tensor(rng.standard_normal((2, 1, 3, 3)))
    with Tape():
        out = depthwise_conv2d(x, k, padding=1)
    gx, gk = out.node.backward(np.ones(out.shape))
    assert gk is None
    assert gx.shape == x.shape


def test_conv2d_skips_the_gradient_of_a_constant_input(rng):
    x = Tensor(rng.standard_normal((1, 4, 4, 3)))
    k = Tensor(rng.standard_normal((2, 3, 2, 2)), grad_enabled=True)
    with Tape():
        out = conv2d(x, k, stride=2)
    gx, gk = out.node.backward(np.ones(out.shape))
    assert gx is None
    assert gk.shape == k.shape


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_conv2d_pointwise_input_grad_matches_the_general_path(rng, dtype):
    """A 1x1, stride-1, unpadded kernel's input gradient equals that of
    the same kernel at padding 1 given the same upstream gradient on the
    inner pixels, byte for byte, and zero gradients times negative weights
    (-0.0 products) come out as +0.0."""
    x = Tensor(rng.standard_normal((2, 4, 5, 6)), dtype=dtype,
               grad_enabled=True)
    k = Tensor(rng.standard_normal((3, 6, 1, 1)), dtype=dtype,
               grad_enabled=True)
    k.data[...] = -np.abs(k.data)
    g = rng.standard_normal((2, 4, 5, 3)).astype(x.data.dtype)
    g[0, 0, 0] = 0.0
    g[1, 2, 3] = -0.0
    with Tape():
        pointwise = conv2d(x, k, stride=1, padding=0)
        padded = conv2d(x, k, stride=1, padding=1)
    g_pad = np.zeros(padded.shape, dtype=g.dtype)
    g_pad[:, 1:-1, 1:-1] = g
    gx, _ = pointwise.node.backward(g)
    want, _ = padded.node.backward(g_pad)
    assert gx.shape == x.shape and gx.tobytes() == want.tobytes()
    assert not np.signbit(gx[gx == 0.0]).any()


# ---------------------------------------------------------------------------
# linear / layer_norm

def test_linear_identity_and_bias(rng):
    x = rng.standard_normal((3, 4))
    out = linear(Tensor(x), Tensor(np.eye(4))).data
    assert np.allclose(out, x)
    b = rng.standard_normal(5)
    out = linear(Tensor(x), Tensor(np.zeros((5, 4))), Tensor(b)).data
    assert np.allclose(out, np.tile(b, (3, 1)))


def test_linear_matches_dot_oracle(rng):
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((5, 4))
    got = linear(Tensor(x), Tensor(w)).data
    assert rel_err(got, reference.linear_reference(x, w)) <= 1e-6


def test_linear_trailing_mismatch():
    with pytest.raises(ShapeError, match="trailing"):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_layer_norm_constant_rows_zero():
    x = Tensor(np.full((2, 6), 3.7))
    out = layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6))).data
    assert np.allclose(out, 0.0)


def test_layer_norm_moments(rng):
    x = rng.standard_normal((4, 5, 8))
    out = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    assert np.max(np.abs(out.mean(axis=-1))) <= 1e-6
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-3


def test_layer_norm_matches_two_pass_oracle(rng):
    x = rng.standard_normal((3, 7))
    g = rng.standard_normal(7)
    b = rng.standard_normal(7)
    got = layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
    want = reference.layer_norm_reference(x, g, b)
    assert rel_err(got, want) <= 1e-6


# ---------------------------------------------------------------------------
# activations

def test_silu_at_zero():
    assert silu(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]


def _gelu_factor_whole_array(x):
    """phi + x * pdf(x) as whole-array ops; at f32, phi is the rational erf
    that ``gelu`` evaluates block by block."""
    if x.dtype == np.float64:
        phi = 0.5 * (1.0 + scipy_erf(x * T._INV_SQRT2))
    else:
        z = np.clip(x * T._INV_SQRT2, -4.0, 4.0)
        z2 = z * z
        p, q = np.empty_like(z), np.empty_like(z)
        T._horner(z2, T._ERF_P, p)
        T._horner(z2, T._ERF_Q, q)
        phi = p / q * z + 0.5
    return phi + x * (np.exp(-0.5 * x * x) * T._INV_SQRT_2PI)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("op", ["silu", "gelu"])
def test_activation_keeps_one_factor_with_the_same_bytes(rng, op, dtype):
    """A taped silu or gelu keeps one x-sized array, its derivative factor,
    and the gradient is g times the factor as whole-array ops. The size
    spans three f32 GELU blocks, the last one partial."""
    x = Tensor(3.0 * rng.standard_normal(2 * T._GELU_BLOCK + 1000),
               dtype=dtype, grad_enabled=True)
    g = rng.standard_normal(x.shape).astype(x.data.dtype)
    with Tape():
        out = getattr(T, op)(x)
    saved = [c.cell_contents for c in out.node.backward.__closure__
             if isinstance(c.cell_contents, np.ndarray)]
    assert [a.shape for a in saved] == [x.shape]
    xd = x.data
    if op == "silu":
        s = T._sigmoid_np(xd)
        factor = s * (1.0 + xd * (1.0 - s))
    else:
        factor = _gelu_factor_whole_array(xd)
    assert out.node.backward(g)[0].tobytes() == (g * factor).tobytes()


@pytest.mark.filterwarnings("error")
def test_f64_erf_has_scipy_bytes():
    """The f64 GELU's erf is Cephes' erf as scipy evaluates it, byte for
    byte and with no warning: 1M seeded inputs log-uniform over 1e-320 to
    1e3 with both signs, 2000 neighbours on each side of 1 (where the
    erfc tail begins), 8 (where its coefficients change) and 26.6 (where
    erfc underflows to 0), and zeros, subnormals, huge values, infinities
    and NaN."""
    rng = np.random.default_rng(20)
    mags = np.exp(rng.uniform(np.log(1e-320), np.log(1e3), 1_000_000))
    edges = []
    for c in (1.0, 8.0, 26.6):
        for toward in (-np.inf, np.inf):
            v = np.full(2000, c)
            for i in range(1, 2000):
                v[i] = np.nextafter(v[i - 1], toward)
            edges.append(v)
    special = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                        1e308, np.finfo(np.float64).max, np.inf])
    x = np.concatenate([mags * rng.choice([-1.0, 1.0], mags.size),
                        *edges, *(-v for v in edges), special, -special,
                        [np.nan]])
    assert T._erf(x).tobytes() == scipy_erf(x).tobytes()


def test_softmax_uniform():
    out = softmax(Tensor(np.full(4, 1.5)), axis=0).data
    assert np.allclose(out, 0.25)


def test_softplus_bounds():
    x = np.linspace(-20, 20, 31)
    out = softplus(Tensor(x)).data
    assert np.all(out >= np.maximum(x, 0.0))
    assert abs(softplus(Tensor(np.zeros(1))).data[0] - np.log(2)) < 1e-12
    x32 = x.astype(np.float32)
    out32 = softplus(Tensor(x32)).data
    assert out32.dtype == np.float32
    assert np.all(out32 >= np.maximum(x32, 0.0))
    ln2 = softplus(Tensor(np.zeros(1, dtype=np.float32))).data[0]
    assert abs(float(ln2) - np.log(2)) <= np.spacing(np.float32(np.log(2)))


def test_softmax_large_magnitudes_max_shifted():
    x = Tensor(np.array([[1e4, 1e4 + 2.0, -1e4]]))
    out = softmax(x, axis=1).data
    assert np.all(np.isfinite(out))
    assert abs(out.sum() - 1.0) <= 1e-6
    # Entries stay strictly inside (0, 1) whenever the shifted exponent is
    # representable (an entry 2e4 below the max underflows to exactly 0).
    mod = softmax(Tensor(np.array([[1e4, 1e4 + 2.0, 1e4 - 3.0]])),
                  axis=1).data
    assert abs(mod.sum() - 1.0) <= 1e-6
    assert np.all((mod > 0) & (mod < 1))


def test_softmax_axis_validation():
    with pytest.raises(ShapeError):
        softmax(Tensor(np.zeros((2, 2))), axis=5)


# ---------------------------------------------------------------------------
# backward smoke cases

def _taped_sum(x):
    with Tape() as tape:
        loss = tsum(x)
    return tape, loss


def test_backward_sum_gives_ones(rng):
    x = Tensor(rng.standard_normal((3, 4)), grad_enabled=True)
    tape, loss = _taped_sum(x)
    g = tape.gradients(loss, [x])
    assert np.array_equal(g[x].data, np.ones((3, 4)))
    # A sweep spends its tape: a second one raises instead of returning
    # zeros, through either entry point.
    with pytest.raises(ValueError, match="already swept"):
        tape.gradients(loss, [x])
    with pytest.raises(ValueError, match="already swept"):
        next(tape.sweep(loss, [x]))
    tape, loss = _taped_sum(x)
    g2 = dict(tape.sweep(loss, [x]))
    assert np.array_equal(g2[x].data, np.ones((3, 4)))


def test_backward_half_square_gives_x(rng):
    x = Tensor(rng.standard_normal((3, 4)), grad_enabled=True)
    with Tape() as tape:
        loss = mul(tsum(mul(x, x)), 0.5)
    g = tape.gradients(loss, [x])
    assert np.allclose(g[x].data, x.data, atol=1e-12)


def test_backward_diamond_reuse(rng):
    # (x + x)^2 summed: gradient 8x, exercises repeated-input accumulation.
    x = Tensor(rng.standard_normal(5), grad_enabled=True)
    with Tape() as tape:
        z = add(x, x)
        loss = tsum(mul(z, z))
    g = tape.gradients(loss, [x])
    assert np.allclose(g[x].data, 8.0 * x.data, atol=1e-12)


def test_backward_requires_scalar_loss(rng):
    x = Tensor(rng.standard_normal(3), grad_enabled=True)
    with Tape() as tape:
        y = mul(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            tape.gradients(y, [x])


def test_backward_detached_loss_errors():
    x = Tensor(np.ones(3), grad_enabled=True)
    with Tape() as tape:
        pass
    loss = Tensor(np.asarray(1.0))
    with pytest.raises(ValueError, match="detached"):
        tape.gradients(loss, [x])


def test_backward_nonparticipating_leaf_zero(rng):
    x = Tensor(rng.standard_normal(3), grad_enabled=True)
    unused = Tensor(rng.standard_normal(4), grad_enabled=True)
    with Tape() as tape:
        loss = tsum(x)
    g = tape.gradients(loss, [x, unused])
    assert np.array_equal(g[unused].data, np.zeros(4))


def _probe(name, t, events):
    """Identity op whose backward logs ``name`` to ``events``."""
    return record_op(name, (t,), t.data.copy(),
                     lambda g: (events.append(name), (g,))[1])


def _two_use_graph(x, w, events):
    """loss = sum(x * w * x): x feeds the first node and the fourth."""
    a = _probe("a", x, events)
    c = _probe("c", mul(a, w), events)
    return tsum(mul(c, x))


def test_sweep_yields_each_leaf_once_after_its_last_consumer(rng):
    """Backward order is c, then the node that reads w, then a: w is handed
    over before a's backward runs and x only after it, once, with the sum of
    its two contributions. A leaf outside the graph yields zeros first."""
    x = Tensor(rng.standard_normal(5), grad_enabled=True)
    w = Tensor(rng.standard_normal(5), grad_enabled=True)
    unused = Tensor(rng.standard_normal(3), grad_enabled=True)
    with Tape() as tape:
        loss = _two_use_graph(x, w, [])
    want = tape.gradients(loss, [x, w, unused])
    events, got = [], {}
    with Tape() as tape:
        loss = _two_use_graph(x, w, events)
    for leaf, g in tape.sweep(loss, [x, w, unused]):
        name = {id(x): "x", id(w): "w", id(unused): "unused"}[id(leaf)]
        events.append(name)
        got[name] = g.data
    assert events == ["unused", "c", "w", "a", "x"]
    assert np.array_equal(got["unused"], np.zeros(3))
    assert got["x"].tobytes() == want[x].data.tobytes()
    assert got["w"].tobytes() == want[w].data.tobytes()
    assert np.allclose(got["x"], 2.0 * x.data * w.data, atol=1e-12)
    with Tape() as tape:
        loss = _two_use_graph(x, w, [])
    assert [leaf for leaf, _ in tape.sweep(loss, [x, w])] == [w, x]


def test_tape_records_in_topological_order(rng):
    x = Tensor(rng.standard_normal(3), grad_enabled=True)
    with Tape() as tape:
        a = mul(x, 2.0)
        b = add(a, x)
        tsum(b)
    # Each input is held as its producer: the leaf x itself, the node that
    # made an op output, or None for the constant 2.0.
    assert [n.inputs for n in tape.nodes][:2] == [(x, None), (a.node, x)]
    seen = set()
    for node in tape.nodes:
        for src in node.inputs:
            if src is not None and src is not x:
                assert id(src) in seen
        seen.add(id(node))


def test_no_tape_means_no_recording(rng):
    x = Tensor(rng.standard_normal(3), grad_enabled=True)
    y = mul(x, 2.0)
    assert y.node is None and not y.grad_enabled


def test_tape_exiting_out_of_order_is_a_named_error():
    outer, inner = Tape(), Tape()
    with outer:
        inner.__enter__()
        with pytest.raises(T.TapeOrderError):
            outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
    assert T._active_tape() is None
    with pytest.raises(T.TapeOrderError):
        outer.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# graph lifetime: with the cyclic collector off, reference counting alone
# frees a graph once its tape and outputs are dropped

def _taped_chain(x):
    """sum(exp(2x)) on a new tape; the array exp's backward saves, its
    output's data, only as a weakref."""
    with Tape() as tape:
        e = exp(mul(x, 2.0))
        loss = tsum(e)
    return tape, loss, weakref.ref(e.data)


def test_graph_freed_after_gradients(no_gc, rng):
    x = Tensor(rng.standard_normal(4), grad_enabled=True)
    tape, loss, saved = _taped_chain(x)
    # Only exp's backward rule holds the array, through the tape's nodes.
    assert saved() is not None and loss.node.out is loss
    assert loss.node.inputs[0] is tape.nodes[1]
    g = tape.gradients(loss, [x])
    assert saved() is None  # freed by the sweep itself, the tape still alive
    assert tape.nodes == ()
    assert np.array_equal(g[x].data, 2.0 * np.exp(2.0 * x.data))


def test_graph_freed_without_gradients(no_gc, rng):
    x = Tensor(rng.standard_normal(4), grad_enabled=True)
    tape, loss, h = _taped_chain(x)
    del tape, loss
    assert h() is None


def test_sweep_frees_each_node_before_the_next(no_gc, rng):
    """A probe at the head of a chain runs its backward last; by then the
    sweep has dropped every node after it, so the tensors further down the
    chain are already freed."""
    x = Tensor(rng.standard_normal(4), grad_enabled=True)
    later = []
    ran = []

    def probe_bwd(g):
        assert [r() for r in later] == [None, None]
        ran.append(True)
        return (g,)

    with Tape() as tape:
        p = record_op("probe", (x,), x.data.copy(), probe_bwd)
        h = mul(p, 2.0)
        e = exp(h)
        later.extend((weakref.ref(h), weakref.ref(e)))
        loss = tsum(e)
        del p, h, e
    g = tape.gradients(loss, [x])
    assert ran == [True]
    assert np.array_equal(g[x].data, 2.0 * np.exp(2.0 * x.data))


@pytest.mark.parametrize("consume", [
    lambda u: concat([u, u], axis=1),
    lambda u: slice_axis(u, 1, 1, 3),
    lambda u: add(u, u),
    lambda u: reshape(u, (-1,)),
], ids=["concat", "slice", "add", "reshape"])
def test_intermediate_read_by_no_rule_is_freed_with_the_forward(
        no_gc, rng, consume):
    """An op output that only shape-reading rules consume is freed once the
    forward drops it, before the sweep; the gradients are byte-equal to
    those of a forward that keeps it alive."""
    x = Tensor(rng.standard_normal((3, 4)), grad_enabled=True)
    w = Tensor(rng.standard_normal((4, 4)), grad_enabled=True)

    def forward(keep):
        with Tape() as tape:
            u = linear(x, w)
            y = consume(u)
            loss = tsum(mul(y, Tensor(np.cos(np.arange(y.size))
                                      .reshape(y.shape))))
            keep.append(u)
        return tape, loss

    kept, dropped = [], []
    want_tape, want_loss = forward(kept)
    tape, loss = forward(dropped)
    u = weakref.ref(dropped.pop())
    assert u() is None
    want = want_tape.gradients(want_loss, [x, w])
    got = tape.gradients(loss, [x, w])
    for p in (x, w):
        assert got[p].data.tobytes() == want[p].data.tobytes()


def test_graph_freed_when_forward_raises(no_gc):
    x = Tensor(np.full(3, 100.0), grad_enabled=True)
    refs = []

    def forward():
        with Tape() as tape:
            h = mul(x, 2.0)
            refs.extend((weakref.ref(tape), weakref.ref(h)))
            exp(mul(h, 10.0))  # exp(2000) overflows

    raised = False
    try:
        with np.errstate(over="ignore"):
            forward()
    except NonFiniteError:
        raised = True
    assert raised
    assert [r() for r in refs] == [None, None]


def test_backward_after_tape_dropped_is_detached(no_gc, rng):
    x = Tensor(rng.standard_normal(4), grad_enabled=True)
    tape, loss, _ = _taped_chain(x)
    del tape
    assert loss.node is not None and loss.node.tape is None
    with Tape() as other:
        pass
    with pytest.raises(ValueError, match="detached"):
        other.gradients(loss, [x])


# ---------------------------------------------------------------------------
# backward rules that recompute what they once saved give the same bytes


def _layer_norm_saved_xhat(x, gamma, beta, g, eps=1e-5):
    """layer_norm forward and backward with xhat saved between them."""
    mu = np.mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out = xhat * gamma + beta
    gxh = g * gamma
    lead = tuple(range(g.ndim - 1))
    ggamma = np.sum(g * xhat, axis=lead)
    gbeta = np.sum(g, axis=lead)
    m1 = np.mean(gxh, axis=-1, keepdims=True)
    m2 = np.mean(gxh * xhat, axis=-1, keepdims=True)
    gx = inv_std * (gxh - m1 - xhat * m2)
    return out, gx, ggamma, gbeta


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_layer_norm_recomputed_xhat_equals_saved_bytes(rng, dtype):
    x = Tensor(3.0 + 2.0 * rng.standard_normal((2, 5, 7, 24)), dtype=dtype,
               grad_enabled=True)
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(24), dtype=dtype,
                   grad_enabled=True)
    beta = Tensor(0.1 * rng.standard_normal(24), dtype=dtype,
                  grad_enabled=True)
    g = rng.standard_normal(x.shape).astype(x.data.dtype)
    with Tape():
        out = layer_norm(x, gamma, beta)
    got = (out.data,) + tuple(out.node.backward(g))
    want = _layer_norm_saved_xhat(x.data, gamma.data, beta.data, g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_depthwise_kernel_grad_from_repadded_input_equals_saved_bytes(
        rng, dtype, stride, padding):
    x = Tensor(rng.standard_normal((2, 7, 6, 5)), dtype=dtype,
               grad_enabled=True)
    k = Tensor(rng.standard_normal((5, 1, 3, 3)), dtype=dtype,
               grad_enabled=True)
    with Tape():
        out = depthwise_conv2d(x, k, stride, padding)
    g = rng.standard_normal(out.shape).astype(out.data.dtype)
    _, gk = out.node.backward(g)
    want = depthwise_tap_kernel_grad(x.data, g, 3, 3, stride, padding)
    assert gk.dtype == want.dtype and gk.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# gradients of every primitive vs central finite differences

def _fd_check(build, params, seed, rtol=1e-4):
    """Replays `build()` under a tape and checks every param gradient."""
    with Tape() as tape:
        loss = build()
    grads = tape.gradients(loss, params)
    for p in params:
        numeric = numeric_gradient(lambda: float(build().data), p.data)
        assert grad_close(grads[p].data, numeric, rtol=rtol), \
            f"seed {seed}: gradient mismatch for shape {p.shape}"


def test_central_difference_restores_element_when_f_raises():
    x = np.array([0.5, -1.25, 3.0])
    calls = []

    def f():
        calls.append(x[1])
        if len(calls) == 2:
            raise NonFiniteError("loss")
        return float(np.sum(x ** 2))
    with pytest.raises(NonFiniteError):
        reference.central_difference(f, x, 1, 1e-3)
    assert x.tobytes() == np.array([0.5, -1.25, 3.0]).tobytes()
    assert calls == [-1.25 + 1e-3, -1.25 - 1e-3]


@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 4, 4, 2)), grad_enabled=True)
    k = Tensor(0.3 * rng.standard_normal((3, 2, 3, 3)), grad_enabled=True)
    kd = Tensor(0.3 * rng.standard_normal((2, 1, 3, 3)), grad_enabled=True)
    w = Tensor(0.3 * rng.standard_normal((3, 2)), grad_enabled=True)
    b = Tensor(0.1 * rng.standard_normal(3), grad_enabled=True)
    g = Tensor(1.0 + 0.1 * rng.standard_normal(2), grad_enabled=True)
    beta = Tensor(0.1 * rng.standard_normal(2), grad_enabled=True)
    readout = Tensor(rng.standard_normal((2, 4, 4, 3)))

    def conv_loss():
        return tsum(mul(conv2d(x, k, stride=1, padding=1), 1.0 / 8.0))

    _fd_check(conv_loss, [x, k], seed)

    def dw_loss():
        return tsum(silu(depthwise_conv2d(x, kd, padding=1)))

    _fd_check(dw_loss, [x, kd], seed)

    def pw_loss():
        return tsum(silu(conv2d(x, reshape(w, (3, 2, 1, 1)))))

    _fd_check(pw_loss, [x, w], seed)

    def mixed_loss():
        h = transpose(x, (0, 2, 1, 3))
        h = layer_norm(h, g, beta)
        h = linear(h, w, b)
        h = gelu(h)
        h = softmax(h, axis=-1)
        return tsum(mul(h, readout))

    _fd_check(mixed_loss, [x, w, b, g, beta], seed)

    def shape_ops_loss():
        h = reshape(x, (2, 2, 16))
        h = concat([slice_axis(h, 2, 0, 7), slice_axis(h, 2, 7, 16)], axis=2)
        h = take(h, np.array([3, 1, 1, 0]), axis=2)
        t = tile_leading(b, (2, 2))
        h2 = add(slice_axis(h, 2, 0, 3), t)
        h2 = scale_per_sample(h2, np.array([0.5, 2.0]))
        return add(tsum(softplus(h2)), tmean(sub(neg(exp(mul(b, 0.1))),
                                                 sigmoid(b)), axis=(0,)))

    _fd_check(shape_ops_loss, [x, b], seed)


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_gradient(seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.standard_normal((4, 5)), grad_enabled=True)
    labels = rng.integers(0, 5, size=4)

    def build():
        return softmax_cross_entropy(logits, labels, label_smoothing=0.1)

    _fd_check(build, [logits], seed)


# ---------------------------------------------------------------------------
# structural invariants

def test_reshape_round_trip(rng):
    x = Tensor(rng.standard_normal((3, 4, 5)))
    back = reshape(reshape(x, (5, 12)), (3, 4, 5))
    assert np.array_equal(back.data, x.data)


def test_row_major_layout(rng):
    x = Tensor(rng.standard_normal((2, 3, 4)))
    flat = x.data.reshape(-1)
    strides = (12, 4, 1)
    for idx in [(0, 0, 0), (1, 2, 3), (0, 2, 1), (1, 0, 3)]:
        offset = sum(i * s for i, s in zip(idx, strides))
        assert x.data[idx] == flat[offset]
    assert x.size == len(flat)


def test_shape_and_dtype_mismatch_errors(rng):
    a = Tensor(rng.standard_normal((2, 3)))
    b = Tensor(rng.standard_normal((3, 2)))
    with pytest.raises(ShapeError):
        add(a, b)
    c = Tensor(np.ones((2, 3), dtype=np.float32), dtype="f32")
    with pytest.raises(TypeError, match="dtype"):
        mul(a, c)
    scalar = Tensor(np.asarray(2.0))
    assert np.allclose(mul(a, scalar).data, 2.0 * a.data)


def test_nonfinite_surfaced_not_propagated():
    with pytest.raises(NonFiniteError, match="exp"):
        exp(Tensor(np.array([1000.0])))
    big = Tensor(np.full((1, 2, 2, 1), 1e30, dtype=np.float32), dtype="f32")
    with pytest.raises(NonFiniteError, match="mul"), \
            np.errstate(over="ignore"):
        mul(big, big)
    with pytest.raises(NonFiniteError, match="conv2d"), \
            np.errstate(over="ignore"):
        conv2d(big, reshape(big, (1, 1, 2, 2)), padding=0)
    with pytest.raises(NonFiniteError):
        Tensor(np.array([np.nan]))


def test_fused_scan_surfaces_a_nonfinite_step_or_decay():
    """dt + dt_bias overflowing to -inf would give delta = softplus(-inf)
    = 0 and a finite scan; the fused node names the pre-activation
    instead. exp(A_log) overflowing is named too."""
    def f32(a):
        return Tensor(np.asarray(a, dtype=np.float32), dtype="f32")
    u, proj, d = f32(np.ones((1, 2, 1))), f32(np.ones((1, 2, 3))), f32([1.0])
    with pytest.raises(NonFiniteError, match="ssm_scan: the step-size "
                                             "pre-activation"):
        ssm_scan(u, f32(np.full((1, 2, 1), -3e38)), f32(np.zeros((1, 1))),
                 proj, f32([-3e38]), d)
    with pytest.raises(NonFiniteError, match=r"ssm_scan: exp\(A_log\)"):
        ssm_scan(u, f32(np.zeros((1, 2, 1))), f32([[100.0]]), proj,
                 f32([0.0]), d)


def test_dtype_preserved_f32(rng):
    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32), dtype="f32")
    for t in (silu(x), gelu(x), softplus(x), softmax(x, 1), exp(x)):
        assert t.dtype == "f32"
