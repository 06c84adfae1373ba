import weakref

import numpy as np
import pytest

from conftest import grad_close, rel_err
from mfil import reference
from mfil.tensor import (NonFiniteError, ShapeError, Tape, Tensor, add,
                         backward, concat, conv2d, depthwise_conv2d, exp,
                         gelu, layer_norm, linear, mul, neg,
                         pointwise_conv2d, reshape, scale_per_sample,
                         sigmoid, silu, slice_axis,
                         softmax, softmax_cross_entropy, softplus, sub,
                         take, tile_leading, tmean, transpose, tsum)


# ---------------------------------------------------------------------------
# conv2d

def test_conv2d_ones_sum():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, k)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_conv2d_disjoint_blocks():
    x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
    k = Tensor(np.ones((1, 1, 2, 2)))
    out = conv2d(x, k, stride=2)
    want = np.array([[0 + 1 + 4 + 5, 2 + 3 + 6 + 7],
                     [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]], dtype=float)
    assert np.array_equal(out.data[0, 0], want)


def test_conv2d_matches_loop_oracle(rng):
    x = rng.standard_normal((1, 2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    got = conv2d(Tensor(x), Tensor(k)).data
    want = reference.conv2d_reference(x, k)
    assert rel_err(got, want) <= 1e-6


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1),
                                            (3, 2)])
def test_conv2d_strides_paddings_vs_oracle(rng, stride, padding):
    x = rng.standard_normal((2, 3, 6, 7))
    k = rng.standard_normal((2, 3, 3, 2))
    got = conv2d(Tensor(x), Tensor(k), stride, padding).data
    want = reference.conv2d_reference(x, k, stride, padding)
    assert got.shape == want.shape
    assert rel_err(got, want) <= 1e-6


def test_conv2d_channel_mismatch_names_axes():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    k = Tensor(np.zeros((1, 3, 2, 2)))
    with pytest.raises(ShapeError, match="axis 1"):
        conv2d(x, k)


def test_conv2d_kernel_too_large():
    x = Tensor(np.zeros((1, 1, 2, 2)))
    k = Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d(x, k)


# ---------------------------------------------------------------------------
# depthwise_conv2d

# depthwise_conv2d and pointwise_conv2d are channel-last: [N, H, W, C]. The
# draws below stay NCHW, like the loop oracles, and are transposed in.

def _nhwc(a):
    return a.transpose(0, 2, 3, 1)


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
    assert rel_err(got.transpose(0, 3, 1, 2), want) <= 1e-6


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
    x = Tensor(rng.standard_normal((1, 3, 4, 4)))
    k = Tensor(rng.standard_normal((2, 3, 2, 2)), grad_enabled=True)
    with Tape():
        out = conv2d(x, k, stride=2)
    gx, gk = out.node.backward(np.ones(out.shape))
    assert gx is None
    assert gk.shape == k.shape


def test_pointwise_conv2d_equals_1x1_conv2d_bytes(rng):
    # Same BLAS product per image as the NCHW 1x1 convolution, so forward
    # and input gradient agree bit for bit, at f32 and f64.
    cases = [("f64", (1, 8, 8, 8)), ("f32", (32, 32, 2, 2)),
             ("f32", (32, 64, 1, 1)), ("f64", (2, 5, 3, 4))]
    for dtype, (n, c, h, w) in cases:
        x = rng.standard_normal((n, c, h, w))
        k = Tensor(0.1 * rng.standard_normal((c, c, 1, 1)), dtype=dtype)
        g = rng.standard_normal((n, c, h, w))
        g[g < -1.0] = 0.0
        xt = Tensor(x, dtype=dtype, grad_enabled=True)
        xc = Tensor(_nhwc(x), dtype=dtype, grad_enabled=True)
        with Tape():
            want = conv2d(xt, k)
            got = pointwise_conv2d(xc, k)
        gx_want, _ = want.node.backward(g.astype(want.data.dtype))
        gx_got, _ = got.node.backward(
            np.ascontiguousarray(_nhwc(g)).astype(got.data.dtype))
        assert np.ascontiguousarray(_nhwc(want.data)).tobytes() \
            == got.data.tobytes()
        assert np.ascontiguousarray(_nhwc(gx_want)).tobytes() \
            == gx_got.tobytes()


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


def test_layer_norm_eps_positive():
    with pytest.raises(ValueError):
        layer_norm(Tensor(np.zeros((1, 2))), Tensor(np.ones(2)),
                   Tensor(np.zeros(2)), eps=0.0)


# ---------------------------------------------------------------------------
# activations

def test_silu_at_zero():
    assert silu(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]


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

def test_backward_sum_gives_ones(rng):
    x = Tensor(rng.standard_normal((3, 4)), grad_enabled=True)
    with Tape() as tape:
        loss = tsum(x)
    g = tape.gradients(loss, [x])
    assert np.array_equal(g[x].data, np.ones((3, 4)))
    g2 = backward(loss, [x])  # module-level convenience, same tape
    assert np.array_equal(g2[x].data, np.ones((3, 4)))
    assert backward(loss)[x].data.shape == (3, 4)  # all leaves by default


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
    with pytest.raises(ValueError, match="detached"):
        backward(loss, [x])


def test_backward_nonparticipating_leaf_zero(rng):
    x = Tensor(rng.standard_normal(3), grad_enabled=True)
    unused = Tensor(rng.standard_normal(4), grad_enabled=True)
    with Tape() as tape:
        loss = tsum(x)
    g = tape.gradients(loss, [x, unused])
    assert np.array_equal(g[unused].data, np.zeros(4))


def test_tape_records_in_topological_order(rng):
    x = Tensor(rng.standard_normal(3), grad_enabled=True)
    with Tape() as tape:
        a = mul(x, 2.0)
        b = add(a, x)
        tsum(b)
    seen = set()
    for node in tape.nodes:
        for inp in node.inputs:
            if inp.node is not None:
                assert id(inp.node.out) in seen
        seen.add(id(node.out))


def test_no_tape_means_no_recording(rng):
    x = Tensor(rng.standard_normal(3), grad_enabled=True)
    y = mul(x, 2.0)
    assert y.node is None and not y.grad_enabled


# ---------------------------------------------------------------------------
# graph lifetime: with the cyclic collector off, reference counting alone
# frees a graph once its tape and outputs are dropped

def _taped_chain(x):
    """sum(exp(2x)) on a new tape; the intermediate 2x only as a weakref."""
    with Tape() as tape:
        h = mul(x, 2.0)
        loss = tsum(exp(h))
    return tape, loss, weakref.ref(h)


def test_graph_freed_after_gradients(no_gc, rng):
    x = Tensor(rng.standard_normal(4), grad_enabled=True)
    tape, loss, h = _taped_chain(x)
    g = tape.gradients(loss, [x])
    assert h() is not None and h().node.out is h()
    del tape, loss
    assert h() is None
    assert np.array_equal(g[x].data, 2.0 * np.exp(2.0 * x.data))


def test_graph_freed_without_gradients(no_gc, rng):
    x = Tensor(rng.standard_normal(4), grad_enabled=True)
    tape, loss, h = _taped_chain(x)
    del tape, loss
    assert h() is None


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
    with pytest.raises(ValueError, match="detached"):
        backward(loss, [x])


# ---------------------------------------------------------------------------
# gradients of every primitive vs central finite differences

def _fd_check(build, params, seed, rtol=1e-4):
    """Replays `build()` under a tape and checks every param gradient."""
    with Tape() as tape:
        loss = build()
    grads = tape.gradients(loss, params)
    for p in params:
        numeric = reference.numeric_gradient(lambda: float(build().data),
                                             p.data)
        assert grad_close(grads[p].data, numeric, rtol=rtol), \
            f"seed {seed}: gradient mismatch for shape {p.shape}"


@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 2, 4, 4)), grad_enabled=True)
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
        return tsum(silu(depthwise_conv2d(transpose(x, (0, 2, 3, 1)), kd,
                                          padding=1)))

    _fd_check(dw_loss, [x, kd], seed)

    def pw_loss():
        return tsum(silu(pointwise_conv2d(transpose(x, (0, 2, 3, 1)),
                                          reshape(w, (3, 2, 1, 1)))))

    _fd_check(pw_loss, [x, w], seed)

    def mixed_loss():
        h = transpose(x, (0, 2, 3, 1))
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
                                                 sigmoid(b))))

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
    big = Tensor(np.full((1, 1, 2, 2), 1e30, dtype=np.float32), dtype="f32")
    with pytest.raises(NonFiniteError, match="mul"), \
            np.errstate(over="ignore"):
        mul(big, big)
    with pytest.raises(NonFiniteError, match="conv2d"), \
            np.errstate(over="ignore"):
        conv2d(big, big, padding=0)
    with pytest.raises(NonFiniteError):
        Tensor(np.array([np.nan]))


def test_dtype_preserved_f32(rng):
    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32), dtype="f32")
    for t in (silu(x), gelu(x), softplus(x), softmax(x, 1), exp(x)):
        assert t.dtype == "f32"
