import numpy as np
import pytest

from conftest import grad_close, rel_err
from mfil import reference
from mfil.backbone import desk
from mfil.block import MfilBlock, block_cost, conv_ffn
from mfil.tensor import Tape, Tensor, mul, tsum


def _nhwc(a):
    """NCHW draw or oracle result -> the channel-last layout blocks use."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _block(dim, seed=0, dtype="f64", **kw):
    return MfilBlock(dim, desk(**kw), rng=np.random.default_rng(seed),
                     dtype=dtype)


def test_block_preserves_shape_at_published_width(rng):
    blk = _block(94, dtype="f32")
    x = Tensor(_nhwc(rng.standard_normal((2, 94, 8, 8))), dtype="f32")
    out = blk.forward(x)
    assert out.shape == (2, 8, 8, 94)
    assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("shape", [(1, 4, 4, 8), (3, 5, 7, 6), (2, 3, 3, 4)])
def test_block_shape_preservation(rng, shape):
    blk = _block(shape[3], seed=2)
    out = blk.forward(Tensor(rng.standard_normal(shape)))
    assert out.shape == shape


def test_residual_identity_with_zeroed_projections(rng):
    blk = _block(6, seed=3)
    blk.out_proj.data = np.zeros_like(blk.out_proj.data)
    blk.ffn.fc2_weight.data = np.zeros_like(blk.ffn.fc2_weight.data)
    blk.ffn.fc2_bias.data = np.zeros_like(blk.ffn.fc2_bias.data)
    x = _nhwc(rng.standard_normal((2, 6, 4, 4)))
    out = blk.forward(Tensor(x))
    assert np.array_equal(out.data, x)  # bit-exact


def test_gating_is_the_only_branch_coupling(rng):
    """The scan path and the SiLU gate path meet only in their product."""
    from mfil.tensor import (add, depthwise_conv2d, layer_norm, linear,
                             silu, slice_axis)
    from mfil.scan import mfil_ssm

    blk = _block(5, seed=4)
    ci = blk.d_inner
    x = Tensor(_nhwc(rng.standard_normal((1, 5, 4, 4))))
    got = blk.forward(x)

    xn = layer_norm(x, blk.norm1_gamma, blk.norm1_beta)
    u = linear(xn, blk.in_proj)
    u1 = slice_axis(u, 3, 0, ci)
    u2 = slice_axis(u, 3, ci, 2 * ci)
    branch = depthwise_conv2d(u1, blk.branch_conv, padding=1)
    z = mfil_ssm(silu(branch), blk.bank, blk.core, blk.weights)
    gated = mul(z, silu(u2))
    y1 = add(x, linear(gated, blk.out_proj))
    ffn_out = conv_ffn(y1, blk.ffn)
    want = add(y1, layer_norm(ffn_out, blk.norm2_gamma, blk.norm2_beta))
    assert np.array_equal(got.data, want.data)


# ---------------------------------------------------------------------------
# ConvFFN

def test_conv_ffn_zero_second_linear(rng):
    blk = _block(4, seed=5)
    blk.ffn.fc2_weight.data = np.zeros_like(blk.ffn.fc2_weight.data)
    blk.ffn.fc2_bias.data = np.zeros_like(blk.ffn.fc2_bias.data)
    out = conv_ffn(Tensor(_nhwc(rng.standard_normal((1, 4, 3, 3)))),
                   blk.ffn).data
    assert np.all(out == 0.0)


def _gelu_np(x):
    from scipy.special import erf
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _conv_ffn_oracle(x, ffn):
    """Channel-last in and out; the depthwise oracle runs on NCHW."""
    h = reference.linear_reference(x, ffn.fc1_weight.data, ffn.fc1_bias.data)
    h = reference.depthwise_conv2d_reference(
        h.transpose(0, 3, 1, 2), ffn.dw_weight.data, padding=1)
    h = _gelu_np(h)
    return reference.linear_reference(h.transpose(0, 2, 3, 1),
                                      ffn.fc2_weight.data, ffn.fc2_bias.data)


def test_conv_ffn_single_pixel_center_tap(rng):
    # At 1x1 spatial the padded depthwise degenerates to center-tap scaling.
    blk = _block(4, seed=6)
    blk.ffn.dw_weight.data = rng.standard_normal(blk.ffn.dw_weight.shape)
    x = _nhwc(rng.standard_normal((2, 4, 1, 1)))
    got = conv_ffn(Tensor(x), blk.ffn).data
    hidden = reference.linear_reference(x[:, 0, 0, :],
                                        blk.ffn.fc1_weight.data,
                                        blk.ffn.fc1_bias.data)
    hidden = hidden * blk.ffn.dw_weight.data[:, 0, 1, 1]
    want = reference.linear_reference(_gelu_np(hidden),
                                      blk.ffn.fc2_weight.data,
                                      blk.ffn.fc2_bias.data)
    assert rel_err(got[:, 0, 0, :], want) <= 1e-6


def test_conv_ffn_matches_composed_oracle(rng):
    blk = _block(3, seed=7)
    blk.ffn.dw_weight.data = 0.3 * rng.standard_normal(
        blk.ffn.dw_weight.shape)
    x = _nhwc(rng.standard_normal((1, 3, 4, 5)))
    got = conv_ffn(Tensor(x), blk.ffn).data
    assert rel_err(got, _conv_ffn_oracle(x, blk.ffn)) <= 1e-6


# ---------------------------------------------------------------------------
# parameter accounting

@pytest.mark.parametrize("dim,kw", [
    (8, {}),
    (8, {"d_state": 2}),
    (8, {"ssm_ratio": 2.0}),
    (12, {"ffn_ratio": 2.0}),
    (8, {"scan_mode": "single_flatten"}),
    (8, {"scan_mode": "cross_4dir"}),
    (8, {"scan_mode": "original_plus_one_filter"}),
    (8, {"adaptive_weighting": False}),
])
def test_param_count_formula_matches_tally(dim, kw):
    blk = _block(dim, seed=1, **kw)
    params = {**blk.mixer_parameters(), **blk.ffn_parameters()}
    tally = sum(p.size for p in params.values())
    assert tally == block_cost(dim, desk(**kw))[0]


def test_adaptive_weighting_removes_exactly_four_scalars():
    with_w = block_cost(8, desk())[0]
    without = block_cost(8, desk(adaptive_weighting=False))[0]
    assert with_w - without == 4


# ---------------------------------------------------------------------------
# gradients

@pytest.mark.parametrize("seed", [0, 1])
def test_every_block_parameter_receives_gradient(seed):
    rng = np.random.default_rng(seed)
    blk = _block(6, seed=seed)
    params = {**blk.mixer_parameters(), **blk.ffn_parameters()}
    x = Tensor(_nhwc(rng.standard_normal((2, 6, 4, 4))), grad_enabled=True)
    readout = Tensor(_nhwc(rng.standard_normal((2, 6, 4, 4))))
    with Tape() as tape:
        loss = tsum(mul(blk.forward(x), readout))
    grads = tape.gradients(loss, list(params.values()))
    dead = [name for name, p in params.items()
            if float(np.linalg.norm(grads[p].data)) == 0.0]
    assert not dead, f"dead parameter groups: {dead}"


def test_full_block_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    blk = _block(8, seed=11)
    params = {**blk.mixer_parameters(), **blk.ffn_parameters()}
    x = Tensor(_nhwc(rng.standard_normal((1, 8, 4, 4))), grad_enabled=True)
    readout = Tensor(_nhwc(rng.standard_normal((1, 8, 4, 4))))

    def build():
        return tsum(mul(blk.forward(x), readout))

    with Tape() as tape:
        loss = build()
    grads = tape.gradients(loss, list(params.values()) + [x])
    check_rng = np.random.default_rng(5)
    for name, p in {**params, "input": x}.items():
        g = grads[p].data
        flat = p.data.reshape(-1)
        idx = {int(np.argmax(np.abs(g)))}
        idx.update(int(i) for i in check_rng.integers(0, p.size, size=2))
        for i in idx:
            numeric = reference.central_difference(
                lambda: float(build().data), flat, i, 1e-4)
            assert grad_close(g.reshape(-1)[i], numeric), \
                f"{name}[{i}]: analytic {g.reshape(-1)[i]} vs fd {numeric}"


def test_drop_path_inactive_at_zero_rate_and_eval(rng):
    blk = _block(4, seed=9, drop_path=0.5)
    x = Tensor(_nhwc(rng.standard_normal((2, 4, 4, 4))))
    eval_out = blk.forward(x, train=False)
    eval_out2 = blk.forward(x, train=False)
    assert np.array_equal(eval_out.data, eval_out2.data)
    train_rng = np.random.default_rng(0)
    train_out = blk.forward(x, train=True, rng=train_rng)
    assert not np.array_equal(train_out.data, eval_out.data)
    blk0 = _block(4, seed=9, drop_path=0.0)
    same = blk0.forward(x, train=True, rng=np.random.default_rng(0))
    assert np.array_equal(same.data, blk0.forward(x).data)
