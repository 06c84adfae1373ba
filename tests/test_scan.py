import numpy as np
import pytest

from conftest import grad_close, numeric_gradient, rel_err
from mfil import reference
from mfil.scan import (SOBEL_X, SOBEL_Y, AdaptiveWeights, FilterBank,
                       adaptive_merge, cross_scan_permutations, dynamic_map,
                       merge_views, mfil_ssm, num_scans, orthogonal_maps,
                       stack_scans, unstack_scans)
from mfil.ssm import SsmCore, selective_scan
from mfil.tensor import (Tape, Tensor, depthwise_conv2d, mul, reshape,
                         tsum)


def _bank(c, seed=0, **kw):
    return FilterBank(c, rng=np.random.default_rng(seed), dtype="f64", **kw)


def _core(c, seed=0, **kw):
    return SsmCore(c, d_state=1, rng=np.random.default_rng(seed),
                   dtype="f64", **kw)


def _nhwc(a):
    """NCHW draw or oracle result -> the channel-last layout maps use."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _nchw(a):
    return a.transpose(0, 3, 1, 2)


def _weights(n=4, values=None):
    w = AdaptiveWeights(n, dtype="f64")
    if values is not None:
        w.w.data = np.asarray(values, dtype=np.float64)
    return w


# ---------------------------------------------------------------------------
# Sobel kernels

def test_sobel_row_and_column_sums_are_exactly_zero():
    assert np.all(SOBEL_X.sum(axis=1) == 0.0)  # rows of K_x
    assert np.all(SOBEL_Y.sum(axis=0) == 0.0)  # columns of K_y
    assert np.array_equal(SOBEL_Y, SOBEL_X.T)


def test_sobel_kernels_are_fixed_not_learnable():
    bank = _bank(3)
    names = set(bank.parameters())
    assert names == {"refine_h", "refine_v", "dyn_depthwise",
                     "dyn_pointwise"}
    assert not bank.sobel_x.grad_enabled
    assert not bank.sobel_y.grad_enabled


def test_constant_input_gives_zero_orthogonal_maps(rng):
    # Zero padding makes the image boundary a real edge, so exact zeros
    # hold where windows see only the constant: the Sobel response interior,
    # and one cell further in after the 3x3 refiner.
    bank = _bank(2)
    bank.refine_h.data = rng.standard_normal(bank.refine_h.shape)
    bank.refine_v.data = rng.standard_normal(bank.refine_v.shape)
    x = Tensor(np.full((1, 7, 7, 2), 2.5))
    sob_h = depthwise_conv2d(x, bank.sobel_y, padding=1)
    sob_v = depthwise_conv2d(x, bank.sobel_x, padding=1)
    assert np.all(sob_h.data[:, 1:-1, 1:-1] == 0.0)
    assert np.all(sob_v.data[:, 1:-1, 1:-1] == 0.0)
    f_h, f_v = orthogonal_maps(x, bank)
    assert np.all(f_h.data[:, 2:-2, 2:-2] == 0.0)
    assert np.all(f_v.data[:, 2:-2, 2:-2] == 0.0)


def test_ramp_input_directional_selectivity():
    # Horizontal ramp: constant nonzero response from K_x, zero from K_y.
    c = 1
    x = np.tile(np.arange(8, dtype=np.float64), (8, 1))[None, :, :, None]
    bank = _bank(c)
    gv = depthwise_conv2d(Tensor(x), bank.sobel_x, padding=1).data
    gh = depthwise_conv2d(Tensor(x), bank.sobel_y, padding=1).data
    interior_v = gv[0, 1:-1, 1:-1, 0]
    interior_h = gh[0, 1:-1, 1:-1, 0]
    assert np.all(interior_h == 0.0)
    assert np.allclose(interior_v, interior_v[0, 0])
    assert interior_v[0, 0] != 0.0


def test_orthogonal_maps_match_loop_oracle(rng):
    bank = _bank(3, seed=5)
    bank.refine_h.data = 0.3 * rng.standard_normal(bank.refine_h.shape)
    bank.refine_v.data = 0.3 * rng.standard_normal(bank.refine_v.shape)
    x = rng.standard_normal((2, 3, 5, 6))
    f_h, f_v = orthogonal_maps(Tensor(_nhwc(x)), bank)
    sob_h = reference.depthwise_conv2d_reference(
        x, np.tile(SOBEL_Y, (3, 1, 1, 1)), padding=1)
    sob_v = reference.depthwise_conv2d_reference(
        x, np.tile(SOBEL_X, (3, 1, 1, 1)), padding=1)
    want_h = reference.depthwise_conv2d_reference(
        sob_h, bank.refine_h.data, padding=1)
    want_v = reference.depthwise_conv2d_reference(
        sob_v, bank.refine_v.data, padding=1)
    assert rel_err(_nchw(f_h.data), want_h) <= 1e-6
    assert rel_err(_nchw(f_v.data), want_v) <= 1e-6


# ---------------------------------------------------------------------------
# dynamic map

def test_dynamic_map_identity_configuration(rng):
    bank = _bank(3)
    bank.dyn_pointwise.data = np.eye(3).reshape(3, 3, 1, 1)
    x = _nhwc(rng.standard_normal((1, 3, 4, 5)))
    out = dynamic_map(Tensor(x), bank).data
    assert np.allclose(out, x, atol=1e-12)


def test_dynamic_map_zero_pointwise(rng):
    bank = _bank(2)
    bank.dyn_depthwise.data = rng.standard_normal(bank.dyn_depthwise.shape)
    bank.dyn_pointwise.data = np.zeros_like(bank.dyn_pointwise.data)
    out = dynamic_map(Tensor(_nhwc(rng.standard_normal((1, 2, 4, 4)))),
                      bank).data
    assert np.all(out == 0.0)


def test_dynamic_map_matches_composed_oracle(rng):
    bank = _bank(3, seed=9)
    bank.dyn_depthwise.data = 0.4 * rng.standard_normal(
        bank.dyn_depthwise.shape)
    x = rng.standard_normal((1, 3, 5, 4))
    got = _nchw(dynamic_map(Tensor(_nhwc(x)), bank).data)
    stage1 = reference.depthwise_conv2d_reference(
        x, bank.dyn_depthwise.data, padding=1)
    want = reference.conv2d_reference(stage1, bank.dyn_pointwise.data)
    assert rel_err(got, want) <= 1e-6


# ---------------------------------------------------------------------------
# stacking

def test_stack_single_pixel_order():
    maps = [Tensor(np.full((1, 1, 1, 2), float(v))) for v in (1, 2, 3, 4)]
    seq = stack_scans(*maps)
    assert seq.shape == (1, 4, 2)
    assert np.array_equal(seq.data[0, :, 0], [1.0, 2.0, 3.0, 4.0])


def test_stack_distinct_constants_stream():
    maps = [Tensor(np.full((1, 2, 2, 1), float(v))) for v in (1, 2, 3, 4)]
    seq = stack_scans(*maps)
    want = np.repeat([1.0, 2.0, 3.0, 4.0], 4)
    assert np.array_equal(seq.data[0, :, 0], want)


def test_stack_unstack_round_trip(rng):
    maps = [Tensor(_nhwc(rng.standard_normal((2, 3, 4, 5))))
            for _ in range(4)]
    back = unstack_scans(stack_scans(*maps), 4, 5, n=4)
    for m, b in zip(maps, back):
        assert np.array_equal(m.data, b.data)


def test_stack_shape_mismatch():
    good = Tensor(np.zeros((1, 3, 3, 2)))
    bad = Tensor(np.zeros((1, 3, 4, 2)))
    with pytest.raises(ValueError, match="mismatch"):
        stack_scans(good, good, good, bad)


def test_stack_row_major_flattening(rng):
    x = rng.standard_normal((1, 2, 3, 1))
    seq = stack_scans(*[Tensor(x)] * 4)
    assert np.array_equal(seq.data[0, :6, 0], x[0, :, :, 0].reshape(-1))


# ---------------------------------------------------------------------------
# adaptive merging

def test_merge_uniform_at_zero(rng):
    maps = [Tensor(rng.standard_normal((1, 2, 3, 3))) for _ in range(4)]
    fused = adaptive_merge(maps, _weights()).data
    want = np.mean([m.data for m in maps], axis=0)
    assert rel_err(fused, want) <= 1e-12


def test_merge_identical_inputs_any_weights(rng):
    m = Tensor(rng.standard_normal((1, 2, 3, 3)))
    fused = adaptive_merge([m] * 4, _weights(values=rng.standard_normal(4)))
    assert np.allclose(fused.data, m.data, atol=1e-12)


def test_merge_saturation(rng):
    maps = [Tensor(rng.standard_normal((1, 2, 3, 3))) for _ in range(4)]
    fused = adaptive_merge(maps, _weights(values=[50.0, 0.0, 0.0, 0.0]))
    assert rel_err(fused.data, maps[0].data) <= 1e-6


def test_merge_convex_hull(rng):
    maps = [Tensor(rng.standard_normal((2, 2, 4, 4))) for _ in range(4)]
    fused = adaptive_merge(maps, _weights(values=rng.standard_normal(4)))
    stack = np.stack([m.data for m in maps])
    assert np.all(fused.data >= stack.min(axis=0) - 1e-12)
    assert np.all(fused.data <= stack.max(axis=0) + 1e-12)


def test_alphas_sum_to_one_and_positive(rng):
    for _ in range(10):
        w = _weights(values=5.0 * rng.standard_normal(4))
        a = w.alphas().data
        assert abs(a.sum() - 1.0) <= 1e-6
        assert np.all(a > 0)


def test_merge_uniform_average_without_weights(rng):
    maps = [Tensor(rng.standard_normal((1, 2, 3, 3))) for _ in range(4)]
    fused = adaptive_merge(maps, None).data
    assert rel_err(fused, np.mean([m.data for m in maps], axis=0)) <= 1e-12


class _FixedAlphas:
    """Weights whose ``alphas()`` is a leaf, so its gradient is kept."""

    def __init__(self, alphas):
        self.leaf = alphas

    def alphas(self):
        return self.leaf


def _merge_and_grads(merge, tokens, alphas, upstream):
    leaves = [tokens] if alphas is None else [tokens, alphas]
    with Tape() as tape:
        out = merge(tokens, alphas)
        grads = tape.gradients(tsum(mul(out, Tensor(upstream))), leaves)
    return [out.data.tobytes()] + [grads[t].data.tobytes() for t in leaves]


@pytest.mark.parametrize("upstream", ["signed", "negative_zero"])
@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_merge_views_bytes_equal_unstack_then_adaptive_merge(
        rng, dtype, bsz, n, weighted, upstream):
    """The fused node against its reference graph, by ``tobytes``: output,
    token gradient and alpha gradient. A -0.0 in the upstream gradient
    must come back as the +0.0 the reference's zero-filled slices give."""
    h, w, c = 5, 7, 13
    tokens = Tensor(rng.standard_normal((bsz, n * h * w, c)), dtype=dtype,
                    grad_enabled=True)
    alphas = None
    if weighted:
        alphas = Tensor(rng.dirichlet(np.ones(n)), dtype=dtype,
                        grad_enabled=True)
    if upstream == "signed":
        g = rng.standard_normal((bsz, h, w, c)).astype(dtype)
        g[rng.random(g.shape) < 0.2] = -0.0
    else:  # every product of g with a token or an alpha is -0.0
        tokens.data = np.abs(tokens.data)
        g = np.full((bsz, h, w, c), -0.0, dtype=dtype)

    def reference_merge(t, a):
        views = unstack_scans(t, h, w, n=n)
        return adaptive_merge(views, None if a is None else _FixedAlphas(a))

    want = _merge_and_grads(reference_merge, tokens, alphas, g)
    got = _merge_and_grads(lambda t, a: merge_views(t, a, h, w), tokens,
                           alphas, g)
    assert got == want


def test_merge_views_rejects_bad_shapes(rng):
    tokens = Tensor(rng.standard_normal((1, 4 * 6, 2)))
    with pytest.raises(ValueError, match="sequence length"):
        merge_views(tokens, None, 2, 5)
    with pytest.raises(ValueError, match="sequence length"):
        merge_views(tokens, None, 4, 6)
    with pytest.raises(ValueError, match="alphas shape"):
        merge_views(tokens, Tensor(np.full(3, 1 / 3)), 2, 3)


# ---------------------------------------------------------------------------
# full pipeline

def test_mfil_zero_input_zero_output(rng):
    c = 3
    out = mfil_ssm(Tensor(np.zeros((1, 4, 4, c))), _bank(c), _core(c),
                   _weights()).data
    assert np.all(out == 0.0)


def test_single_flatten_bypass_equals_direct_scan(rng):
    c = 3
    core = _core(c, seed=2)
    x = _nhwc(rng.standard_normal((2, c, 4, 5)))
    via_pipeline = mfil_ssm(Tensor(x), None, core, None,
                            scan_mode="single_flatten").data
    direct = selective_scan(Tensor(x.reshape(2, 20, c)), core).data
    assert np.array_equal(via_pipeline, direct.reshape(2, 4, 5, c))


def test_filtering_mode_without_a_bank_names_the_mode(rng):
    x = Tensor(_nhwc(rng.standard_normal((1, 3, 4, 4))))
    for mode in ("multi_filter", "original_plus_one_filter"):
        with pytest.raises(ValueError, match=f"scan_mode '{mode}'.*None"):
            mfil_ssm(x, None, _core(3), _weights(num_scans(mode)),
                     scan_mode=mode)


def test_cross_scan_permutations_are_permutations():
    perms = cross_scan_permutations(3, 4)
    assert len(perms) == 4
    for p in perms:
        assert sorted(p.tolist()) == list(range(12))
    assert np.array_equal(perms[0], np.arange(12))
    assert np.array_equal(perms[2], np.arange(12)[::-1])


@pytest.mark.parametrize("mode,n", [("multi_filter", 4), ("cross_4dir", 4),
                                    ("original_plus_one_filter", 2),
                                    ("single_flatten", 1)])
def test_scan_modes_run_and_preserve_shape(rng, mode, n):
    assert num_scans(mode) == n
    c = 3
    bank = _bank(c, scan_mode=mode)
    weights = _weights(n) if n > 1 else None
    x = Tensor(_nhwc(rng.standard_normal((2, c, 4, 4))))
    out = mfil_ssm(x, bank, _core(c), weights, scan_mode=mode)
    assert out.shape == (2, 4, 4, c)
    assert np.all(np.isfinite(out.data))


def test_merge_symmetry_under_scan_order_swap(rng):
    """Swapping the h/v stacking slots plus their fusion weights is a no-op
    when the views are scanned as batch rows: each view's output then
    depends only on its own tokens."""
    c = 3
    core = _core(c, seed=4)
    bank = _bank(c, seed=6)
    bank.refine_h.data = 0.5 * rng.standard_normal(bank.refine_h.shape)
    bank.refine_v.data = 0.5 * rng.standard_normal(bank.refine_v.shape)
    w = rng.standard_normal(4)
    x = Tensor(_nhwc(rng.standard_normal((1, c, 4, 4))))
    f_h, f_v = orthogonal_maps(x, bank)
    f_dyn = dynamic_map(x, bank)

    def fuse(order, weight_values):
        rows = reshape(stack_scans(*order), (4, 16, c))
        out = reshape(selective_scan(rows, core), (1, 64, c))
        maps = unstack_scans(out, 4, 4, n=4)
        return adaptive_merge(maps, _weights(values=weight_values)).data

    base = fuse((x, f_h, f_v, f_dyn), w)
    swapped = fuse((x, f_v, f_h, f_dyn), [w[0], w[2], w[1], w[3]])
    assert rel_err(swapped, base) <= 1e-12


def test_state_carries_across_segments_by_default(rng):
    # The first segment's content reaches later segments unless reset is on.
    c = 2
    core = _core(c, seed=5)
    x = _nhwc(rng.standard_normal((1, c, 3, 3)))
    a = mfil_ssm(Tensor(x), _bank(c), core, _weights()).data
    x2 = x.copy()
    x2[0, 0, 0, :] += 1.0  # first token of the original-image segment
    b = mfil_ssm(Tensor(x2), _bank(c), core, _weights()).data
    # All four segment outputs differ (state flowed across segments).
    assert not np.allclose(a, b)


def test_mfil_parameter_gradients(rng):
    c = 4
    bank = _bank(c, seed=8)
    core = _core(c, seed=8)
    weights = _weights()
    x = Tensor(_nhwc(rng.standard_normal((1, c, 4, 4))), grad_enabled=True)
    readout = Tensor(_nhwc(rng.standard_normal((1, c, 4, 4))))
    params = {"x": x, **{f"bank.{k}": v
                         for k, v in bank.parameters().items()},
              "weights.w": weights.w,
              **{f"core.{k}": v for k, v in core.parameters().items()}}

    def build():
        return tsum(mul(mfil_ssm(x, bank, core, weights), readout))

    with Tape() as tape:
        loss = build()
    grads = tape.gradients(loss, list(params.values()))
    for name, p in params.items():
        numeric = numeric_gradient(lambda: float(build().data), p.data)
        assert grad_close(grads[p].data, numeric), f"mismatch for {name}"


def _tokens(fmap):
    b, h, w, c = fmap.shape
    return fmap.reshape(b, h * w, c)


def _scan_views(seq, core):
    """The carried scan of a stacked [B, n*H*W, C] token array."""
    return selective_scan(Tensor(seq), core).data


def _cross_4dir_by_hand(x, bank, core, weights, scan=_scan_views):
    b, h, w, c = x.shape
    perms = cross_scan_permutations(h, w)
    seq = np.concatenate([_tokens(x)[:, p] for p in perms], axis=1)
    out = scan(seq, core)
    maps = []
    for i, p in enumerate(perms):
        view = out[:, i * h * w:(i + 1) * h * w][:, np.argsort(p)]
        maps.append(Tensor(view.reshape(b, h, w, c)))
    return adaptive_merge(maps, weights).data


def _row_major_by_hand(views, x, core, weights, scan):
    """Stack the row-major ``views``, scan, split and fuse."""
    b, h, w, c = x.shape
    seq = np.concatenate([_tokens(v) for v in views], axis=1)
    out = scan(seq, core)
    maps = [Tensor(out[:, i * h * w:(i + 1) * h * w].reshape(b, h, w, c))
            for i in range(len(views))]
    return adaptive_merge(maps, weights).data


def _original_plus_one_by_hand(x, bank, core, weights, scan=_scan_views):
    f_dyn = dynamic_map(Tensor(x), bank).data
    return _row_major_by_hand((x, f_dyn), x, core, weights, scan)


def _multi_filter_by_hand(x, bank, core, weights, scan=_scan_views):
    f_h, f_v = (f.data for f in orthogonal_maps(Tensor(x), bank))
    f_dyn = dynamic_map(Tensor(x), bank).data
    return _row_major_by_hand((x, f_h, f_v, f_dyn), x, core, weights, scan)


_BY_HAND = {"cross_4dir": _cross_4dir_by_hand,
            "multi_filter": _multi_filter_by_hand,
            "original_plus_one_filter": _original_plus_one_by_hand}


@pytest.mark.parametrize("mode", sorted(_BY_HAND))
def test_scan_mode_equals_its_pipeline_written_out(rng, mode):
    c = 3
    n = num_scans(mode)
    bank = _bank(c, seed=3)
    bank.dyn_depthwise.data = 0.4 * rng.standard_normal(
        bank.dyn_depthwise.shape)
    weights = _weights(n, values=rng.standard_normal(n))
    core = _core(c, seed=7)
    x = _nhwc(rng.standard_normal((2, c, 3, 5)))
    got = mfil_ssm(Tensor(x), bank, core, weights, scan_mode=mode).data
    assert np.array_equal(got, _BY_HAND[mode](x, bank, core, weights))


def _reset_oracle(n):
    """The oracle scan of n stacked views, each from a zero state."""
    def scan(seq, core):
        return reference.selective_scan_reference(seq, core, n_segments=n)
    return scan


@pytest.mark.parametrize("mode", sorted(_BY_HAND))
def test_segment_reset_equals_oracle_pipeline_with_resets(rng, mode):
    """Views scanned as batch rows are the oracle's reset segments, in
    value and in every gradient."""
    c = 3
    n = num_scans(mode)
    by_hand = _BY_HAND[mode]
    bank = _bank(c, seed=3, scan_mode=mode)
    for p in bank.parameters().values():
        p.data = p.data + 0.3 * rng.standard_normal(p.shape)
    weights = _weights(n, values=rng.standard_normal(n))
    core = _core(c, seed=7, segment_reset=True)
    x = Tensor(_nhwc(rng.standard_normal((2, c, 3, 2))), grad_enabled=True)
    readout = rng.standard_normal((2, 3, 2, c))

    def oracle():
        out = by_hand(x.data, bank, core, weights, scan=_reset_oracle(n))
        return float(np.sum(out * readout))

    got = mfil_ssm(x, bank, core, weights, scan_mode=mode).data
    want = by_hand(x.data, bank, core, weights, scan=_reset_oracle(n))
    assert rel_err(got, want) <= 1e-12
    carried = by_hand(x.data, bank, core, weights)
    assert not np.allclose(got, carried)

    params = {"x": x, "weights.w": weights.w,
              **{f"bank.{k}": v for k, v in bank.parameters().items()},
              **{f"core.{k}": v for k, v in core.parameters().items()}}
    with Tape() as tape:
        loss = tsum(mul(mfil_ssm(x, bank, core, weights, scan_mode=mode),
                        Tensor(readout)))
    grads = tape.gradients(loss, list(params.values()))
    for name, p in params.items():
        numeric = numeric_gradient(oracle, p.data)
        assert grad_close(grads[p].data, numeric), f"{mode}: {name}"
