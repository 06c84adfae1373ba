import numpy as np
import pytest

from mfil import backbone as bb
from mfil.scan import SCAN_MODES
from mfil.tensor import Tape, Tensor, flop_counter, softmax, tsum


def _input(rng, size, batch=1, dtype=np.float32):
    return Tensor(rng.standard_normal((batch, 3, size, size)).astype(dtype),
                  dtype="f32" if dtype == np.float32 else "f64")


def test_named_variant_configurations():
    t = bb.tiny()
    assert t.dims == (94, 188, 376, 752)
    assert t.depths == (1, 3, 8, 2)
    assert t.num_classes == 1000
    s = bb.small()
    assert s.dims == (94, 188, 376, 752)
    assert s.depths == (2, 2, 18, 2)
    b = bb.base()
    assert b.dims == (128, 256, 512, 1024)
    assert b.depths == (2, 2, 18, 2)
    d = bb.desk()
    assert d.dims == (8, 16, 32, 64)
    assert d.depths == (1, 1, 2, 1)
    for cfg in (t, s, b, d):
        assert all(b2 == 2 * a for a, b2 in zip(cfg.dims, cfg.dims[1:]))


def test_config_validation():
    with pytest.raises(ValueError, match="increasing"):
        bb.VariantConfig((8, 8, 16, 32), (1, 1, 1, 1))
    with pytest.raises(ValueError, match="depths"):
        bb.VariantConfig((8, 16, 32, 64), (1, 0, 1, 1))
    with pytest.raises(ValueError, match="scan_mode"):
        bb.VariantConfig((8, 16, 32, 64), (1, 1, 1, 1), scan_mode="spiral")
    for rate in (-0.5, 1.0, 1.5):
        with pytest.raises(ValueError, match="drop_path"):
            bb.desk(drop_path=rate)
    with pytest.raises(ValueError, match="ffn_ratio"):
        bb.desk(ffn_ratio=0.0)


@pytest.mark.parametrize("num_classes", [0, -1])
def test_config_rejects_num_classes_below_one(num_classes):
    # 0 would build [B, 0] logits, -1 fail later inside numpy.
    with pytest.raises(ValueError,
                       match=rf"num_classes must be >= 1, got {num_classes}"):
        bb.desk(num_classes=num_classes)


def _trace(model, images):
    """Spatial extents of the five feature maps."""
    return [f.shape[1] for f in model.forward_features(images)]


def _block(model, s, i):
    """The ``MfilBlock`` of stages.s.blocks.i, owner of its mixer segment
    (the first segment of that name)."""
    name = f"stages.{s}.blocks.{i}"
    return next(seg for seg in model.segments if seg.name == name).run.__self__


def test_desk_spatial_traces(rng):
    model = bb.build(bb.desk(), seed=0)
    assert _trace(model, _input(rng, 64)) == [16, 8, 4, 2, 2]
    assert _trace(model, _input(rng, 96)) == [24, 12, 6, 3, 3]


def test_halving_law_and_divisibility(rng):
    model = bb.build(bb.desk(), seed=0)
    assert _trace(model, _input(rng, 128)) == [32, 16, 8, 4, 4]
    with pytest.raises(ValueError, match="divisible"):
        model.forward(_input(rng, 48))
    with pytest.raises(ValueError, match="images"):
        model.forward(Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32),
                             dtype="f32"))


def test_logits_shape_and_softmax_rows(rng):
    model = bb.build(bb.desk(num_classes=7), seed=1)
    logits = model.forward(_input(rng, 64, batch=3))
    assert logits.shape == (3, 7)
    probs = softmax(logits, axis=1).data
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_build_determinism_params_and_logits(rng):
    cfg = bb.desk()
    m1 = bb.build(cfg, seed=42)
    m2 = bb.build(cfg, seed=42)
    p1, p2 = m1.parameters(), m2.parameters()
    assert list(p1) == list(p2)
    for k in p1:
        assert np.array_equal(p1[k].data, p2[k].data), k
    x = _input(rng, 64)
    assert np.array_equal(m1.forward(x).data, m2.forward(x).data)
    m3 = bb.build(cfg, seed=43)
    assert not np.array_equal(m3.parameters()["stem.conv.weight"].data,
                              m1.parameters()["stem.conv.weight"].data)


_BLOCK_PARAMS = (
    "norm1.gamma", "norm1.beta", "in_proj.weight", "branch_conv.weight",
    "bank.refine_h", "bank.refine_v", "bank.dyn_depthwise",
    "bank.dyn_pointwise", "core.A_log", "core.dt_bias", "core.x_proj_weight",
    "core.dt_proj_weight", "core.D_skip", "weights.w", "out_proj.weight",
    "norm2.gamma", "norm2.beta", "ffn.fc1.weight", "ffn.fc1.bias",
    "ffn.dw.weight", "ffn.fc2.weight", "ffn.fc2.bias")


def test_parameter_registry_names_and_order():
    """Checkpoints and AdamW state are keyed by these names, in this order."""
    expected = ["stem.conv.weight", "stem.norm.gamma", "stem.norm.beta"]
    for s, depth in enumerate((1, 1, 2, 1)):
        for i in range(depth):
            expected += [f"stages.{s}.blocks.{i}.{k}" for k in _BLOCK_PARAMS]
        if s < 3:
            expected += [f"downsample.{s}.conv.weight",
                         f"downsample.{s}.norm.gamma",
                         f"downsample.{s}.norm.beta"]
    expected += ["head.norm.gamma", "head.norm.beta", "head.fc.weight",
                 "head.fc.bias"]
    model = bb.build(bb.desk(), seed=0)
    assert list(model.parameters()) == expected
    owned = [n for seg in model.segments for n in seg.parameters()]
    assert owned == expected
    assert all(n.startswith(seg.name + ".") for seg in model.segments
               for n in seg.parameters())


@pytest.mark.parametrize("mode", SCAN_MODES)
def test_cached_segment_inputs_reproduce_forward(rng, mode):
    """Perturbing a parameter of segment k leaves inputs 0..k as they were,
    and logits from the cached input of segment k equal ``forward``'s."""
    model = bb.build(bb.desk(scan_mode=mode), seed=5, dtype="f64")
    x = _input(rng, 32, dtype=np.float64)
    cached = model.segment_inputs(x)
    assert len(cached) == len(model.segments)
    base = model.forward(x).data.tobytes()
    changed = 0
    for k, seg in enumerate(model.segments):
        for name, p in seg.parameters().items():
            flat = p.data.reshape(-1)
            i = int(rng.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + 0.25
            try:
                inputs = model.segment_inputs(x)
                want = model.forward(x).data.tobytes()
                got = model.forward_from(k, cached[k]).data.tobytes()
            finally:
                flat[i] = orig
            assert got == want, name
            for j in range(k + 1):
                assert inputs[j].data.tobytes() == \
                    cached[j].data.tobytes(), (name, j)
            changed += want != base
    assert changed > len(model.parameters()) // 2  # perturbations are live


def test_train_forward_equals_chained_block_forwards(rng):
    """With drop path on, ``forward`` over the split segments equals the
    stem, each whole ``MfilBlock.forward`` and the downsamples and head
    chained by hand: the two halves draw their masks in the block's order."""
    model = bb.build(bb.desk(drop_path=0.1), seed=6)
    x = _input(rng, 32, batch=8)
    got_rng = np.random.default_rng(11)
    got = model.forward(x, train=True, rng=got_rng).data

    want_rng = np.random.default_rng(11)
    by_name = {seg.name: seg for seg in model.segments}
    y = by_name["stem"].run(x, True, want_rng)
    for s, depth in enumerate(model.config.depths):
        for i in range(depth):
            y = _block(model, s, i).forward(y, train=True, rng=want_rng)
        if s < 3:
            y = by_name[f"downsample.{s}"].run(y, True, want_rng)
    for name in ("head.norm", "head.fc"):
        y = by_name[name].run(y, True, want_rng)
    assert got.tobytes() == y.data.tobytes()
    assert got_rng.random() == want_rng.random()
    assert got.tobytes() != model.forward(x).data.tobytes()  # masks drawn


@pytest.mark.parametrize("segment_reset", [False, True])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("mode", SCAN_MODES)
def test_batch_order_equivariance(rng, mode, dtype, segment_reset):
    """Permuting a batch permutes the logits byte for byte: no op mixes or
    orders samples."""
    model = bb.build(bb.desk(scan_mode=mode, segment_reset=segment_reset),
                     seed=7, dtype=dtype)
    x = _input(rng, 32, batch=4,
               dtype=np.float32 if dtype == "f32" else np.float64)
    perm = np.array([2, 0, 3, 1])
    permuted = model.forward(Tensor(x.data[perm], dtype=dtype)).data
    assert permuted.tobytes() == model.forward(x).data[perm].tobytes()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("mode", SCAN_MODES)
def test_train_mode_without_drop_path_equals_eval_mode(rng, mode, dtype):
    """With drop-path 0, a train-mode forward runs the eval-mode ops: the
    logits are byte-identical, taped or not."""
    model = bb.build(bb.desk(scan_mode=mode, drop_path=0.0), seed=3,
                     dtype=dtype)
    x = _input(rng, 32, batch=2,
               dtype=np.float32 if dtype == "f32" else np.float64)
    want = model.forward(x).data.tobytes()
    assert model.forward(x, train=True,
                         rng=np.random.default_rng(0)).data.tobytes() == want
    with Tape():
        taped = model.forward(x, train=True, rng=np.random.default_rng(0))
    assert taped.data.tobytes() == want


def test_logits_finite_on_bounded_inputs(rng):
    model = bb.build(bb.desk(), seed=2)
    x = Tensor(rng.uniform(-3, 3, (2, 3, 64, 64)).astype(np.float32),
               dtype="f32")
    assert np.all(np.isfinite(model.forward(x).data))


# ---------------------------------------------------------------------------
# parameter counts

@pytest.mark.parametrize("cfg", [
    bb.desk(),
    bb.desk().with_overrides(d_state=2),
    bb.desk().with_overrides(ssm_ratio=2.0),
    bb.desk().with_overrides(scan_mode="single_flatten"),
    bb.desk().with_overrides(scan_mode="cross_4dir"),
    bb.desk().with_overrides(scan_mode="original_plus_one_filter"),
    bb.desk().with_overrides(adaptive_weighting=False),
    bb.desk(num_classes=11),
])
def test_analytic_count_equals_instantiated_tally(cfg):
    model = bb.build(cfg, seed=0)
    assert sum(p.size for p in model.parameters().values()) == \
        bb.count_params(cfg)


def test_published_parameter_counts_within_tolerance():
    for name, ref in bb.REFERENCE_PARAMS.items():
        n = bb.count_params(bb.VARIANTS[name]())
        assert abs(n - ref) / ref <= 0.10, (name, n, ref)


def test_published_flop_counts_within_tolerance():
    for name, ref in bb.REFERENCE_FLOPS.items():
        f = bb.count_flops(bb.VARIANTS[name](), 224, 224)
        assert abs(f - ref) / ref <= 0.20, (name, f, ref)


def test_ablation_parameter_deltas():
    cfg = bb.desk()
    full = bb.count_params(cfg)
    flat = bb.count_params(cfg.with_overrides(scan_mode="single_flatten"))
    no_adapt = bb.count_params(cfg.with_overrides(adaptive_weighting=False))
    assert flat < full  # filter bank removed
    assert full - no_adapt == 4 * sum(cfg.depths)


# ---------------------------------------------------------------------------
# flops

@pytest.mark.parametrize("overrides,size,batch", [
    *(pytest.param({"scan_mode": m}, 32, 32, id=m) for m in SCAN_MODES),
    *(pytest.param({"scan_mode": m}, 64, 1, id=f"{m}-64x64-b1")
      for m in SCAN_MODES),
    pytest.param({"d_state": 2}, 32, 3, id="d_state_2"),
    pytest.param({"ssm_ratio": 1.5}, 32, 3, id="ssm_ratio_1.5"),
    pytest.param({"ssm_ratio": 2.0}, 32, 3, id="ssm_ratio_2"),
    pytest.param({"ffn_ratio": 2.5}, 32, 3, id="ffn_ratio_2.5"),
    pytest.param({"adaptive_weighting": False}, 32, 3, id="no_adaptive"),
    pytest.param({"exact_input_discretization": True, "segment_reset": True},
                 32, 3, id="exact_segment_reset"),
])
def test_count_flops_exact_for_a_batch(rng, overrides, size, batch):
    cfg = bb.desk(**overrides)
    model = bb.build(cfg, seed=0)
    with flop_counter() as fc:
        model.forward(_input(rng, size, batch=batch))
    assert fc.total == bb.count_flops(cfg, size, size, batch=batch)


@pytest.mark.parametrize("overrides", [
    *({"scan_mode": m} for m in SCAN_MODES),
    {"exact_input_discretization": True, "segment_reset": True,
     "d_state": 2}], ids=[*SCAN_MODES, "exact_segment_reset"])
def test_backward_tallies_no_flops(rng, overrides):
    """The maps a backward rebuilds (the ConvFFN's, the scan's step sizes
    and delta, the first-stage filter maps) are not counted again: a flop
    counter open around a taped forward and its sweep reads the forward's
    own total, which is ``count_flops``."""
    cfg = bb.desk(**overrides)
    model = bb.build(cfg, seed=0)
    images = _input(rng, 32, batch=2)
    with flop_counter() as forward:
        model.forward(images)
    with flop_counter() as step:
        with Tape() as tape:
            loss = tsum(model.forward(images))
        grads = tape.gradients(loss, list(model.parameters().values()))
    assert len(grads) == len(model.parameters())
    assert step.total == forward.total == bb.count_flops(cfg, 32, 32,
                                                         batch=2)


def test_doubling_height_doubles_conv_flops():
    cfg = bb.desk()
    base = bb.count_flops(cfg, 64, 64)
    doubled = bb.count_flops(cfg, 128, 64)
    assert abs(doubled / base - 2.0) <= 0.05


def test_count_flops_divisibility():
    with pytest.raises(ValueError, match="divisible"):
        bb.count_flops(bb.desk(), 100, 100)


# ---------------------------------------------------------------------------
# conv baseline

def test_config_flags_propagate_to_scan(rng):
    cfg = bb.desk().with_overrides(exact_input_discretization=True,
                                   segment_reset=True, d_state=2)
    model = bb.build(cfg, seed=3)
    blk = _block(model, 0, 0)
    assert blk.core.exact_input_discretization
    assert blk.core.segment_reset
    assert blk.core.d_state == 2
    x = _input(rng, 64)
    logits = model.forward(x)
    assert np.all(np.isfinite(logits.data))
    # Same parameters, same input: only the per-segment reset differs. The
    # effect is tiny at init scale, so assert bitwise inequality here (the
    # reset semantics themselves are pinned down in the scan tests).
    plain = bb.build(bb.desk().with_overrides(d_state=2,
                                              exact_input_discretization=True),
                     seed=3)
    assert not np.array_equal(logits.data, plain.forward(x).data)


def test_conv_baseline_shapes_and_determinism(rng):
    cfg = bb.desk()
    m1 = bb.build_conv_baseline(cfg, seed=0)
    m2 = bb.build_conv_baseline(cfg, seed=0)
    feats = m1.forward_features(_input(rng, 64))
    assert [f.shape[1] for f in feats] == [16, 8, 4, 2, 2]
    for k, p in m1.parameters().items():
        assert np.array_equal(p.data, m2.parameters()[k].data)


def test_conv_baseline_parameter_names_and_order():
    """The baseline is a segment list of the one ``Backbone``: its registry
    is the stem, then each stage's convolutions and its downsample."""
    model = bb.build_conv_baseline(bb.desk(), seed=0)
    want = ["stem.conv.weight"]
    for s, depth in enumerate(bb.desk().depths):
        want += [f"stages.{s}.convs.{i}.weight" for i in range(depth)]
        if s < 3:
            want.append(f"downsample.{s}.conv.weight")
    assert list(model.parameters()) == want
    assert isinstance(model, bb.Backbone)


def test_layout_flip_budget(rng):
    """A taped desk forward is channel-last from the stem to the head: it
    records no transpose in any scan mode (the stem's image transpose is
    untaped, as images need no gradient), and stays within each mode's
    node budget: the scan of every mode, views to fused map, is one node,
    and so is the gate."""
    node_budget = {"multi_filter": 76, "single_flatten": 71,
                   "cross_4dir": 76, "original_plus_one_filter": 76}
    for mode in SCAN_MODES:
        model = bb.build(bb.desk(scan_mode=mode), seed=0)
        with Tape() as tape:
            model.forward(_input(rng, 32))
        flips = sum(node.name == "transpose" for node in tape.nodes)
        assert flips == 0, f"{mode}: {flips} transposes"
        assert len(tape.nodes) <= node_budget[mode], \
            f"{mode}: {len(tape.nodes)} nodes"
