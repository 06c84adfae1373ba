import dataclasses

import numpy as np
import pytest

from conftest import rel_err
from mfil import analysis
from mfil import backbone as bb
from mfil import tensor as T
from mfil.analysis import (ErfMap, erf, gradcheck_suite, saliency,
                           stacked_stencil_losses)
from mfil.imageio import write_matrix_text, write_pgm
from mfil.reference import stencil_points
from mfil.scan import SCAN_MODES
from mfil.tensor import Tape, Tensor


def test_erf_map_invariants(rng):
    grid = np.abs(rng.standard_normal((8, 8)))
    grid /= grid.max()
    m = ErfMap(grid)
    assert 0.0 <= m.coverage() <= 1.0
    with pytest.raises(ValueError, match="non-negative"):
        ErfMap(-grid)


def test_erf_normalized_max_one(rng):
    model = bb.build(bb.desk(), seed=0)
    m = erf(model, 64, stage=3, samples=2, seed=0)
    assert abs(m.grid.max() - 1.0) <= 1e-12
    assert m.grid.shape == (64, 64)


def test_erf_stage_range(rng):
    model = bb.build(bb.desk(), seed=0)
    with pytest.raises(ValueError, match="stage"):
        erf(model, 64, stage=9, samples=1)
    with pytest.raises(ValueError, match="samples"):
        erf(model, 64, stage=3, samples=0)


def test_conv_baseline_support_is_bounded(rng):
    """Plain 3x3 conv blocks give a finite sensitivity footprint.

    Composing the stem, per-stage convolutions and downsamplers for the desk
    depths bounds the center unit's input support at 184 pixels on a side,
    so cells outside that box are exactly zero and coverage cannot reach
    99% on a 192-pixel input.
    """
    conv = bb.build_conv_baseline(bb.desk(), seed=0)
    m = erf(conv, 192, stage=3, samples=2, seed=0)
    nz_rows = np.where(m.grid.any(axis=1))[0]
    nz_cols = np.where(m.grid.any(axis=0))[0]
    assert nz_rows.max() - nz_rows.min() + 1 <= 184
    assert nz_cols.max() - nz_cols.min() + 1 <= 184
    assert m.coverage() < 0.99


def test_erf_runs_a_conv_baseline_in_its_own_dtype():
    """An f64 baseline is probed with f64 images: its map is the f64
    gradient's, not that of f32 images."""
    conv = bb.build_conv_baseline(bb.desk(), seed=0, dtype="f64")
    assert conv.dtype == "f64"
    acc = np.zeros((32, 32))
    for s in range(2):
        img = np.random.default_rng(s).standard_normal((1, 3, 32, 32))
        x = Tensor(img, dtype="f64", grad_enabled=True)
        with Tape() as tape:
            fmap = conv.forward_features(x)[1]
            center = T.slice_axis(T.slice_axis(fmap, 1, 2, 3), 2, 2, 3)
            grads = tape.gradients(T.tsum(center), [x])
        acc += np.abs(grads[x].data[0]).sum(axis=0)
    got = erf(conv, 32, stage=1, samples=2, seed=0).grid
    assert np.max(np.abs(got - acc / acc.max())) <= 1e-12


@pytest.mark.parametrize("build", [bb.build, bb.build_conv_baseline],
                         ids=["desk", "conv_baseline"])
def test_erf_walks_the_network_once_per_sample(monkeypatch, build):
    """The feature count comes from the segment list, so ``erf`` runs no
    forward beyond the ``samples`` taped ones."""
    model = build(bb.desk(), seed=0)
    calls = []
    forward_features = bb.Backbone.forward_features

    def counted(self, images):
        calls.append(images.shape)
        return forward_features(self, images)
    monkeypatch.setattr(bb.Backbone, "forward_features", counted)
    erf(model, 32, stage=4, samples=3, seed=0)
    assert calls == [(1, 3, 32, 32)] * 3
    with pytest.raises(ValueError, match="stage"):
        erf(model, 32, stage=5, samples=1)
    assert len(calls) == 3


def test_desk_erf_is_global(rng):
    model = bb.build(bb.desk(), seed=0)
    m = erf(model, 192, stage=3, samples=4, seed=0)
    assert m.coverage() >= 0.99


def test_erf_deterministic_across_worker_counts(rng, monkeypatch):
    model = bb.build(bb.desk(), seed=0)
    monkeypatch.setenv("MFIL_THREADS", "1")
    serial = erf(model, 64, stage=3, samples=4, seed=3).grid
    monkeypatch.setenv("MFIL_THREADS", "4")
    parallel = erf(model, 64, stage=3, samples=4, seed=3).grid
    assert np.array_equal(serial, parallel)
    monkeypatch.setenv("MFIL_THREADS", "zebra")
    with pytest.raises(ValueError, match="MFIL_THREADS"):
        analysis.max_worker_threads()


def test_erf_flip_conjugation_on_symmetrized_conv_fixture(rng):
    """Horizontally symmetric kernels make the conv stack flip-equivariant.

    Measured at 96 input (odd 3x3 final grid, so the probed center is a
    fixed point of the flip), the sensitivity map of flipped inputs is the
    flip of the original map.
    """
    conv = bb.build_conv_baseline(bb.desk(), seed=1)
    for p in conv.parameters().values():
        p.data = 0.5 * (p.data + p.data[..., ::-1])

    def erf_with_inputs(flip: bool) -> np.ndarray:
        acc = np.zeros((96, 96))
        for s in range(4):
            lrng = np.random.default_rng(50 + s)
            img = lrng.standard_normal((1, 3, 96, 96)).astype(np.float32)
            if flip:
                img = img[:, :, :, ::-1].copy()
            x = Tensor(img, dtype="f32", grad_enabled=True)
            with Tape() as tape:
                feats = conv.forward_features(x)
                fmap = feats[3]
                center = T.slice_axis(T.slice_axis(fmap, 1, 1, 2), 2, 1, 2)
                grads = tape.gradients(T.tsum(center), [x])
            acc += np.abs(grads[x].data[0]).sum(axis=0)
        return acc / 4.0

    base = erf_with_inputs(False)
    conj = erf_with_inputs(True)
    assert rel_err(conj, base[:, ::-1]) <= 1e-5


# ---------------------------------------------------------------------------
# saliency

def test_saliency_nonnegative_and_shaped(rng):
    model = bb.build(bb.desk(), seed=0)
    img = Tensor(rng.standard_normal((3, 64, 64)).astype(np.float32),
                 dtype="f32")
    s = saliency(model, img, class_index=1)
    assert s.shape == (64, 64)
    assert np.all(s >= 0.0)
    with pytest.raises(IndexError):
        saliency(model, img, class_index=99)


def test_saliency_matches_finite_differences_at_pixels(rng):
    model = bb.build(bb.desk(), seed=0, dtype="f32")
    img = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    x = Tensor(img, dtype="f32", grad_enabled=True)
    with Tape() as tape:
        logits = model.forward(x)
        score = T.tsum(T.slice_axis(logits, 1, 2, 3))
        grads = tape.gradients(score, [x])
    g = grads[x].data
    h = 1e-2  # f32 forward noise limits the usable step
    for _ in range(5):
        c = int(rng.integers(0, 3))
        i = int(rng.integers(0, 64))
        j = int(rng.integers(0, 64))
        pert = img.copy()
        pert[0, c, i, j] += h
        fp = float(model.forward(Tensor(pert, dtype="f32")).data[0, 2])
        pert[0, c, i, j] -= 2 * h
        fm = float(model.forward(Tensor(pert, dtype="f32")).data[0, 2])
        numeric = (fp - fm) / (2 * h)
        diff = abs(numeric - g[0, c, i, j])
        # 2e-5 is the f32 central-difference noise floor at this step; a
        # wrong backward rule errs at gradient scale, orders above it.
        assert diff <= 2e-5 or \
            diff / max(abs(numeric), abs(g[0, c, i, j])) <= 1e-3


def test_class_weight_permutation_permutes_saliency(rng):
    model = bb.build(bb.desk(num_classes=4), seed=3)
    img = Tensor(rng.standard_normal((3, 64, 64)).astype(np.float32),
                 dtype="f32")
    before = [saliency(model, img, k) for k in range(4)]
    perm = np.array([2, 0, 3, 1])
    params = model.parameters()
    for name in ("head.fc.weight", "head.fc.bias"):
        params[name].data = params[name].data[perm]
    for new_idx, old_idx in enumerate(perm):
        after = saliency(model, img, new_idx)
        assert np.array_equal(after, before[old_idx])


# ---------------------------------------------------------------------------
# gradcheck suite

def test_gradcheck_suite_passes_on_desk():
    rep = gradcheck_suite(bb.desk(), seed=1)
    assert rep.passed, rep.failures
    assert max(rep.entries.values()) <= 1e-4


def test_gradcheck_covers_registry_exactly_once():
    rep = gradcheck_suite(bb.desk(), seed=2)
    registry = set(bb.build(bb.desk(), seed=2).parameters())
    assert set(rep.entries) == registry


def test_gradcheck_reports_adaptive_weights_alive():
    rep = gradcheck_suite(bb.desk(), seed=1)
    w_groups = [k for k in rep.grad_norms if k.endswith("weights.w")]
    assert w_groups
    assert all(rep.grad_norms[k] > 0 for k in w_groups)


def test_gradcheck_reruns_the_whole_network_only_for_stem_groups(
        monkeypatch):
    calls = []
    forward = bb.Backbone.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)
    monkeypatch.setattr(bb.Backbone, "forward", counted)
    rep = gradcheck_suite(bb.desk(), seed=3)
    # The taped pass, then four evaluations per checked element of the
    # three stem groups (at most two elements each).
    assert len(calls) == 1 + rep.full_evaluations <= 1 + 4 * 3 * 2
    assert rep.cached_evaluations > 30 * rep.full_evaluations
    assert rep.evaluations() == (
        f"{rep.full_evaluations} full, {rep.cached_evaluations} from "
        "cached segment inputs")


def _stencil_setup(scan_mode="multi_filter", seed=4):
    model = bb.build(bb.desk(scan_mode=scan_mode), seed=seed, dtype="f64")
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((1, 3, 32, 32)), dtype="f64")
    readout = rng.standard_normal((1, model.config.num_classes))
    return model, model.segment_inputs(x), readout


# Largest |stacked - B=1| loss measured over every group of the desk model
# (seeds 1 and 2, all four scan modes): 8.6e-16. Only the row count some
# BLAS calls see differs.
STACKED_LOSS_ATOL = 2e-15


@pytest.mark.parametrize("scan_mode", SCAN_MODES)
@pytest.mark.parametrize("segment,group", [
    ("stages.1.blocks.0", "core.x_proj_weight"),
    ("stages.1.blocks.0", "ffn.fc2.bias"),
    ("downsample.1", "conv.weight"),
    ("head.norm", "gamma"),
    ("head.fc", "weight"),
])
def test_stacked_stencil_losses_match_batch_one_losses(scan_mode, segment,
                                                       group):
    model, inputs, readout = _stencil_setup(scan_mode)
    # A block's two halves share its name; take the one owning the group.
    k = next(k for k, seg in enumerate(model.segments)
             if seg.name == segment and group in seg.params)
    flat = model.segments[k].params[group].data.reshape(-1)
    elements = [0, flat.size // 2, flat.size - 1]
    stacked = stacked_stencil_losses(model, k, inputs[k], flat, elements,
                                     1e-4, readout)
    for i, row in zip(elements, stacked):
        orig = flat[i]
        single = []
        for v in stencil_points(orig, 1e-4):
            flat[i] = v
            logits = model.forward_from(k, inputs[k]).data
            single.append(float(np.sum(logits * readout)))
        flat[i] = orig
        assert np.max(np.abs(np.subtract(row, single))) <= STACKED_LOSS_ATOL


def test_stacked_stencil_losses_restore_parameters_when_a_segment_raises():
    model, inputs, readout = _stencil_setup()
    k = [seg.name for seg in model.segments].index("stages.2.blocks.0")
    before = {n: p.data.tobytes() for n, p in model.parameters().items()}
    segment = model.segments[k]
    calls = []

    def run(x, train, rng):
        calls.append(1)
        if len(calls) == 6:  # second element, second stencil point
            raise T.NonFiniteError("segment output")
        return segment.run(x, train, rng)
    model.segments[k] = dataclasses.replace(segment, run=run)
    flat = segment.params["core.dt_bias"].data.reshape(-1)
    with pytest.raises(T.NonFiniteError):
        stacked_stencil_losses(model, k, inputs[k], flat, [0, 1], 1e-4,
                               readout)
    assert len(calls) == 6
    assert {n: p.data.tobytes()
            for n, p in model.parameters().items()} == before


def test_gradcheck_batches_each_group_behind_one_forward_from(monkeypatch):
    """Segment k runs once per stencil point, then one forward_from(k + 1).

    Runs inside ``forward``, ``forward_from`` and ``segment_inputs`` are
    not logged; ``forward`` (the taped pass, the stem groups) logs as
    forward_from(0).
    """
    events, depth = [], [0]

    def nested(method, log=None):
        def wrapper(self, *args, **kwargs):
            if log is not None and not depth[0]:
                events.append(("from", log(*args)))
            depth[0] += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper
    monkeypatch.setattr(bb.Backbone, "forward_from",
                        nested(bb.Backbone.forward_from, lambda k, *rest: k))
    monkeypatch.setattr(bb.Backbone, "segment_inputs",
                        nested(bb.Backbone.segment_inputs))

    def build(*args, **kwargs):
        model = bb.build(*args, **kwargs)
        for idx, seg in enumerate(model.segments):
            def run(x, train, rng, idx=idx, orig=seg.run):
                if not depth[0]:
                    events.append(("run", idx))
                return orig(x, train, rng)
            model.segments[idx] = dataclasses.replace(seg, run=run)
        return model
    monkeypatch.setattr(analysis, "build", build)
    rep = gradcheck_suite(bb.desk(), seed=3)

    groups, runs = [], []
    for kind, idx in events:
        if kind == "run":
            runs.append(idx)
        elif idx > 0:
            groups.append((runs, idx))
            runs = []
        else:
            assert runs == []
    assert runs == []
    model = bb.build(bb.desk(), seed=3)
    assert len(groups) == sum(len(seg.params)
                              for seg in model.segments[1:])
    for runs, k in groups:
        assert len(runs) in (4, 8) and set(runs) == {k - 1}
    assert sum(len(runs) for runs, _ in groups) == rep.cached_evaluations


def test_gradcheck_corrupted_backward_names_offenders(monkeypatch):
    """Negative control: a wrong derivative must fail loudly."""
    original = T._silu_grad_np
    monkeypatch.setattr(T, "_silu_grad_np",
                        lambda x, s: 1.01 * original(x, s))
    rep = gradcheck_suite(bb.desk(), seed=1)
    assert not rep.passed
    assert rep.failures  # offending groups are named
    assert all(rep.entries[name] > analysis.GRADCHECK_TOLERANCE
               for name in rep.failures)


# ---------------------------------------------------------------------------
# artifact emission

def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"P5":
            raise ValueError(f"not a binary PGM: magic {magic!r}")
        line = f.readline()
        while line.startswith(b"#"):
            line = f.readline()
        w, h = (int(v) for v in line.split())
        maxval = int(f.readline())
        data = np.frombuffer(f.read(w * h), dtype=np.uint8)
    return data.reshape(h, w).astype(np.float64) / maxval


def test_pgm_round_trip_and_max_pixel(rng, tmp_path):
    grid = np.abs(rng.standard_normal((10, 12)))
    grid /= grid.max()
    path = tmp_path / "map.pgm"
    write_pgm(path, grid)
    back = read_pgm(path)
    assert back.shape == (10, 12)
    assert back.max() == 1.0  # quantized max pixel is 255/255
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n12 10\n255\n")
    assert max(raw[len(b"P5\n12 10\n255\n"):]) == 255


def test_matrix_text_output(rng, tmp_path):
    grid = rng.standard_normal((3, 4))
    path = tmp_path / "map.txt"
    write_matrix_text(path, grid)
    loaded = np.loadtxt(path)
    assert np.allclose(loaded, grid, atol=1e-7)
