"""Self-checking suites aggregated behind the ``verify`` subcommand.

Each suite exercises one slice of the system against an independent route:
loop-nest oracles for the vectorized primitives, analytic cases for the
discretization, the kernel form for the model's scan, finite differences for
the gradients, exact linear-algebra identities for the covariance claims,
and structural/shape assertions for the backbone. All randomness is seeded;
a fresh checkout must pass everything.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backbone as bb
from . import reference, theory
from .analysis import (GRADCHECK_TOLERANCE, VERIFICATION_SEEDS, erf,
                       gradcheck_suite)
from .checkpoint import (CheckpointError, load_checkpoint, load_into,
                         save_checkpoint)
from .config import RunConfig
from .reference import (causal_conv, discretize_zoh, lti_kernel, max_err,
                        rel_err)
from .scan import (SOBEL_X, SOBEL_Y, AdaptiveWeights, adaptive_merge,
                   merge_views, stack_scans, unstack_scans)
from .ssm import SsmCore, recurrence, selective_scan
from .tensor import (Tensor, conv2d, depthwise_conv2d, layer_norm, linear,
                     silu, softmax, softplus)
from .train import train_run

__all__ = ["SuiteResult", "SUITES", "run_suites"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    seconds: float = 0.0


def suite_oracles(quick: bool = False) -> SuiteResult:
    """Vectorized primitives against explicit loop-nest oracles (f64)."""
    lines = []
    ok = True
    rng = np.random.default_rng(7)
    cases = 3 if quick else 8
    worst = 0.0
    for _ in range(cases):
        n, ci, co = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
        h, w = rng.integers(3, 7), rng.integers(3, 7)
        kh, kw = rng.integers(1, 4), rng.integers(1, 4)
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x = rng.standard_normal((n, ci, h, w))
        k = rng.standard_normal((co, ci, kh, kw))
        # The convolutions are channel-last; the oracles are NCHW.
        xc = Tensor(x.transpose(0, 2, 3, 1))
        got = conv2d(xc, Tensor(k), stride, pad).data.transpose(0, 3, 1, 2)
        want = reference.conv2d_reference(x, k, stride, pad)
        worst = max_err(worst, rel_err(got, want))
        kd = rng.standard_normal((ci, 1, kh, kw))
        got = depthwise_conv2d(xc, Tensor(kd),
                               stride, pad).data.transpose(0, 3, 1, 2)
        want = reference.depthwise_conv2d_reference(x, kd, stride, pad)
        worst = max_err(worst, rel_err(got, want))
        xm = rng.standard_normal((3, 4))
        wm = rng.standard_normal((5, 4))
        bv = rng.standard_normal(5)
        got = linear(Tensor(xm), Tensor(wm), Tensor(bv)).data
        worst = max_err(worst,
                        rel_err(got, reference.linear_reference(xm, wm, bv)))
        xl = rng.standard_normal((2, 3, 6))
        gam = rng.standard_normal(6)
        bet = rng.standard_normal(6)
        got = layer_norm(Tensor(xl), Tensor(gam), Tensor(bet)).data
        worst = max_err(
            worst, rel_err(got, reference.layer_norm_reference(xl, gam, bet)))
    lines.append(f"loop-nest worst rel: {worst:.3e} (tol 1e-6)")
    ok &= worst <= 1e-6
    s0 = silu(Tensor(np.zeros(1))).data[0]
    sp0 = softplus(Tensor(np.zeros(1))).data[0]
    sm = softmax(Tensor(np.full(4, 3.25)), axis=0).data
    big = softmax(Tensor(np.array([1e4, 1e4 + 1.0])), axis=0).data
    lines.append(f"silu(0) = {s0}, softplus(0) - ln2 = {sp0 - np.log(2):.1e}")
    ok &= s0 == 0.0 and abs(sp0 - np.log(2)) < 1e-12
    ok &= np.allclose(sm, 0.25) and abs(big.sum() - 1.0) <= 1e-6
    return SuiteResult("oracles", bool(ok), lines)


def suite_zoh(quick: bool = False) -> SuiteResult:
    """Discretization: analytic scalar cases, the limit branch, both paths."""
    lines = []
    ok = True
    a_bar, b_bar = discretize_zoh(-1.0, 1.0, np.log(2.0))
    err = max_err(abs(float(a_bar) - 0.5), abs(float(b_bar) - 0.5))
    lines.append(f"scalar case |err|: {err:.2e} (tol 1e-12)")
    ok &= err <= 1e-12
    delta = 1e-12
    a_bar, b_bar = discretize_zoh(np.array([-1.0]), np.array([1.0]), delta)
    err = max_err(abs(float(a_bar[0]) - 1.0),
                  abs(float(b_bar[0]) - delta) / delta)
    lines.append(f"limit branch rel err: {err:.2e} (tol 1e-6)")
    ok &= err <= 1e-6
    rng = np.random.default_rng(3)
    diag = -np.exp(rng.standard_normal(4))
    bvec = rng.standard_normal(4)
    a1, b1 = discretize_zoh(np.diag(diag), bvec.reshape(4, 1), 0.37,
                            diagonal=False)
    a2, b2 = discretize_zoh(diag, bvec, 0.37)
    err = max_err(rel_err(np.diag(a1), a2), rel_err(b1.ravel(), b2))
    lines.append(f"general vs diagonal rel err: {err:.2e} (tol 1e-9)")
    ok &= err <= 1e-9
    try:
        discretize_zoh(np.zeros((2, 2)), np.ones((2, 1)), 1.0,
                       diagonal=False)
        lines.append("singular input not rejected")
        ok = False
    except ValueError:
        lines.append("singular general path rejected: yes")
    return SuiteResult("zoh", bool(ok), lines)


def suite_lti(quick: bool = False) -> SuiteResult:
    """The model's scan recurrence (``ssm.recurrence``) with constant
    delta, B and C equals the kernel form on random diagonal systems."""
    rng = np.random.default_rng(101)
    cases = 20 if quick else 100
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 5))
        length = int(rng.integers(1, 65))
        a = -np.exp(rng.standard_normal(n))
        b = rng.standard_normal(n)
        c = rng.standard_normal(n)
        delta = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
        a_bar, b_bar = discretize_zoh(a, b, delta)
        x = rng.standard_normal(length)
        # One channel, one batch row; the ZOH input weight on the scan
        # side is the one discretize_zoh gives the kernel side.
        y_scan = recurrence(
            x.reshape(1, length, 1), np.full((1, length, 1), delta), a[None],
            np.tile(b, (1, length, 1)), np.tile(c, (1, length, 1)),
            np.zeros(1), exact_input_discretization=True)[0][0, :, 0]
        y_conv = causal_conv(x, lti_kernel(a_bar, b_bar, c, length))
        worst = max_err(worst, rel_err(y_conv, y_scan))
    lines = [f"{cases} systems, worst rel: {worst:.3e} (tol 1e-6)"]
    return SuiteResult("lti", worst <= 1e-6, lines)


def suite_scan(quick: bool = False) -> SuiteResult:
    """Taped scan equals the sequential reference; causality."""
    rng = np.random.default_rng(103)
    cases = 10 if quick else 50
    worst = 0.0
    for i in range(cases):
        bsz = int(rng.integers(1, 3))
        length = int(rng.integers(1, 129))
        ch = int(rng.integers(1, 9))
        nst = int(rng.integers(1, 3))
        core = SsmCore(ch, d_state=nst, rng=np.random.default_rng(1000 + i),
                       dtype="f64",
                       exact_input_discretization=bool(i % 2))
        x = Tensor(rng.standard_normal((bsz, length, ch)))
        fast = selective_scan(x, core).data
        ref = reference.selective_scan_reference(x.data, core)
        worst = max_err(worst, rel_err(fast, ref))
    lines = [f"{cases} cases fast vs reference, worst rel: {worst:.3e} "
             "(tol 1e-5)"]
    ok = worst <= 1e-5
    # Causality: perturbing token t leaves outputs before t bit-identical.
    core = SsmCore(4, d_state=2, rng=np.random.default_rng(5), dtype="f64")
    x = rng.standard_normal((1, 32, 4))
    y0 = selective_scan(Tensor(x), core).data
    x2 = x.copy()
    x2[0, 20] += 1.0
    y1 = selective_scan(Tensor(x2), core).data
    causal = bool(np.array_equal(y0[0, :20], y1[0, :20])
                  and not np.allclose(y0[0, 20:], y1[0, 20:]))
    lines.append(f"causality bit-exact before perturbed token: {causal}")
    ok &= causal
    zeros = selective_scan(Tensor(np.zeros((1, 8, 4))), core).data
    ok &= bool(np.all(zeros == 0.0))
    lines.append(f"zero input gives zero output: {bool(np.all(zeros == 0))}")
    return SuiteResult("scan", bool(ok), lines)


def suite_gradcheck(quick: bool = False) -> SuiteResult:
    seeds = VERIFICATION_SEEDS[:1] if quick else VERIFICATION_SEEDS
    lines = []
    ok = True
    worst = 0.0
    for seed in seeds:
        rep = gradcheck_suite(bb.desk(), seed=seed)
        seed_worst = max_err(*rep.entries.values())
        worst = max_err(worst, seed_worst)
        lines.append(f"seed {seed}: worst rel {seed_worst:.2e} "
                     f"({len(rep.entries)} groups); "
                     f"evaluations: {rep.evaluations()}")
        if not rep.passed:
            ok = False
            for name in rep.failures:
                lines.append(f"  FAILED group {name}: "
                             f"{rep.entries[name]:.3e}")
    lines.append(f"{len(seeds)} seeds, worst rel {worst:.2e} "
                 f"(tol {GRADCHECK_TOLERANCE:.0e})")
    return SuiteResult("gradcheck", bool(ok), lines)


def suite_covariance(quick: bool = False) -> SuiteResult:
    """Reordering vs filtering identities on empirical moments (6x6 grids)."""
    rng = np.random.default_rng(105)
    n_pairs = 4 if quick else 20
    samples = rng.standard_normal((200, 36))
    moments = theory.empirical_moments(samples)
    lines = []
    worst = 0.0
    ok = True
    kernels = [SOBEL_X, SOBEL_Y, rng.standard_normal((3, 3)),
               np.array([[0.7]]), rng.standard_normal((2, 2))]
    for i in range(n_pairs):
        if i % 2 == 0:
            p_i = theory.permutation_matrix(rng.permutation(36))
            p_j = theory.permutation_matrix(rng.permutation(36))
            rep = theory.verify_permutation_identity(p_i, p_j, moments,
                                                     samples)
        else:
            k_i = kernels[i % len(kernels)]
            k_j = kernels[(i + 2) % len(kernels)]
            f_i = theory.conv_as_matrix(k_i, 6, 6,
                                        padding=(k_i.shape[0] - 1) // 2)
            f_j = theory.conv_as_matrix(k_j, 6, 6,
                                        padding=(k_j.shape[0] - 1) // 2)
            rep = theory.verify_filter_identity(f_i, f_j, moments, samples)
        worst = max_err(worst, rep.max_abs_error)
        ok &= rep.passed
    lines.append(f"{n_pairs} operator pairs, worst max-abs: {worst:.3e} "
                 f"(tol {theory.IDENTITY_TOLERANCE:.0e})")
    # Spectrum invariance under reordering vs movement under the Sobel.
    op = theory.conv_as_matrix(SOBEL_X, 6, 6, padding=1)
    perm = theory.permutation_matrix(rng.permutation(36))
    rep = theory.spectrum_report(moments.covariance, perm, op)
    lines.append(f"permutation spectral distance: "
                 f"{rep.permutation_distance:.2e} "
                 f"(tol {theory.SPECTRUM_TOLERANCE:.0e})")
    lines.append(f"sobel spectral distance: {rep.filter_distance:.2e} "
                 "(must exceed 1e-3)")
    ok &= rep.permutation_invariant
    ok &= rep.filter_distance > 1e-3
    # Operator matrices agree with conv2d on random inputs.
    conv_worst = 0.0
    for _ in range(10 if quick else 50):
        z = rng.standard_normal((6, 6))
        via_matrix = op @ z.ravel()
        via_conv = conv2d(Tensor(z[None, :, :, None]),
                          Tensor(SOBEL_X[None, None]), 1, 1).data.ravel()
        conv_worst = max_err(conv_worst,
                             np.max(np.abs(via_matrix - via_conv)))
    lines.append(f"conv-as-matrix vs conv2d max-abs: {conv_worst:.3e} "
                 "(tol 1e-10)")
    ok &= conv_worst <= 1e-10
    sym = moments.symmetry_error()
    mineig = moments.min_eigenvalue()
    lines.append(f"covariance symmetry {sym:.1e}, min eigenvalue "
                 f"{mineig:.3e}")
    ok &= sym <= 1e-10 and mineig >= -1e-8
    ortho = float(np.max(np.abs(perm.T @ perm - np.eye(36))))
    lines.append(f"permutation orthogonality max-abs: {ortho:.1e}")
    ok &= ortho <= 1e-12
    return SuiteResult("covariance", bool(ok), lines)


def suite_structure(quick: bool = False) -> SuiteResult:
    """Variant configs, parameter/flop counts, traces, determinism."""
    lines = []
    ok = True
    t = bb.tiny()
    s = bb.small()
    b = bb.base()
    ok &= t.dims == (94, 188, 376, 752) and t.depths == (1, 3, 8, 2)
    ok &= s.dims == (94, 188, 376, 752) and s.depths == (2, 2, 18, 2)
    ok &= b.dims == (128, 256, 512, 1024) and b.depths == (2, 2, 18, 2)
    lines.append(f"named dims/depths exact: {bool(ok)}")
    for name, cfg in (("tiny", t), ("small", s), ("base", b)):
        n = bb.count_params(cfg)
        ref = bb.REFERENCE_PARAMS[name]
        dev = abs(n - ref) / ref
        lines.append(f"{name} params {n / 1e6:.2f}M vs {ref / 1e6:.1f}M "
                     f"({100 * dev:.1f}% dev, tol 10%)")
        ok &= dev <= 0.10
        fl = bb.count_flops(cfg, 224, 224)
        ref_f = bb.REFERENCE_FLOPS[name]
        dev_f = abs(fl - ref_f) / ref_f
        lines.append(f"{name} flops {fl / 1e9:.2f}G vs {ref_f / 1e9:.1f}G "
                     f"({100 * dev_f:.1f}% dev, tol 20%)")
        ok &= dev_f <= 0.20
    rng = np.random.default_rng(0)
    if not quick:
        tiny_model = bb.build(t.with_overrides(num_classes=10), seed=0)
        x224 = Tensor(rng.standard_normal((1, 3, 224, 224)).astype(
            np.float32), dtype="f32")
        trace224 = [f.shape[1] for f in tiny_model.forward_features(x224)]
        lines.append(f"tiny 224 trace: {trace224}")
        ok &= trace224 == [56, 28, 14, 7, 7]
    desk_cfg = bb.desk()
    model = bb.build(desk_cfg, seed=0)
    tally = sum(p.size for p in model.parameters().values())
    exact = tally == bb.count_params(desk_cfg)
    lines.append(f"desk analytic == instantiated tally: {exact}")
    ok &= exact
    x64 = Tensor(rng.standard_normal((1, 3, 64, 64)).astype(np.float32),
                 dtype="f32")
    trace = [f.shape[1] for f in model.forward_features(x64)]
    lines.append(f"desk 64 trace: {trace}")
    ok &= trace == [16, 8, 4, 2, 2]
    model2 = bb.build(desk_cfg, seed=0)
    p1, p2 = model.parameters(), model2.parameters()
    det = all(np.array_equal(p1[k].data, p2[k].data) for k in p1)
    logits1 = model.forward(x64).data
    logits2 = model2.forward(x64).data
    det &= bool(np.array_equal(logits1, logits2))
    lines.append(f"same-seed build and logits bit-identical: {det}")
    ok &= det
    flat_drop = (bb.count_params(desk_cfg)
                 - bb.count_params(desk_cfg.with_overrides(
                     scan_mode="single_flatten")))
    no_adapt_drop = (bb.count_params(desk_cfg)
                     - bb.count_params(desk_cfg.with_overrides(
                         adaptive_weighting=False)))
    n_blocks = sum(desk_cfg.depths)
    lines.append(f"single_flatten removes {flat_drop} params; "
                 f"no-adaptive removes {no_adapt_drop} "
                 f"(= 4 x {n_blocks} blocks: "
                 f"{no_adapt_drop == 4 * n_blocks})")
    ok &= flat_drop > 0 and no_adapt_drop == 4 * n_blocks
    finite = bool(np.all(np.isfinite(model.forward(Tensor(
        rng.uniform(-3, 3, (2, 3, 64, 64)).astype(np.float32),
        dtype="f32")).data)))
    lines.append(f"logits finite on [-3, 3] inputs: {finite}")
    ok &= finite
    return SuiteResult("structure", bool(ok), lines)


def suite_merge(quick: bool = False) -> SuiteResult:
    """Fusion-weight properties of the model's ``merge_views``: sums, hull,
    uniformity, saturation; its bytes equal the per-map reference."""
    rng = np.random.default_rng(107)
    lines = []
    weights = AdaptiveWeights(4, dtype="f64")
    alphas = weights.alphas().data
    ok = abs(alphas.sum() - 1.0) <= 1e-6 and np.allclose(alphas, 0.25)
    lines.append(f"zero weights give uniform alphas summing to "
                 f"{alphas.sum():.9f}")
    sums = True
    for _ in range(10):
        weights.w.data = 5.0 * rng.standard_normal(4)
        alphas = weights.alphas().data
        sums &= abs(alphas.sum() - 1.0) <= 1e-6 and np.all(alphas > 0)
    lines.append(f"10 random weights give positive alphas summing to 1: "
                 f"{bool(sums)}")
    ok &= sums
    maps = [Tensor(rng.standard_normal((1, 2, 4, 4))) for _ in range(4)]

    def fuse(views):
        return merge_views(stack_scans(*views), weights.alphas(), 2, 4).data
    weights.w.data = rng.standard_normal(4)
    alphas = weights.alphas().data
    ok &= abs(alphas.sum() - 1.0) <= 1e-6 and np.all(alphas > 0)
    fused = fuse(maps)
    per_map = adaptive_merge(unstack_scans(stack_scans(*maps), 2, 4), weights)
    tie = fused.tobytes() == per_map.data.tobytes()
    lines.append(f"merge_views bytes equal the per-map merge: {tie}")
    ok &= tie
    stack = np.stack([m.data for m in maps])
    hull = bool(np.all(fused >= stack.min(axis=0) - 1e-12)
                and np.all(fused <= stack.max(axis=0) + 1e-12))
    lines.append(f"convex hull containment: {hull}")
    ok &= hull
    same = fuse([maps[0]] * 4)
    same_ok = bool(np.allclose(same, maps[0].data, rtol=1e-12, atol=1e-12))
    lines.append(f"same map in gives the same map out: {same_ok}")
    ok &= same_ok
    weights.w.data = np.zeros(4)
    rel = rel_err(fuse(maps), np.mean(stack, axis=0))
    lines.append(f"zero weights give the mean map, rel err {rel:.2e} "
                 "(tol 1e-12)")
    ok &= rel <= 1e-12
    weights.w.data = np.array([50.0, 0.0, 0.0, 0.0])
    rel = rel_err(fuse(maps), maps[0].data)
    lines.append(f"saturation (w0 = 50) rel distance to map 0: {rel:.2e} "
                 "(tol 1e-6)")
    ok &= rel <= 1e-6
    return SuiteResult("merge", bool(ok), lines)


def suite_erf(quick: bool = False) -> SuiteResult:
    """Global coverage of the scanned model vs the bounded conv stack."""
    cfg = bb.desk()
    samples = 4 if quick else 16
    model = bb.build(cfg, seed=0)
    conv = bb.build_conv_baseline(cfg, seed=0)
    cov_model = erf(model, 192, stage=3, samples=samples, seed=0).coverage()
    cov_conv = erf(conv, 192, stage=3, samples=samples, seed=0).coverage()
    lines = [f"desk coverage {cov_model:.4f} (needs >= 0.99), "
             f"conv baseline {cov_conv:.4f} (needs < 0.99)"]
    return SuiteResult("erf", cov_model >= 0.99 and cov_conv < 0.99, lines)


def suite_checkpoint(quick: bool = False) -> SuiteResult:
    lines = []
    ok = True
    model = bb.build(bb.desk(), seed=2)
    params = model.parameters()
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32),
               dtype="f32")
    logits_before = model.forward(x).data.copy()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.mfil"
        save_checkpoint(path, params)
        model2 = bb.build(bb.desk(), seed=77)
        load_into(model2.parameters(), load_checkpoint(path))
        logits_after = model2.forward(x).data
        bitexact = bool(np.array_equal(logits_before, logits_after))
        lines.append(f"round-trip logits bit-identical: {bitexact}")
        ok &= bitexact
        blob = path.read_bytes()
        trunc = Path(tmp) / "trunc.mfil"
        trunc.write_bytes(blob[:len(blob) - 7])
        try:
            load_checkpoint(trunc)
            lines.append("truncated file not rejected")
            ok = False
        except CheckpointError as exc:
            named = "entry '" in str(exc)
            lines.append(f"truncation error names the short entry: {named}")
            ok &= named
    return SuiteResult("checkpoint", bool(ok), lines)


def suite_training(quick: bool = False) -> SuiteResult:
    """Short-budget smoke over the fixed seed list: finite losses,
    determinism of metrics."""
    lines = []
    ok = True
    steps = 12 if quick else 24
    with tempfile.TemporaryDirectory() as tmp:
        for seed in VERIFICATION_SEEDS[:1] if quick else VERIFICATION_SEEDS:
            cfg = RunConfig(steps=steps, seed=seed, checkpoint_interval=0,
                            out_dir=str(Path(tmp) / f"s{seed}"))
            res = train_run(cfg)
            rows = res.metrics_path.read_text().splitlines()
            losses = [float(r.split(",")[1]) for r in rows[1:]]
            finite = all(np.isfinite(losses))
            lines.append(f"seed {seed}: {steps} steps, losses finite: "
                         f"{finite}, final acc {res.final_acc:.3f}")
            ok &= finite
        cfg = RunConfig(steps=steps, seed=3, checkpoint_interval=0,
                        out_dir=str(Path(tmp) / "det1"))
        r1 = train_run(cfg)
        r2 = train_run(cfg.with_overrides(out_dir=str(Path(tmp) / "det2")))
        identical = (r1.metrics_path.read_bytes()
                     == r2.metrics_path.read_bytes())
        lines.append(f"same seed twice, metrics bit-identical: {identical}")
        ok &= identical
    return SuiteResult("training", bool(ok), lines)


SUITES = {
    "oracles": suite_oracles,
    "zoh": suite_zoh,
    "lti": suite_lti,
    "scan": suite_scan,
    "gradcheck": suite_gradcheck,
    "covariance": suite_covariance,
    "structure": suite_structure,
    "merge": suite_merge,
    "erf": suite_erf,
    "checkpoint": suite_checkpoint,
    "training": suite_training,
}


def run_suites(names=None, quick: bool = False,
               log=print) -> list[SuiteResult]:
    selected = list(SUITES) if not names else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results = []
    for name in selected:
        start = time.perf_counter()
        try:
            result = SUITES[name](quick=quick)
        except Exception as exc:  # a crash is a failure, not an abort
            result = SuiteResult(name, False,
                                 [f"exception: {type(exc).__name__}: {exc}"])
        result.seconds = time.perf_counter() - start
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        log(f"[{result.name}] {status} ({result.seconds:.1f}s)")
        for line in result.lines:
            log(f"    {line}")
    return results
