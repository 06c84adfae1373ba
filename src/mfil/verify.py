"""Self-checking suites aggregated behind the ``verify`` subcommand.

Each suite exercises one slice of the system against an independent route:
loop-nest oracles for the vectorized primitives, analytic cases for the
discretization, the kernel form for the model's scan, finite differences for
the gradients, exact linear-algebra identities for the covariance claims,
and structural/shape assertions for the backbone. All randomness is seeded;
a fresh checkout must pass everything.

Each suite returns one ``reference.Check`` per verdict and passes when
every check does. A verdict owned by another module comes from it as a
``Check``, or is held to that module's tolerance.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import backbone as bb
from . import reference, theory
from .analysis import (GRADCHECK_TOLERANCE, VERIFICATION_SEEDS, erf,
                       gradcheck_suite)
from .checkpoint import (CheckpointError, load_checkpoint, load_into,
                         save_checkpoint)
from .config import RunConfig
from .reference import (Check, causal_conv, discretize_zoh, lti_kernel,
                        max_err, rel_err)
from .scan import (SOBEL_X, SOBEL_Y, AdaptiveWeights, adaptive_merge,
                   merge_views, stack_scans, unstack_scans)
from .ssm import SsmCore, recurrence, selective_scan
from .tensor import (Tensor, conv2d, depthwise_conv2d, layer_norm, linear,
                     silu, softmax, softplus)
from .train import train_run

__all__ = ["SuiteResult", "SUITES", "run_suites"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: list[Check]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def lines(self) -> list[str]:
        """Each check's line; a failed check's ends in ``<- FAIL``."""
        return [str(c) if c.passed else f"{c}  <- FAIL" for c in self.checks]


def suite_oracles(quick: bool = False) -> list[Check]:
    """Vectorized primitives against explicit loop-nest oracles (f64)."""
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
    s0 = silu(Tensor(np.zeros(1))).data[0]
    sp0 = softplus(Tensor(np.zeros(1))).data[0] - np.log(2)
    sm = softmax(Tensor(np.full(4, 3.25)), axis=0).data
    big = softmax(Tensor(np.array([1e4, 1e4 + 1.0])), axis=0).data
    return [
        Check("loop-nest worst rel", worst, 1e-6),
        Check(f"silu(0) = {s0} is 0", s0 == 0.0),
        Check(f"softplus(0) - ln2 = {sp0:.3e}, magnitude < 1e-12",
              abs(sp0) < 1e-12),
        # np.allclose(sm, 0.25), as one error against its combined bound
        Check("uniform softmax max |p - 1/4|", np.max(np.abs(sm - 0.25)),
              1e-8 + 1e-5 * 0.25),
        Check("softmax of [1e4, 1e4 + 1] |sum - 1|", abs(big.sum() - 1.0),
              1e-6),
    ]


def suite_zoh(quick: bool = False) -> list[Check]:
    """Discretization: analytic scalar cases, the limit branch, both paths."""
    a_bar, b_bar = discretize_zoh(-1.0, 1.0, np.log(2.0))
    scalar = max_err(abs(float(a_bar) - 0.5), abs(float(b_bar) - 0.5))
    delta = 1e-12
    a_bar, b_bar = discretize_zoh(np.array([-1.0]), np.array([1.0]), delta)
    limit = max_err(abs(float(a_bar[0]) - 1.0),
                    abs(float(b_bar[0]) - delta) / delta)
    rng = np.random.default_rng(3)
    diag = -np.exp(rng.standard_normal(4))
    bvec = rng.standard_normal(4)
    a1, b1 = discretize_zoh(np.diag(diag), bvec.reshape(4, 1), 0.37,
                            diagonal=False)
    a2, b2 = discretize_zoh(diag, bvec, 0.37)
    general = max_err(rel_err(np.diag(a1), a2), rel_err(b1.ravel(), b2))
    try:
        discretize_zoh(np.zeros((2, 2)), np.ones((2, 1)), 1.0,
                       diagonal=False)
        rejected = False
    except ValueError:
        rejected = True
    return [Check("scalar case |err|", scalar, 1e-12),
            Check("limit branch rel err", limit, 1e-6),
            Check("general vs diagonal rel err", general, 1e-9),
            Check("singular general path rejected", rejected)]


def suite_lti(quick: bool = False) -> list[Check]:
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
    return [Check(f"{cases} systems, worst rel", worst, 1e-6)]


def suite_scan(quick: bool = False) -> list[Check]:
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
    # Causality: perturbing token t leaves outputs before t bit-identical.
    core = SsmCore(4, d_state=2, rng=np.random.default_rng(5), dtype="f64")
    x = rng.standard_normal((1, 32, 4))
    y0 = selective_scan(Tensor(x), core).data
    x2 = x.copy()
    x2[0, 20] += 1.0
    y1 = selective_scan(Tensor(x2), core).data
    zeros = selective_scan(Tensor(np.zeros((1, 8, 4))), core).data
    return [Check(f"{cases} cases fast vs reference, worst rel", worst, 1e-5),
            Check("causality bit-exact before perturbed token",
                  np.array_equal(y0[0, :20], y1[0, :20])
                  and not np.allclose(y0[0, 20:], y1[0, 20:])),
            Check("zero input gives zero output", np.all(zeros == 0.0))]


def suite_gradcheck(quick: bool = False) -> list[Check]:
    """Desk finite differences. A seed's worst entry within the tolerance
    is its ``GradcheckReport.passed``: each entry keeps a NaN."""
    seeds = VERIFICATION_SEEDS[:1] if quick else VERIFICATION_SEEDS
    checks = []
    for seed in seeds:
        rep = gradcheck_suite(bb.desk(), seed=seed)
        checks.append(Check(
            f"seed {seed}: {len(rep.entries)} groups, evaluations: "
            f"{rep.evaluations()}; worst rel", max_err(*rep.entries.values()),
            GRADCHECK_TOLERANCE))
        checks += [Check(f"seed {seed} group {name} rel", rep.entries[name],
                         GRADCHECK_TOLERANCE) for name in rep.failures]
    worst = max_err(*(c.value for c in checks))
    return checks + [Check(f"{len(seeds)} seeds, worst rel", worst,
                           GRADCHECK_TOLERANCE)]


def suite_covariance(quick: bool = False) -> list[Check]:
    """Reordering vs filtering identities on empirical moments (6x6 grids).
    The identity and spectrum verdicts are ``theory``'s checks."""
    rng = np.random.default_rng(105)
    n_pairs = 4 if quick else 20
    samples = rng.standard_normal((200, 36))
    moments = theory.empirical_moments(samples)
    identities = []
    kernels = [SOBEL_X, SOBEL_Y, rng.standard_normal((3, 3)),
               np.array([[0.7]]), rng.standard_normal((2, 2))]
    for i in range(n_pairs):
        if i % 2 == 0:
            identity = theory.verify_permutation_identity
            ops = [theory.permutation_matrix(rng.permutation(36))
                   for _ in range(2)]
        else:
            identity = theory.verify_filter_identity
            ops = [theory.conv_as_matrix(k, 6, 6,
                                         padding=(k.shape[0] - 1) // 2)
                   for k in (kernels[i % len(kernels)],
                             kernels[(i + 2) % len(kernels)])]
        identities.append(identity(*ops, moments, samples))
    checks = [Check(f"{n_pairs} operator pairs, worst max-abs",
                    max_err(*(c.value for c in identities)),
                    theory.IDENTITY_TOLERANCE)]
    checks += [c for c in identities if not c.passed]
    # Spectrum invariance under reordering vs movement under the Sobel.
    op = theory.conv_as_matrix(SOBEL_X, 6, 6, padding=1)
    perm = theory.permutation_matrix(rng.permutation(36))
    rep = theory.spectrum_report(moments.covariance, perm, op)
    # Operator matrices agree with conv2d on random inputs.
    conv_worst = 0.0
    for _ in range(10 if quick else 50):
        z = rng.standard_normal((6, 6))
        via_matrix = op @ z.ravel()
        via_conv = conv2d(Tensor(z[None, :, :, None]),
                          Tensor(SOBEL_X[None, None]), 1, 1).data.ravel()
        conv_worst = max_err(conv_worst,
                             np.max(np.abs(via_matrix - via_conv)))
    mineig = moments.min_eigenvalue()
    return checks + [
        rep.invariance,
        Check(f"sobel spectral distance {rep.filter_distance:.3e} "
              "exceeds 1e-3", rep.filter_distance > 1e-3),
        Check("conv-as-matrix vs conv2d max-abs", conv_worst, 1e-10),
        Check("covariance symmetry max-abs", moments.symmetry_error(), 1e-10),
        Check(f"covariance min eigenvalue {mineig:.3e} >= -1e-8",
              mineig >= -1e-8),
        Check("permutation orthogonality max-abs",
              float(np.max(np.abs(perm.T @ perm - np.eye(36)))), 1e-12),
    ]


def suite_structure(quick: bool = False) -> list[Check]:
    """Variant configs, parameter/flop counts, traces, determinism."""
    t = bb.tiny()
    s = bb.small()
    b = bb.base()
    checks = [Check("named dims/depths exact", (
        t.dims, t.depths, s.dims, s.depths, b.dims, b.depths) == (
        (94, 188, 376, 752), (1, 3, 8, 2), (94, 188, 376, 752), (2, 2, 18, 2),
        (128, 256, 512, 1024), (2, 2, 18, 2)))]
    for name, cfg in (("tiny", t), ("small", s), ("base", b)):
        n = bb.count_params(cfg)
        ref = bb.REFERENCE_PARAMS[name]
        fl = bb.count_flops(cfg, 224, 224)
        ref_f = bb.REFERENCE_FLOPS[name]
        checks += [
            Check(f"{name} params {n / 1e6:.2f}M vs {ref / 1e6:.1f}M, rel dev",
                  abs(n - ref) / ref, 0.10),
            Check(f"{name} flops {fl / 1e9:.2f}G vs {ref_f / 1e9:.1f}G, "
                  "rel dev", abs(fl - ref_f) / ref_f, 0.20)]
    rng = np.random.default_rng(0)
    if not quick:
        tiny_model = bb.build(t.with_overrides(num_classes=10), seed=0)
        x224 = Tensor(rng.standard_normal((1, 3, 224, 224)).astype(
            np.float32), dtype="f32")
        trace224 = [f.shape[1] for f in tiny_model.forward_features(x224)]
        checks.append(Check(f"tiny 224 trace {trace224} is [56, 28, 14, 7, 7]",
                            trace224 == [56, 28, 14, 7, 7]))
    desk_cfg = bb.desk()
    model = bb.build(desk_cfg, seed=0)
    tally = sum(p.size for p in model.parameters().values())
    x64 = Tensor(rng.standard_normal((1, 3, 64, 64)).astype(np.float32),
                 dtype="f32")
    trace = [f.shape[1] for f in model.forward_features(x64)]
    model2 = bb.build(desk_cfg, seed=0)
    p1, p2 = model.parameters(), model2.parameters()
    det = (all(np.array_equal(p1[k].data, p2[k].data) for k in p1)
           and np.array_equal(model.forward(x64).data,
                              model2.forward(x64).data))
    flat_drop = (bb.count_params(desk_cfg)
                 - bb.count_params(desk_cfg.with_overrides(
                     scan_mode="single_flatten")))
    no_adapt_drop = (bb.count_params(desk_cfg)
                     - bb.count_params(desk_cfg.with_overrides(
                         adaptive_weighting=False)))
    n_blocks = sum(desk_cfg.depths)
    finite = np.all(np.isfinite(model.forward(Tensor(
        rng.uniform(-3, 3, (2, 3, 64, 64)).astype(np.float32),
        dtype="f32")).data))
    return checks + [
        Check("desk analytic == instantiated tally",
              tally == bb.count_params(desk_cfg)),
        Check(f"desk 64 trace {trace} is [16, 8, 4, 2, 2]",
              trace == [16, 8, 4, 2, 2]),
        Check("same-seed build and logits bit-identical", det),
        Check(f"single_flatten removes {flat_drop} params (> 0)",
              flat_drop > 0),
        Check(f"no-adaptive removes {no_adapt_drop} params "
              f"(= 4 x {n_blocks} blocks)", no_adapt_drop == 4 * n_blocks),
        Check("logits finite on [-3, 3] inputs", finite),
    ]


def suite_merge(quick: bool = False) -> list[Check]:
    """Fusion-weight properties of the model's ``merge_views``: sums, hull,
    uniformity, saturation; its bytes equal the per-map reference."""
    rng = np.random.default_rng(107)
    weights = AdaptiveWeights(4, dtype="f64")
    alphas = weights.alphas().data
    checks = [
        Check(f"zero weights give alphas summing to {alphas.sum():.9f}, "
              "|sum - 1|", abs(alphas.sum() - 1.0), 1e-6),
        # np.allclose(alphas, 0.25), as one error against its combined bound
        Check("zero weights give uniform alphas, max |alpha - 1/4|",
              np.max(np.abs(alphas - 0.25)), 1e-8 + 1e-5 * 0.25)]
    draws = []
    for _ in range(10):
        weights.w.data = 5.0 * rng.standard_normal(4)
        draws.append(weights.alphas().data)
    maps = [Tensor(rng.standard_normal((1, 2, 4, 4))) for _ in range(4)]

    def fuse(views):
        return merge_views(stack_scans(*views), weights.alphas(), 2, 4).data
    weights.w.data = rng.standard_normal(4)
    alphas = weights.alphas().data
    fused = fuse(maps)
    per_map = adaptive_merge(unstack_scans(stack_scans(*maps), 2, 4), weights)
    stack = np.stack([m.data for m in maps])
    same = fuse([maps[0]] * 4)
    checks += [
        Check("10 random weights give alphas summing to 1, worst |sum - 1|",
              max_err(*(abs(a.sum() - 1.0) for a in draws)), 1e-6),
        Check("10 random weights give positive alphas",
              all(np.all(a > 0) for a in draws)),
        Check("merge weights give alphas summing to 1, |sum - 1|",
              abs(alphas.sum() - 1.0), 1e-6),
        Check("merge weights give positive alphas", np.all(alphas > 0)),
        Check("merge_views bytes equal the per-map merge",
              fused.tobytes() == per_map.data.tobytes()),
        Check("convex hull containment, 1e-12 slack",
              np.all(fused >= stack.min(axis=0) - 1e-12)
              and np.all(fused <= stack.max(axis=0) + 1e-12)),
        Check("same map in gives the same map out, rtol = atol = 1e-12",
              np.allclose(same, maps[0].data, rtol=1e-12, atol=1e-12))]
    weights.w.data = np.zeros(4)
    checks.append(Check("zero weights give the mean map, rel err",
                        rel_err(fuse(maps), np.mean(stack, axis=0)), 1e-12))
    weights.w.data = np.array([50.0, 0.0, 0.0, 0.0])
    checks.append(Check("saturation (w0 = 50) rel distance to map 0",
                        rel_err(fuse(maps), maps[0].data), 1e-6))
    return checks


def suite_erf(quick: bool = False) -> list[Check]:
    """Global coverage of the scanned model vs the bounded conv stack."""
    cfg = bb.desk()
    samples = 4 if quick else 16
    model = bb.build(cfg, seed=0)
    conv = bb.build_conv_baseline(cfg, seed=0)
    cov_model = erf(model, 192, stage=3, samples=samples, seed=0).coverage()
    cov_conv = erf(conv, 192, stage=3, samples=samples, seed=0).coverage()
    return [Check(f"desk coverage {cov_model:.4f} >= 0.99", cov_model >= 0.99),
            Check(f"conv baseline coverage {cov_conv:.4f} < 0.99",
                  cov_conv < 0.99)]


def suite_checkpoint(quick: bool = False) -> list[Check]:
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
        checks = [Check("round-trip logits bit-identical",
                        np.array_equal(logits_before, model2.forward(x).data))]
        blob = path.read_bytes()
        trunc = Path(tmp) / "trunc.mfil"
        trunc.write_bytes(blob[:len(blob) - 7])
        try:
            load_checkpoint(trunc)
            checks.append(Check("truncated file rejected", False))
        except CheckpointError as exc:
            checks.append(Check("truncation error names the short entry",
                                "entry '" in str(exc)))
    return checks


def suite_training(quick: bool = False) -> list[Check]:
    """Short-budget smoke over the fixed seed list: finite losses,
    determinism of metrics."""
    checks = []
    steps = 12 if quick else 24
    with tempfile.TemporaryDirectory() as tmp:
        for seed in VERIFICATION_SEEDS[:1] if quick else VERIFICATION_SEEDS:
            cfg = RunConfig(steps=steps, seed=seed, checkpoint_interval=0,
                            out_dir=str(Path(tmp) / f"s{seed}"))
            res = train_run(cfg)
            rows = res.metrics_path.read_text().splitlines()
            losses = [float(r.split(",")[1]) for r in rows[1:]]
            checks.append(Check(f"seed {seed}: {steps} steps, final acc "
                                f"{res.final_acc:.3f}, losses finite",
                                all(np.isfinite(losses))))
        cfg = RunConfig(steps=steps, seed=3, checkpoint_interval=0,
                        out_dir=str(Path(tmp) / "det1"))
        r1 = train_run(cfg)
        r2 = train_run(cfg.with_overrides(out_dir=str(Path(tmp) / "det2")))
        checks.append(Check("same seed twice, metrics bit-identical",
                            r1.metrics_path.read_bytes()
                            == r2.metrics_path.read_bytes()))
    return checks


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
            checks = SUITES[name](quick=quick)
        except Exception as exc:  # a crash is a failure, not an abort
            checks = [Check(f"exception: {type(exc).__name__}: {exc}", False)]
        result = SuiteResult(name, checks, time.perf_counter() - start)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        log(f"[{result.name}] {status} ({result.seconds:.1f}s)")
        for line in result.lines:
            log(f"    {line}")
    return results
