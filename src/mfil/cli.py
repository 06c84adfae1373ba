"""Command-line entry point: verify | train | eval | report."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import backbone as bb
from . import theory
from .analysis import erf, max_worker_threads, saliency
from .checkpoint import CheckpointError, load_checkpoint, load_into
from .config import ConfigError, RunConfig, load_run_config
from .data import SyntheticDataset
from .imageio import write_matrix_text, write_pgm
from .scan import SCAN_MODES, SOBEL_X
from .tensor import Tensor
from .train import TrainAbort, evaluate, train_run
from .verify import SUITES, run_suites

_SCAN_MODE_ALIASES = {**{m: m for m in SCAN_MODES},
                      "orig_plus_one": "original_plus_one_filter"}


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, default=None,
                   help="key = value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variant", choices=sorted(bb.VARIANTS), default=None)
    p.add_argument("--scan-mode", choices=sorted(_SCAN_MODE_ALIASES),
                   default=None)
    p.add_argument("--no-adaptive-weighting", action="store_true")
    p.add_argument("--d-state", type=int, default=None)
    p.add_argument("--ssm-ratio", type=float, default=None)


def _run_config_from_args(args) -> RunConfig:
    overrides = dict(
        seed=args.seed,
        variant=args.variant,
        scan_mode=(_SCAN_MODE_ALIASES[args.scan_mode]
                   if args.scan_mode else None),
        d_state=args.d_state,
        ssm_ratio=args.ssm_ratio,
        steps=getattr(args, "steps", None),
        out_dir=str(args.out) if getattr(args, "out", None) else None,
    )
    if args.no_adaptive_weighting:
        overrides["adaptive_weighting"] = False
    return load_run_config(args.config, **overrides)


def _create_out_dir(path: Path) -> bool:
    """Create the output directory, or print why it cannot be created."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot create {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return False
    return True


def cmd_verify(args) -> int:
    results = run_suites(args.suite or None, quick=args.quick)
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"VERIFY: FAIL ({', '.join(failed)})")
        return 1
    print("VERIFY: PASS")
    return 0


def cmd_train(args) -> int:
    try:
        cfg = _run_config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not _create_out_dir(Path(cfg.out_dir)):
        return 2
    try:
        result = train_run(cfg)
    except TrainAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    print(f"final train accuracy: {result.final_acc:.4f}")
    print(f"final train loss: {result.final_loss:.4f}")
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoint: {result.checkpoints[-1]}")
    for name, drift in sorted(result.alpha_drift.items()):
        print(f"adaptive-weight drift {name}: {drift:.6f}")
    print(f"adaptive-weight drift total: {result.total_drift:.6f}")
    return 0


def cmd_eval(args) -> int:
    try:
        cfg = _run_config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    model = bb.build(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    try:
        load_into(model.parameters(), load_checkpoint(args.checkpoint))
    except (CheckpointError, OSError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    dataset = SyntheticDataset(cfg.image_size, cfg.num_classes,
                               cfg.dataset_size, cfg.noise, seed=cfg.seed)
    acc, loss = evaluate(model, dataset, cfg.batch_size)
    print(f"top-1 accuracy: {acc:.4f}")
    print(f"mean loss: {loss:.4f}")
    return 0


def _report_table(column: str, count, refs: dict, unit: str,
                  width: int) -> int:
    """``count`` of each published variant against its reference size."""
    scale = {"M": 1e6, "G": 1e9}[unit]
    print(f"variant  {column:<10}  reference  deviation")
    for name in ("tiny", "small", "base"):
        n, ref = count(bb.VARIANTS[name]()), refs[name]
        print(f"{name:<8} {n / scale:>{width}.2f}{unit}  "
              f"{ref / scale:>7.1f}{unit} {100 * (n - ref) / ref:>+8.1f}%")
    return 0


def _report_erf(out_dir: Path, seed: int) -> int:
    if not _create_out_dir(out_dir):
        return 2
    cfg = bb.desk()
    model = bb.build(cfg, seed=seed)
    for label, net in (("desk", model),
                       ("conv-baseline",
                        bb.build_conv_baseline(cfg, seed=seed))):
        fmap = erf(net, 192, stage=3, samples=16, seed=seed)
        pgm = out_dir / f"erf-{label}.pgm"
        txt = out_dir / f"erf-{label}.txt"
        write_pgm(pgm, fmap.grid)
        write_matrix_text(txt, fmap.grid)
        print(f"{label}: coverage {fmap.coverage():.4f} -> {pgm}, {txt}")
    dataset = SyntheticDataset(image_size=64, num_classes=cfg.num_classes,
                               size=4, seed=seed)
    img, labels = dataset.batch([0])
    sal = saliency(model, Tensor(img[0], dtype="f32"), int(labels[0]))
    write_pgm(out_dir / "saliency-desk.pgm", sal)
    write_matrix_text(out_dir / "saliency-desk.txt", sal)
    print(f"saliency (class {int(labels[0])}) -> "
          f"{out_dir / 'saliency-desk.pgm'}")
    return 0


def _report_covariance() -> int:
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((200, 36))
    moments = theory.empirical_moments(samples)
    p_i = theory.permutation_matrix(rng.permutation(36))
    p_j = theory.permutation_matrix(rng.permutation(36))
    sob = theory.conv_as_matrix(SOBEL_X, 6, 6, padding=1)
    spectrum = theory.spectrum_report(moments.covariance, p_i, sob)
    for check in (theory.verify_permutation_identity(p_i, p_j, moments,
                                                     samples),
                  theory.verify_filter_identity(sob, sob, moments, samples),
                  spectrum.invariance):
        print(f"{check} -> {'PASS' if check.passed else 'FAIL'}")
    print(f"spectrum.filter_distance: {spectrum.filter_distance:.3e}")
    return 0


def cmd_report(args) -> int:
    if args.kind == "params":
        return _report_table("params", bb.count_params, bb.REFERENCE_PARAMS,
                             "M", 8)
    if args.kind == "flops":
        return _report_table("flops(224)",
                             lambda cfg: bb.count_flops(cfg, 224, 224),
                             bb.REFERENCE_FLOPS, "G", 9)
    if args.kind == "erf":
        try:
            cfg = RunConfig(seed=args.seed or 0).validate()
            max_worker_threads()  # a bad MFIL_THREADS fails before a build
        except ValueError as exc:  # a ConfigError or a bad MFIL_THREADS
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return _report_erf(args.out or Path("reports"), cfg.seed)
    return _report_covariance()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfil",
        description="Multi-filter visual state-space model: training and "
                    "verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every verification suite")
    p_verify.add_argument("--suite", action="append", choices=sorted(SUITES),
                          help="run only the named suite (repeatable)")
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced case counts (development aid)")
    p_verify.set_defaults(func=cmd_verify)

    p_train = sub.add_parser("train", help="train on the synthetic dataset")
    _add_model_flags(p_train)
    p_train.add_argument("--out", type=Path, default=None,
                         help="output directory")
    p_train.add_argument("--steps", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    _add_model_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="emit structured reports")
    p_report.add_argument("--kind", required=True,
                          choices=("params", "flops", "erf", "covariance"))
    p_report.add_argument("--out", type=Path, default=None)
    p_report.add_argument("--seed", type=int, default=None)
    p_report.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
