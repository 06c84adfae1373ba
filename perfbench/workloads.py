"""The three workloads, each a closed loop over public mfil entry points.

A workload is sized in units (a desk training run, a gradcheck suite, a
tiny training run). The unit count follows from ``--seconds`` alone, so the
same arguments always do the same work and every count repeats exactly.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from mfil import analysis, backbone, train
from mfil.config import RunConfig
from mfil.data import SyntheticDataset

from probes import Measure, now


@dataclass
class Rep:
    """One call of the workload's entry point."""

    wall_s: float
    # One exact result per attempted operation: a step's loss bits or a
    # gradcheck group's error, as hex.
    results: list[str]
    final: str            # final evaluation loss as hex; "" for gradcheck
    attempted: int
    failed: int
    notes: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    root: str             # the mfil entry point a unit calls
    unit_seconds: float   # seconds per unit on a busy 2-core box
    min_units: int
    setup: Callable[[int], None]
    run: Callable[[int, int, Path, Measure], list[Rep]]

    def units(self, seconds: int) -> int:
        return max(self.min_units, int(seconds // self.unit_seconds))


def _desk_config(seed: int, out: Path) -> RunConfig:
    # Acceptance criterion 9 (steps=1500, checkpoint_interval=500), shortened.
    return RunConfig(variant="desk", steps=50, batch_size=32, image_size=32,
                     dataset_size=512, seed=seed, checkpoint_interval=500,
                     dtype="f32", out_dir=str(out))


def _tiny_config(seed: int, out: Path) -> RunConfig:
    # B=1: B=2 peaked at 6.3 GB RSS on a 7 GB machine. Four images, one per
    # class, keep the final evaluation to four forwards.
    return RunConfig(variant="tiny", steps=2, batch_size=1, image_size=224,
                     dataset_size=4, seed=seed, checkpoint_interval=500,
                     dtype="f32", out_dir=str(out))


def _setup_training(cfg: RunConfig):
    SyntheticDataset(cfg.image_size, cfg.num_classes, cfg.dataset_size,
                     cfg.noise, seed=cfg.seed)
    backbone.build(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)


def _train_rep(cfg: RunConfig, m: Measure) -> Rep:
    # Free the cyclic garbage (autograd graphs) of the previous unit, so each
    # unit starts from what a fresh `mfil train` would hold.
    gc.collect()
    n0 = len(m.losses)
    notes = []
    t0 = now()
    try:
        train.train_run(cfg)
        aborted = None
    except train.TrainAbort as exc:
        aborted = exc.step
        notes.append(str(exc))
    wall = now() - t0
    results = m.losses[n0:]
    attempted = aborted if aborted is not None else cfg.steps
    final = "" if aborted is not None else float(m.evals[-1][2]).hex()
    return Rep(wall, results, final, attempted, int(aborted is not None),
               notes)


def _training(config):
    """Units of one seeded run each; every unit must reproduce the first."""
    def run(seed: int, units: int, out: Path, m: Measure) -> list[Rep]:
        return [_train_rep(config(seed, out / f"rep{k}"), m)
                for k in range(units)]
    return run


def _run_gradcheck(seed: int, units: int, out: Path,
                   m: Measure) -> list[Rep]:
    reps = []
    for k in range(units):
        gc.collect()
        t0 = now()
        report = analysis.gradcheck_suite(backbone.desk(), seed + k)
        wall = now() - t0
        results = [float(err).hex() for err in report.entries.values()]
        reps.append(Rep(wall, results, "", len(results),
                        len(report.failures),
                        [f"gradcheck failed: {name} {report.entries[name]:.3e}"
                         for name in report.failures]))
    return reps


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-train", "train.train_run", 7.5, 2,
                 lambda seed: _setup_training(_desk_config(seed, Path("."))),
                 _training(_desk_config)),
        Workload("desk-gradcheck", "analysis.gradcheck_suite", 15.0, 1,
                 lambda seed: backbone.build(backbone.desk(), seed=seed,
                                             dtype="f64"),
                 _run_gradcheck),
        Workload("tiny224-train", "train.train_run", 15.0, 2,
                 lambda seed: _setup_training(_tiny_config(seed, Path("."))),
                 _training(_tiny_config)),
    )
}
