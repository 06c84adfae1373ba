"""``tensor.py``, ``ssm.py``, ``scan.py``, ``block.py``, ``backbone.py``,
``train.py`` and ``checkpoint.py`` define only what the model and its
training run.

A profile hook records every function called from the seven modules while
the named variants are configured and desk models are built, counted, run
forward on a tape and swept backward, in every scan mode and once more with
the optional scan features on; an f32 train-mode step with drop-path and
the cross-entropy loss, a forward under the flop counter, the segment-input
walk and the conv baseline's feature maps run too, and so does a 2-step
desk training run whose final checkpoint is loaded into a fresh model and
evaluated. Each top-level function and class method the modules define
must be among them, so verification-only code cannot settle in a model
module unnoticed.
"""

import ast
import sys
from pathlib import Path

import numpy as np

from mfil import backbone as bb
from mfil import block, checkpoint, scan, ssm, tensor, train
from mfil.checkpoint import load_checkpoint, load_into
from mfil.config import RunConfig
from mfil.data import SyntheticDataset
from mfil.scan import SCAN_MODES
from mfil.tensor import (Tape, Tensor, flop_counter, mul,
                         softmax_cross_entropy, tsum)
from mfil.train import evaluate, train_run

# Defined but not run by the model, each with the reason it stays.
ALLOWED_UNCALLED = {
    **{f"tensor.{name}": "pinned by perfbench OPS until ROADMAP item 2"
       for name in ("tile_leading", "sub", "sigmoid")},
    **{f"tensor.{name}": "pinned by perfbench OPS until ROADMAP item 2; "
                         "the fused-scan property test's chain"
       for name in ("neg", "exp")},
    "tensor.softplus": "the suite oracles' activation",
    "tensor.concat": "stack_scans and stacked_stencil_losses",
    "tensor.Tape.gradients": "analysis",
    "tensor.Tape.nodes": "tests and perfbench",
    "tensor._Node.out": "tests and perfbench",
    **{f"tensor.Tensor.{name}": "public API"
       for name in ("__repr__", "dtype", "size")},
    **{f"scan.{name}": "merge_views' reference, pinned by perfbench "
                       "SCAN_STAGES until ROADMAP item 2"
       for name in ("unstack_scans", "adaptive_merge")},
    **{f"scan.{name}": "the filter-views node's reference, pinned by "
                       "perfbench SCAN_STAGES"
       for name in ("orthogonal_maps", "dynamic_map", "stack_scans")},
    "block.MfilBlock.forward": "the segments call its two halves; "
                               "perfbench/spans.py wraps it by name",
    "train.TrainAbort.__init__": "the abort path, which test_train covers",
}
MODULES = (tensor, ssm, scan, block, bb, train, checkpoint)


def _defined(module) -> set[str]:
    """``module.function`` and ``module.Class.method`` for every top-level
    function and class method in the module's source."""
    tree = ast.parse(Path(module.__file__).read_text())
    prefix = module.__name__.rsplit(".", 1)[-1]
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(f"{prefix}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            names.update(f"{prefix}.{node.name}.{item.name}"
                         for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def _taped_step(config):
    """Build, count, one taped forward and a full backward sweep (f64)."""
    bb.count_params(config)
    model = bb.build(config, seed=0, dtype="f64")
    params = model.parameters()
    rng = np.random.default_rng(0)
    images = Tensor(rng.standard_normal((2, 3, 32, 32)))
    readout = Tensor(rng.standard_normal((2, config.num_classes)))
    with Tape() as tape:
        loss = tsum(mul(model.forward(images), readout))
        grads = dict(tape.sweep(loss, params.values()))
    assert len(grads) == len(params)
    return model, images


def _train_step_and_counted_forward():
    """An f32 train-mode step with drop-path and the cross-entropy loss,
    then a forward whose counted flops equal ``count_flops``."""
    config = bb.desk(drop_path=0.1)
    model = bb.build(config, seed=0, dtype="f32")
    params = model.parameters()
    images = Tensor(np.random.default_rng(1).standard_normal((2, 3, 32, 32)),
                    dtype="f32")
    with Tape() as tape:
        logits = model.forward(images, train=True,
                               rng=np.random.default_rng(2))
        loss = softmax_cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss.item())
    assert len(dict(tape.sweep(loss, params.values()))) == len(params)
    with flop_counter() as fc:
        model.forward(images)
    assert fc.total == bb.count_flops(config, 32, 32, batch=2)


def _train_and_reload(out_dir):
    """A 2-step desk training run with drop-path; its final checkpoint,
    loaded into a fresh model, evaluates to the run's final accuracy and
    loss."""
    cfg = RunConfig(steps=2, batch_size=8, dataset_size=16, drop_path=0.1,
                    checkpoint_interval=1, out_dir=str(out_dir))
    result = train_run(cfg)
    assert result.total_drift > 0.0
    model = bb.build(cfg.model_config(), seed=cfg.seed + 1, dtype=cfg.dtype)
    load_into(model.parameters(), load_checkpoint(result.checkpoints[-1]))
    dataset = SyntheticDataset(cfg.image_size, cfg.num_classes,
                               cfg.dataset_size, cfg.noise, seed=cfg.seed)
    assert evaluate(model, dataset, cfg.batch_size) == (
        result.final_acc, result.final_loss)


def _model_runs(out_dir):
    """Count each named variant, tape a desk step per config, train and
    count one more, walk the last model's segment inputs and the conv
    baseline's feature maps, and run and reload a short training run."""
    for variant in bb.VARIANTS.values():
        bb.count_flops(variant(), 224, 224)
    configs = [bb.desk(scan_mode=mode) for mode in SCAN_MODES]
    configs.append(bb.desk().with_overrides(
        exact_input_discretization=True, segment_reset=True, d_state=2))
    for config in configs:
        model, images = _taped_step(config)
    _train_step_and_counted_forward()
    model.segment_inputs(images)
    bb.build_conv_baseline(bb.desk(), seed=0).forward_features(images)
    _train_and_reload(out_dir)


def test_model_modules_define_only_what_the_model_runs(tmp_path):
    modules = {m.__file__: m.__name__.rsplit(".", 1)[-1] for m in MODULES}
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            prefix = modules.get(code.co_filename)
            if prefix is not None:
                called.add(f"{prefix}.{code.co_qualname}")

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        _model_runs(tmp_path)
    finally:
        sys.setprofile(previous)

    uncalled = set().union(*map(_defined, MODULES)) - called
    assert uncalled == set(ALLOWED_UNCALLED), (
        f"defined in a model module but never run by the model: "
        f"{sorted(uncalled - set(ALLOWED_UNCALLED))}; allowlisted but "
        f"called: {sorted(set(ALLOWED_UNCALLED) - uncalled)}")
