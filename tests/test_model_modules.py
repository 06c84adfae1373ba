"""``ssm.py``, ``scan.py``, ``block.py`` and ``backbone.py`` define only
what the model runs.

A profile hook records every function called from the four modules while
the named variants are configured and desk models are built, counted, run
forward on a tape and swept backward, in every scan mode and once more with
the optional scan features on; the segment-input walk and the conv
baseline's feature maps run too. Each top-level function and class method
the modules define must be among them, so verification-only code cannot
settle in a model module unnoticed.
"""

import ast
import sys
from pathlib import Path

import numpy as np

from mfil import backbone as bb
from mfil import block, scan, ssm
from mfil.scan import SCAN_MODES
from mfil.tensor import Tape, Tensor, mul, tsum

# Defined but not run by the model, each with the reason it stays.
ALLOWED_UNCALLED = {
    **{f"scan.{name}": "merge_views' reference, pinned by perfbench "
                       "SCAN_STAGES until ROADMAP item 1"
       for name in ("unstack_scans", "adaptive_merge")},
    **{f"scan.{name}": "the filter-views node's reference, pinned by "
                       "perfbench SCAN_STAGES"
       for name in ("orthogonal_maps", "dynamic_map", "stack_scans")},
    "block.MfilBlock.forward": "the segments call its two halves; "
                               "perfbench/spans.py wraps it by name",
}
MODULES = (ssm, scan, block, bb)


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


def _model_runs():
    """Count each named variant, tape a desk step per config, and walk the
    last model's segment inputs and the conv baseline's feature maps."""
    for variant in bb.VARIANTS.values():
        bb.count_flops(variant(), 224, 224)
    configs = [bb.desk(scan_mode=mode) for mode in SCAN_MODES]
    configs.append(bb.desk().with_overrides(
        exact_input_discretization=True, segment_reset=True, d_state=2))
    for config in configs:
        model, images = _taped_step(config)
    model.segment_inputs(images)
    bb.build_conv_baseline(bb.desk(), seed=0).forward_features(images)


def test_model_modules_define_only_what_the_model_runs():
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
        _model_runs()
    finally:
        sys.setprofile(previous)

    uncalled = set().union(*map(_defined, MODULES)) - called
    assert uncalled == set(ALLOWED_UNCALLED), (
        f"defined in a model module but never run by the model: "
        f"{sorted(uncalled - set(ALLOWED_UNCALLED))}; allowlisted but "
        f"called: {sorted(set(ALLOWED_UNCALLED) - uncalled)}")
