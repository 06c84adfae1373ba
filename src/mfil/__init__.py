"""Multi-filter visual state-space backbone with a verification harness.

Dense-tensor core with taped reverse-mode differentiation, a selective SSM
scan (checked against zero-order-hold and kernel-form oracles), the
multi-filter scanning pipeline with adaptive fusion, a hierarchical image
backbone, covariance-identity and receptive-field analysis, and a
deterministic training CLI.
"""

from .backbone import (Backbone, VariantConfig, base, build,
                       build_conv_baseline, count_flops, count_params, desk,
                       small, tiny)
from .block import MfilBlock, block_cost, conv_ffn
from .config import ConfigError, RunConfig
from .scan import (AdaptiveWeights, FilterBank, adaptive_merge, dynamic_map,
                   merge_views, mfil_ssm, orthogonal_maps, stack_scans,
                   unstack_scans)
from .ssm import SsmCore, selective_scan
from .tensor import NonFiniteError, ShapeError, Tape, Tensor

__version__ = "0.1.0"
