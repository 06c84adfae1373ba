"""Run configuration: dataclass defaults plus a flat key = value file format.

The file format is deliberately primitive: UTF-8 lines of ``key = value``,
``#`` comments, typed parsing against the RunConfig schema, and rejection of
unknown keys with the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .backbone import VARIANTS, VariantConfig
from .data import CLASS_NAMES
from .tensor import DTYPES

__all__ = ["RunConfig", "ConfigError", "parse_config_file", "load_run_config"]


class ConfigError(ValueError):
    """Malformed configuration: bad syntax, unknown key, or bad value."""


@dataclass(frozen=True)
class RunConfig:
    variant: str = "desk"
    scan_mode: str = "multi_filter"
    adaptive_weighting: bool = True
    d_state: int = 1
    ssm_ratio: float = 1.0
    ffn_ratio: float = 4.0
    num_classes: int = 4
    image_size: int = 32
    dataset_size: int = 512
    noise: float = 0.25
    lr: float = 1e-3
    weight_decay: float = 0.05
    warmup_frac: float = 0.05
    steps: int = 1500
    batch_size: int = 32
    seed: int = 0
    label_smoothing: float = 0.1
    drop_path: float = 0.0
    checkpoint_interval: int = 500
    exact_input_discretization: bool = False
    segment_reset: bool = False
    dtype: str = "f32"
    out_dir: str = "runs/default"

    def validate(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not (0.0 <= self.label_smoothing < 1.0):
            raise ConfigError(
                f"label_smoothing must be in [0, 1), got "
                f"{self.label_smoothing}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_interval < 0:
            raise ConfigError(f"checkpoint_interval must be >= 0, got "
                              f"{self.checkpoint_interval}")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}, expected one of "
                f"{sorted(VARIANTS)}")
        if self.image_size < 32 or self.image_size % 32:
            raise ConfigError(
                f"image_size must be positive and divisible by 32, got "
                f"{self.image_size}")
        if not 2 <= self.num_classes <= len(CLASS_NAMES):
            raise ConfigError(
                f"num_classes must be in [2, {len(CLASS_NAMES)}], got "
                f"{self.num_classes}")
        if self.dataset_size < self.batch_size:
            raise ConfigError(
                f"dataset_size must be >= batch_size ({self.batch_size}), "
                f"got {self.dataset_size}")
        for name in ("noise", "weight_decay"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if not value >= 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ConfigError(
                f"warmup_frac must be in [0, 1], got {self.warmup_frac}")
        if self.dtype not in DTYPES:
            raise ConfigError(
                f"dtype must be {' or '.join(DTYPES)}, got {self.dtype}")
        try:
            self.model_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def model_config(self) -> VariantConfig:
        """The variant, with every field this config shares with it."""
        own = {f.name for f in fields(self)}
        return VARIANTS[self.variant]().with_overrides(**{
            f.name: getattr(self, f.name) for f in fields(VariantConfig)
            if f.name in own})

    def with_overrides(self, **kw) -> "RunConfig":
        return replace(self, **kw)


# Annotations stay strings here (postponed evaluation), which is what the
# parser matches against.
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str, line_no: int):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if ftype == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: bad value for {key!r}: {exc}")


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines into a typed override dict."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {path}: {reason}") from None
    overrides: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        overrides[key] = _parse_value(key, raw, line_no)
    return overrides


def load_run_config(path=None, **cli_overrides) -> RunConfig:
    """Config file merged with CLI overrides (CLI wins); validated."""
    overrides = parse_config_file(path) if path is not None else {}
    overrides.update({k: v for k, v in cli_overrides.items()
                      if v is not None})
    return RunConfig(**overrides).validate()
