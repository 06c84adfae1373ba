import gc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def no_gc():
    """Cyclic garbage collector off: only reference counting frees."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def rel_err(got, want):
    """Max elementwise deviation relative to the reference scale."""
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def grad_close(analytic, numeric, rtol=1e-4, atol=1e-9):
    """Per-element relative comparison with a roundoff floor."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (diff <= atol) | (diff <= rtol * denom)
    return bool(np.all(ok))
