import gc

import numpy as np
import pytest

from mfil.reference import rel_err  # noqa: F401  (re-exported for tests)


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


def grad_close(analytic, numeric, rtol=1e-4, atol=1e-9):
    """Per-element relative comparison with a roundoff floor."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (diff <= atol) | (diff <= rtol * denom)
    return bool(np.all(ok))
