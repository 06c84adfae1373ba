import numpy as np
import pytest

from mfil import init
from mfil.init import trunc_normal


def _trunc_normal_loop(rng, shape, std=0.02, bound=2.0):
    """Whole-array rejection rounds: the original sampler, as the oracle."""
    out = rng.normal(0.0, std, size=shape)
    limit = bound * std
    bad = np.abs(out) > limit
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > limit
    return out


@pytest.mark.parametrize("shape", [(), (0,), (3, 0, 2), (1,), (7,), (5, 3),
                                   (94, 3, 4, 4), (64, 376), (2, 3, 4, 5)])
@pytest.mark.parametrize("std,bound", [(0.02, 2.0), (0.1, 0.5), (1.0, 3.0)])
def test_trunc_normal_matches_loop_oracle(shape, std, bound, monkeypatch):
    # The model draws at TRUNC_BOUND 2.0; bound 0.5 rejects most draws, so
    # it runs many redraw rounds.
    monkeypatch.setattr(init, "TRUNC_BOUND", bound)
    for seed in range(8):
        want_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        want = _trunc_normal_loop(want_rng, shape, std, bound)
        got = trunc_normal(got_rng, shape, std)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert np.all(np.abs(got) <= bound * std)
