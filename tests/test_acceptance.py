"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Criteria 1-8 run the ``mfil verify`` suite that holds their
checks; criteria 9 and 10 train and verify end to end, so this module takes
several minutes. Each suite runs once per pytest run: criterion 10 reads the
results criteria 1-8 already produced and runs only the rest.
"""

import functools

import numpy as np

from mfil.config import RunConfig
from mfil.train import train_run
from mfil.verify import SUITES, run_suites


def _report(num: int, summary: str, passed: bool):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if passed else 'FAIL'}] "
          f"{summary}")
    assert passed, f"criterion {num}: {summary}"


@functools.cache
def _suite_result(name: str):
    [result] = run_suites([name], log=lambda *a, **k: None)
    return result


def _suite_criterion(num: int, suite: str, bound: float | None = None):
    """Criterion ``num``: suite ``suite`` passes, within ``bound`` seconds."""
    def test():
        result = _suite_result(suite)
        timed = bound is None or result.seconds < bound
        limit = "" if bound is None else f" (< {bound:.0f}s)"
        _report(num, f"[{suite}] " + "; ".join(result.lines)
                + f"; {result.seconds:.1f}s{limit}", result.passed and timed)
    return test


# One row per criterion: (number, suite, wall-clock bound). Named
# assignments rather than parametrize keep each criterion's test id.
test_criterion_01_lti_equivalence = _suite_criterion(1, "lti", 5.0)
test_criterion_02_zoh_correctness = _suite_criterion(2, "zoh")
test_criterion_03_selective_fast_path = _suite_criterion(3, "scan")
test_criterion_04_gradient_suite = _suite_criterion(4, "gradcheck", 180.0)
test_criterion_05_covariance_identities = _suite_criterion(5, "covariance")
test_criterion_06_structural_fidelity = _suite_criterion(6, "structure")
test_criterion_07_adaptive_merge_properties = _suite_criterion(7, "merge")
test_criterion_08_erf_global_coverage = _suite_criterion(8, "erf", 60.0)


def test_criterion_09_learnability(tmp_path):
    cfg = RunConfig(steps=1500, seed=0, out_dir=str(tmp_path / "main"),
                    checkpoint_interval=500)
    result = train_run(cfg)
    acc_ok = result.final_acc >= 0.90
    # Determinism of the run protocol is suite training's check (two
    # same-seed runs, metrics bit-identical), which criterion 10 runs.
    # Each scan mode trains under the identical budget. No ordering between
    # them is asserted, only completion: accuracy differences at this scale
    # are not evidence either way.
    print("\nscan-mode comparison (identical 150-step budget):")
    cmp_ok = True
    for mode in ("single_flatten", "multi_filter"):
        run = train_run(cfg.with_overrides(
            steps=150, scan_mode=mode,
            out_dir=str(tmp_path / "cmp" / f"scan-{mode}")))
        print(f"  {mode:<16} final_acc {run.final_acc:.4f} "
              f"final_loss {run.final_loss:.4f}")
        cmp_ok &= bool(np.isfinite(run.final_loss))
    drift_ok = result.total_drift > 0.0
    _report(9, f"1500-step desk accuracy {result.final_acc:.4f} (>= 0.90); "
               f"ablation rows complete {cmp_ok}; "
               f"fusion-weight drift {result.total_drift:.4f} (> 0)",
            acc_ok and cmp_ok and drift_ok)


def test_criterion_10_checkpoint_and_verify():
    results = [_suite_result(name) for name in SUITES]
    elapsed = sum(r.seconds for r in results)
    failed = [r.name for r in results if not r.passed]
    _report(10, f"verify suites all pass {not failed}{failed or ''}; "
                f"{elapsed:.0f}s (< 600s)", not failed and elapsed < 600.0)
