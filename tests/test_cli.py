import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfil
from mfil import analysis, cli, reference, verify
from mfil import tensor as T
from mfil.checkpoint import save_checkpoint
from mfil.cli import main


def test_train_then_eval_reproduces_final_row(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 20\ndataset_size = 96\n"
                   "checkpoint_interval = 10\n")
    code = main(["train", "--config", str(cfg), "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    train_out = capsys.readouterr().out
    assert "final train accuracy:" in train_out
    assert "adaptive-weight drift total:" in train_out
    final_row = (out / "metrics.csv").read_text().splitlines()[-1]
    final_acc = final_row.split(",")[3]

    code = main(["eval", "--checkpoint", str(out / "model-final.mfil"),
                 "--config", str(cfg), "--seed", "3"])
    assert code == 0
    eval_out = capsys.readouterr().out
    assert f"top-1 accuracy: {float(final_acc):.4f}" in eval_out


def test_cli_flag_overrides_and_param_drop(tmp_path, capsys):
    out = tmp_path / "flat"
    code = main(["train", "--steps", "4", "--seed", "1", "--out", str(out),
                 "--scan-mode", "single_flatten", "--no-adaptive-weighting",
                 "--d-state", "2", "--ssm-ratio", "2.0"])
    assert code == 0
    capsys.readouterr()
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("flag", ["orig_plus_one",
                                  "original_plus_one_filter"])
def test_scan_mode_alias_reaches_run_config(monkeypatch, tmp_path, capsys,
                                            flag):
    monkeypatch.chdir(tmp_path)  # the default --out is created first
    seen = []

    def stop(cfg):
        seen.append(cfg)
        raise cli.TrainAbort(0, None)
    monkeypatch.setattr(cli, "train_run", stop)
    assert main(["train", "--scan-mode", flag]) == 3
    capsys.readouterr()
    assert [cfg.scan_mode for cfg in seen] == ["original_plus_one_filter"]


def test_bad_config_exits_with_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("steps = -3\n")
    code = main(["train", "--config", str(cfg)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def _unreadable_config(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "missing.cfg", "No such file or directory"
    if kind == "directory":
        return tmp_path, "Is a directory"
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"steps = 4\n\xff\n")
    return path, "can't decode byte 0xff"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_is_a_config_error(monkeypatch, tmp_path, capsys,
                                             command, kind):
    """A --config that cannot be read or decoded exits 2 naming the path,
    before any training or checkpoint loading."""
    monkeypatch.setattr(cli, "train_run", lambda cfg: pytest.fail("ran"))
    monkeypatch.setattr(cli, "load_checkpoint",
                        lambda path: pytest.fail("loaded"))
    path, reason = _unreadable_config(tmp_path, kind)
    argv = [command, "--config", str(path)]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "model.mfil")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path}: ")
    assert reason in err


@pytest.mark.parametrize("flags,lines,message", [
    (["--d-state", "0"], "", "d_state must be >= 1"),
    (["--ssm-ratio", "0"], "", "ssm_ratio positive"),
    ([], "drop_path = 1.0\n", "drop_path must be in [0, 1), got 1.0"),
    ([], "drop_path = -0.5\n", "drop_path must be in [0, 1), got -0.5"),
    ([], "drop_path = 1.5\n", "drop_path must be in [0, 1), got 1.5"),
    ([], "batch_size = 0\n", "batch_size must be >= 1, got 0"),
    ([], "scan_mode = zigzag\n",
     "unknown scan_mode 'zigzag', expected one of ("),
], ids=["d_state_0", "ssm_ratio_0", "drop_path_1", "drop_path_-0.5",
        "drop_path_1.5", "batch_size_0", "scan_mode_zigzag"])
def test_train_rejects_bad_model_values_as_config_errors(
        monkeypatch, tmp_path, capsys, flags, lines, message):
    """Values the model config rejects exit 2 with a config error before
    any training: no traceback, no exit 3 from a non-finite loss."""
    monkeypatch.setattr(cli, "train_run", lambda cfg: pytest.fail("ran"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    assert main(["train", "--config", str(cfg)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("lines,message", [
    ("image_size = 0\n", "image_size must be positive"),
    ("noise = -1\n", "noise must be >= 0, got -1.0"),
    ("num_classes = 1\n", "num_classes must be in [2, 4], got 1"),
    ("num_classes = 7\n", "num_classes must be in [2, 4], got 7"),
    ("dataset_size = 0\n", "dataset_size must be >= batch_size (32), got 0"),
    ("dataset_size = 16\n", "dataset_size must be >= batch_size (32)"),
    ("ffn_ratio = 0\n", "ffn_ratio must be positive, got 0.0"),
    ("warmup_frac = 2\n", "warmup_frac must be in [0, 1], got 2.0"),
    ("weight_decay = -1\n", "weight_decay must be >= 0, got -1.0"),
    ("seed = -1\n", "seed must be >= 0, got -1"),
    ("checkpoint_interval = -5\n", "checkpoint_interval must be >= 0"),
    ("lr = nan\n", "lr must be finite and positive, got nan"),
    ("lr = inf\n", "lr must be finite and positive, got inf"),
    ("weight_decay = inf\n", "weight_decay must be finite, got inf"),
    ("noise = inf\n", "noise must be finite, got inf"),
], ids=["image_size_0", "noise_-1", "num_classes_1", "num_classes_7",
        "dataset_size_0", "dataset_size_16", "ffn_ratio_0", "warmup_frac_2",
        "weight_decay_-1", "seed_-1", "checkpoint_interval_-5", "lr_nan",
        "lr_inf", "weight_decay_inf", "noise_inf"])
def test_train_rejects_bad_run_values_as_config_errors(
        monkeypatch, tmp_path, capsys, lines, message):
    """Run values that would crash, abort as a non-finite loss or train a
    wrong model exit 2 with a config error before any training."""
    monkeypatch.setattr(cli, "train_run", lambda cfg: pytest.fail("ran"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("lines,message", [
    ("ssm_ratio = nan\n", "ssm_ratio must be finite, got nan"),
    ("ssm_ratio = inf\n", "ssm_ratio must be finite, got inf"),
    ("ffn_ratio = inf\n", "ffn_ratio must be finite, got inf"),
    ("ssm_ratio = 0.01\n", "give block widths (0, 32) at dim 8"),
    ("ffn_ratio = 0.01\n", "give block widths (8, 0) at dim 8"),
], ids=["ssm_ratio_nan", "ssm_ratio_inf", "ffn_ratio_inf", "ssm_ratio_0.01",
        "ffn_ratio_0.01"])
def test_train_rejects_ratios_that_break_a_block(
        monkeypatch, tmp_path, capsys, lines, message):
    """A ratio that is not finite, or that rounds a block width to 0 at
    the variant's smallest dim, is a config error, not a traceback or a
    zero-width layer."""
    monkeypatch.setattr(cli, "train_run", lambda cfg: pytest.fail("ran"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("argv", [["train", "--steps", "1"],
                                  ["report", "--kind", "erf"]],
                         ids=["train", "report_erf"])
@pytest.mark.parametrize("sub", [False, True], ids=["file", "under_file"])
def test_out_path_that_cannot_be_a_directory_is_an_output_error(
        monkeypatch, tmp_path, capsys, argv, sub):
    """An --out that is an existing file, or lies under one, exits 2
    naming the path, before any model is built."""
    monkeypatch.setattr(cli, "train_run", lambda cfg: pytest.fail("ran"))
    monkeypatch.setattr(cli.bb, "build", lambda *a, **kw: pytest.fail("built"))
    blocker = tmp_path / "F"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if sub else blocker
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot create {out}: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


def test_eval_shape_mismatch_reports_diff(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--steps", "2", "--seed", "0", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out / "model-final.mfil"),
                 "--d-state", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "checkpoint error" in err and "shape mismatch" in err


def test_eval_missing_checkpoint_is_a_checkpoint_error(tmp_path, capsys):
    missing = tmp_path / "missing.mfil"
    assert main(["eval", "--checkpoint", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and str(missing) in err


def test_eval_duplicate_entry_name_is_a_checkpoint_error(tmp_path, capsys):
    path = tmp_path / "dup.mfil"
    save_checkpoint(path, {"w": T.Tensor(np.zeros(2)),
                           "x": T.Tensor(np.ones(2))})
    blob = path.read_bytes()
    assert blob.count(b"x") == 1  # the second entry's one-byte name
    path.write_bytes(blob.replace(b"x", b"w"))
    assert main(["eval", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:")
    assert "entry 'w' appears twice: entries 0 and 1" in err


@pytest.mark.parametrize("flag,value", [("--out", "evaluated"),
                                        ("--steps", "5")])
def test_eval_rejects_train_only_flags(tmp_path, capsys, flag, value):
    """``eval`` reads no output directory or step count, so it refuses
    both flags instead of ignoring them, and creates nothing."""
    arg = str(tmp_path / value) if flag == "--out" else value
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(tmp_path / "c.mfil"), flag, arg])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {arg}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "zoh", "--suite", "merge"]) == 0
    out = capsys.readouterr().out
    assert "[zoh] PASS" in out and "[merge] PASS" in out
    assert "VERIFY: PASS" in out


def test_verify_corrupted_backward_fails_naming_gradcheck(monkeypatch,
                                                          capsys):
    original = T._silu_grad_np
    monkeypatch.setattr(T, "_silu_grad_np",
                        lambda x, s: 1.02 * original(x, s))
    code = main(["verify", "--suite", "gradcheck", "--quick"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[gradcheck] FAIL" in out
    assert "VERIFY: FAIL (gradcheck)" in out


def test_verify_crashing_suite_fails_and_the_next_still_runs(monkeypatch,
                                                             capsys):
    def crash(quick=False):
        raise RuntimeError("boom")
    monkeypatch.setitem(verify.SUITES, "zoh", crash)
    code = main(["verify", "--suite", "zoh", "--suite", "merge"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[zoh] FAIL" in out
    assert "    exception: RuntimeError: boom" in out
    assert "[merge] PASS" in out
    assert "VERIFY: FAIL (zoh)" in out


def _nan_b_bar(*args, **kwargs):
    a_bar, b_bar = reference.discretize_zoh(*args, **kwargs)
    return a_bar, b_bar * np.nan


def _nan_conv2d(*args):
    return T.Tensor(T.conv2d(*args).data * np.nan, check_finite=False)


def _nan(*args):
    return float("nan")


# suite -> (module, name, replacement) that turns the suite's errors NaN.
# The zoh and covariance patches leave the first error of each fold finite.
_NAN_SOURCES = {
    "oracles": (verify, "rel_err", _nan),
    "zoh": (verify, "discretize_zoh", _nan_b_bar),
    "lti": (verify, "rel_err", _nan),
    "scan": (verify, "rel_err", _nan),
    "covariance": (verify, "conv2d", _nan_conv2d),
    "gradcheck": (analysis, "_grad_error", _nan),
    "merge": (verify, "rel_err", _nan),
}


@pytest.mark.parametrize("suite", list(_NAN_SOURCES))
def test_a_nan_error_fails_its_suite(suite, monkeypatch):
    """A NaN error fails its suite by the verdict, not by a crash, and the
    printed line of the failed check reads nan and is marked: a fold with
    Python's ``max`` keeps a finite earlier error, and the NaN passes."""
    module, name, replacement = _NAN_SOURCES[suite]
    monkeypatch.setattr(module, name, replacement)
    logged = []
    [result] = verify.run_suites([suite], quick=True, log=logged.append)
    assert not result.passed, result.lines
    assert not any(line.startswith("exception") for line in result.lines)
    assert any(" nan" in line and line.endswith("  <- FAIL")
               for line in logged), logged


@pytest.mark.parametrize("check, passed", [
    (reference.Check("at the bound", 1e-6, 1e-6), True),
    (reference.Check("nan", float("nan"), 1e-6), False),
    (reference.Check("inf", float("inf"), 1e-6), False),
    (reference.Check("negative zero", -0.0, 0.0), True),
    (reference.Check("false fact", False), False),
    (reference.Check("true fact", np.bool_(True)), True),
], ids=lambda v: v.label if isinstance(v, reference.Check) else None)
def test_check_passes_at_most_its_tolerance(check, passed):
    """A check with a tolerance passes when its value is at most the
    tolerance, so NaN and inf fail; a fact is its own verdict. Its line
    prints the value and the tolerance that decide it."""
    assert check.passed is passed
    if check.tolerance is None:
        assert str(check) == f"{check.label}: {passed}"
    else:
        assert str(check) == (f"{check.label}: {check.value:.3e} "
                              f"(tol {check.tolerance:g})")


def test_run_suites_marks_only_failed_checks(monkeypatch):
    checks = [reference.Check("kept", 0.5, 1.0),
              reference.Check("broken", 2.0, 1.0)]
    monkeypatch.setitem(verify.SUITES, "zoh", lambda quick=False: checks)
    logged = []
    [result] = verify.run_suites(["zoh"], log=logged.append)
    assert not result.passed
    assert logged[1:] == ["    kept: 5.000e-01 (tol 1)",
                          "    broken: 2.000e+00 (tol 1)  <- FAIL"]


def test_run_suites_rejects_unknown_names():
    with pytest.raises(ValueError, match="no_such_suite"):
        verify.run_suites(["zoh", "no_such_suite"])


def test_python_dash_m_mfil_runs_verify():
    src = Path(mfil.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mfil", "verify", "--suite", "zoh"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "VERIFY: PASS" in proc.stdout


def test_report_params_and_flops(capsys):
    assert main(["report", "--kind", "params"]) == 0
    out = capsys.readouterr().out
    assert "33.5M" in out.replace(" ", "")
    assert main(["report", "--kind", "flops"]) == 0
    out = capsys.readouterr().out
    assert "5.6G" in out.replace(" ", "")


def test_report_covariance(capsys):
    assert main(["report", "--kind", "covariance"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "permutation_identity.max_abs_error", "filter_identity.max_abs_error",
        "spectrum.permutation_distance", "spectrum.filter_distance"]
    assert lines[0].endswith(" (tol 1e-10) -> PASS"), lines
    assert lines[1].endswith(" (tol 1e-10) -> PASS"), lines
    assert lines[2].endswith(" (tol 1e-08) -> PASS"), lines


def test_report_erf_writes_pgm(tmp_path, capsys):
    assert main(["report", "--kind", "erf", "--out", str(tmp_path),
                 "--seed", "0"]) == 0
    capsys.readouterr()
    pgm = (tmp_path / "erf-desk.pgm").read_bytes()
    assert pgm.startswith(b"P5\n192 192\n255\n")
    header_len = len(b"P5\n192 192\n255\n")
    assert max(pgm[header_len:]) == 255
    assert (tmp_path / "erf-conv-baseline.pgm").exists()
    assert (tmp_path / "erf-desk.txt").exists()


def test_report_erf_rejects_negative_seed(tmp_path, capsys):
    assert main(["report", "--kind", "erf", "--out", str(tmp_path),
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed must be >= 0, got -1")
    assert not any(tmp_path.iterdir())


def test_report_erf_rejects_malformed_thread_count(monkeypatch, tmp_path,
                                                  capsys):
    monkeypatch.setenv("MFIL_THREADS", "abc")
    monkeypatch.setattr(cli.bb, "build", lambda *a, **kw: pytest.fail("built"))
    assert main(["report", "--kind", "erf", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: MFIL_THREADS must be an integer, got 'abc'\n")
    assert not any(tmp_path.iterdir())
