"""Benchmark of mfil: one workload per process, checked, timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-gradcheck --seed 0 --seconds 45 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end metrics.
``--trace 1`` splits ``--seconds`` in two: it first runs the untraced
workload for half of it in a child process, then the same work with spans
around every layer boundary, and prints the per-layer metrics and the
tracing overhead. Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metric names and units are those of ``BENCHMARK.json``.
Full detail (environment, distributions, checks, every span name) goes to
``perfbench/out/``. See ``perfbench/NOTES.md``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# Share of an operation's wall time that named spans must cover in a traced
# run; below it a layer is missing from the trace.
MIN_COVERAGE = 0.95


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def summary(values):
    """Sample count, minimum, lower quantiles, median, mean, and the
    highest of p99/p95/p90/p75 that has at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    if not n:
        return {"n": 0}
    out = {"n": n, "min": vals[0], "p50": statistics.median(vals),
           "mean": statistics.fmean(vals)}
    if n >= 2:
        q = statistics.quantiles(vals, n=20, method="inclusive")
        out.update(p5=q[0], p10=q[1], p25=q[4])
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(
                vals, n=100, method="inclusive")[pct - 1]
            break
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mfil").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(np, scipy) -> dict:
    """Core count, library versions and thread settings of this run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    try:
        import ctypes
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in libs.glob("*openblas*"):
            get = getattr(ctypes.CDLL(str(lib)),
                          "scipy_openblas_get_num_threads64_", None)
            if get is not None:
                blas_threads = get()
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MFIL_THREADS": os.environ.get("MFIL_THREADS"),
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def check_results(workload, seed, units, reps, m, source) -> tuple[int, list]:
    """Failed operations from the correctness gate, with a note for each.

    Every training loss must be finite; repeated runs of one seed must give
    bit-identical losses and final evaluation loss, within this process and
    against the digest an earlier run of the same code stored; every forward
    must count exactly the analytic flops.
    """
    failed, notes = 0, []
    for k, rep in enumerate(reps):
        failed += rep.failed
        notes += rep.notes
        bad = sum(not math.isfinite(float.fromhex(r)) for r in rep.results)
        if bad:
            failed += bad
            notes.append(f"rep {k}: {bad} non-finite results")

    def compare(ref_results, ref_final, rep, label):
        diff = sum(a != b for a, b in zip(ref_results, rep.results))
        diff += abs(len(ref_results) - len(rep.results))
        diff += ref_final != rep.final
        if diff:
            notes.append(f"{label}: {diff} results differ")
        return diff

    if workload.name != "desk-gradcheck":  # gradcheck units use new seeds
        for k, rep in enumerate(reps[1:], 1):
            failed += compare(reps[0].results, reps[0].final, rep,
                              f"rep {k} vs rep 0")
    digest_path = OUT / "digests" / f"{workload.name}-seed{seed}-u{units}.json"
    stored = (json.loads(digest_path.read_text()) if digest_path.exists()
              else None)
    if stored is not None and stored["source_sha256"] == source:
        for k, rep in enumerate(reps):
            failed += compare(stored["results"][k], stored["final"][k], rep,
                              f"rep {k} vs stored digest")
    else:
        digest_path.parent.mkdir(parents=True, exist_ok=True)
        digest_path.write_text(json.dumps(
            {"source_sha256": source,
             "results": [rep.results for rep in reps],
             "final": [rep.final for rep in reps]}, indent=1))
    if m.flop_errors:
        failed += len(m.flop_errors)
        notes.append(f"{len(m.flop_errors)} forwards miscounted flops; "
                     f"first: {m.flop_errors[0]}")
    return failed, notes


def end_to_end(import_s, setups, reps, m) -> dict:
    """The bounded metrics. Timings are means: see NOTES.md, "Why means";
    medians, minima and tails are in the detail."""
    return {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "run_s": (statistics.fmean(r.wall_s for r in reps), "s"),
        "step_ms_mean": (m.latencies()["step_ms_mean"], "ms"),
        "forward_ms_mean": (m.latencies()["forward_ms_mean"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def distributions(setups, reps, m) -> dict:
    """Every timing as a distribution, with the samples themselves."""
    op_ms = [1e3 * (b - a) for a, b in m.ops]
    fwd_ms = [1e3 * f[0] for f in m.forwards]
    untaped = [f for f in m.forwards if not f[2]]
    out = {
        "setup_s": summary(setups),
        "run_s": summary([r.wall_s for r in reps]),
        "step_ms": summary(op_ms),
        "forward_ms": summary(fwd_ms),
        "eval_s": summary([e[0] for e in m.evals]),
        "eval_samples_per_s": (sum(f[1] for f in untaped)
                               / sum(f[0] for f in untaped)),
        "forward_flops_total": sum(f[3] for f in m.forwards),
        "samples": {"step_ms": op_ms, "forward_ms": fwd_ms},
    }
    if m.losses:  # training: B x steps / summed step time
        batch = next(f[1] for f in m.forwards if f[2])
        out["train_samples_per_s"] = batch * len(op_ms) / (sum(op_ms) / 1e3)
    return out


def trace_problems(cov, untraced_ok: bool) -> list[str]:
    """Why a traced run is not trustworthy, if it is not."""
    out = []
    if cov["escaped_spans"] or cov["min_self_ms"] < -1e-3:
        out.append(f"spans overlap, so self times count twice: {cov}")
    if not cov["op"] >= MIN_COVERAGE:
        out.append(f"spans cover {cov['op']:.3f} of an operation "
                   f"(< {MIN_COVERAGE})")
    if not untraced_ok:
        out.append("the untraced run failed its checks")
    return out


def run_untraced_child(args, seconds: int) -> tuple[bool, dict[str, float]]:
    """Run the workload untraced in a child process, for the overhead.

    Returns whether it passed its checks and its step and forward medians
    and means.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"untraced run exited {proc.returncode}: {proc.stderr[-2000:]}")
    dist = json.loads((OUT / f"{args.workload}-seed{args.seed}-trace0.json")
                      .read_text())["distributions"]
    return (json.loads(lines[-1])["correct"],
            {f"{k}_{q}": dist[k][q] for k in ("step_ms", "forward_ms")
             for q in ("p50", "mean")})


def select(spec_metrics, computed) -> dict:
    """The metrics BENCHMARK.json names, in its order and with its units."""
    out = {}
    for spec in spec_metrics:
        value, unit = computed[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit} != {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mfil" / "__init__.py").is_file():
        print(f"perfbench: no mfil sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import probes
    import spans
    from workloads import WORKLOADS
    import_s = time.perf_counter() - _T0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # A traced run gives half its time to the untraced child and does the
    # same units itself, so both halves do identical work.
    seconds = max(1, args.seconds // 2) if args.trace else args.seconds
    units = workload.units(seconds)
    if args.trace:
        untraced_ok, untraced_ms = run_untraced_child(args, seconds)

    m = probes.Measure()
    t = spans.Tracer() if args.trace else None
    work = OUT / "work" / workload.name
    setups = []
    with probes.Patcher() as p:
        if t is not None:
            spans.install(p, t, m)
        probes.install(p, m)
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(args.seed)
            setups.append(time.perf_counter() - t0)
        reps = workload.run(args.seed, units, work, m)

    env = environment(np, scipy)
    failed, notes = check_results(workload, args.seed, units, reps, m,
                                  env["source_sha256"])
    attempted = sum(r.attempted for r in reps)
    failed = min(failed, attempted)  # a violation fails at most every op
    detail = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "units": units, "trace": args.trace,
              "environment": env, "attempted": attempted, "failed": failed,
              "notes": notes, "import_s": import_s,
              "distributions": distributions(setups, reps, m),
              "loss_digest": hashlib.sha256(json.dumps(
                  [[r.results, r.final] for r in reps]).encode()).hexdigest()}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    problems = []
    if t is None:
        computed = end_to_end(import_s, setups, reps, m)
        metrics = select(spec["end_to_end"], computed)
    else:
        table = spans.layer_table(t)
        cov = spans.coverage(t, workload.root, m.ops)
        computed = spans.layer_metrics(t, table, m, cov, untraced_ms)
        metrics = select(spec["per_layer"], computed)
        detail.update(
            spans=len(t.start), coverage=cov, table=table,
            per_layer={k: v for k, (v, _) in computed.items()},
            overhead={"traced": m.latencies(), "untraced": untraced_ms})
        problems = trace_problems(cov, untraced_ok)
        notes += problems
        t.save(OUT / f"{stem}-spans.npz")
        print_table(table, workload.root)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    print_summary(detail, metrics)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_table(table, root: str):
    total = table[root]["ms"]
    print(f"{'span':<40} {'calls':>8} {'ms':>11} {'self ms':>11} {'self %':>7}")
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"{name:<40} {r['calls']:>8} {r['ms']:>11.1f} "
              f"{r['self_ms']:>11.1f} {100 * r['self_ms'] / total:>7.2f}")


def print_summary(detail, metrics):
    env = detail["environment"]
    print(f"# {detail['workload']} seed {detail['seed']} units "
          f"{detail['units']} trace {detail['trace']}: nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, {env['blas']} threads {env['blas_threads']}, "
          f"commit {env['git_commit']}")
    print(f"# attempted {detail['attempted']} failed {detail['failed']} "
          f"loss digest {detail['loss_digest'][:16]}")
    for note in detail["notes"]:
        print(f"# note: {note}")
    for name, d in detail["distributions"].items():
        if isinstance(d, dict) and "n" in d:
            print(f"# {name}: " + ", ".join(
                f"{k} {v:.6g}" for k, v in d.items()))
        elif not isinstance(d, dict):
            print(f"# {name}: {d:.6g}")
    for name, v in metrics.items():
        print(f"{name:<40} {v['value']:>14.6g} {v['unit']}")


if __name__ == "__main__":
    sys.exit(main())
