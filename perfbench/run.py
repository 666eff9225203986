"""jitdp benchmark runner.

One workload per process:

    python3 perfbench/run.py --workload desk_evaluate --seed 1 --seconds 30 --trace 0

prints the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``) and, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics.
Every workload in turn, then each workload's metrics under their own names
(evaluate_s, train_commits_per_s, predict_commits_per_s and the rest):

    python3 perfbench/run.py --all --seed 1

Inputs are generated from the seed in a child process before anything is
timed. Working files go to ``.perfbench-work/`` at the repository root;
result records and span dumps stay there after the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench-work"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Facts recorded with every result
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {ln.split()[-1] for ln in handle if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(args, bench: dict) -> int:
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}'; choose from {', '.join(names)}")
    # The program hashes its config, corpus path included, into bundle.json
    # and metrics.json; a fixed directory keeps those bytes equal across
    # runs, so the desk workload can compare artifact hashes between runs.
    work = STATE / f"work-{args.workload}"
    if work.exists():
        shutil.rmtree(work)
    try:
        return _run(args, bench, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, bench: dict, work: Path) -> int:
    inputs = work / "inputs"
    gen = subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
                          "--seed", str(args.seed), "--out", str(inputs), "--scale", args.scale],
                         cwd=ROOT, timeout=600)
    if gen.returncode != 0:
        fail("input generation failed")
    props = json.loads((inputs / "inputs.json").read_text())

    # Set-up starts here: importing the program is the first part of it.
    start = perf_counter()
    import numpy as np

    sys.path.insert(0, str(SRC))
    import jitdp.cli
    import jitdp.corpus
    import jitdp.deep_model
    import jitdp.evaluation
    import jitdp.features
    import jitdp.fusion
    import jitdp.nn
    import jitdp.pipeline
    import jitdp.textprep
    import_s = perf_counter() - start
    if Path(jitdp.__file__).resolve().parent != (SRC / "jitdp").resolve():
        fail(f"imported jitdp from {jitdp.__file__}, not from {SRC}")

    import spans
    from workloads import MAIN_SHARE, WORKLOADS, latency_stats

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "machine": machine_facts(np),
              "run": run_facts(), "inputs": props}
    wl = WORKLOADS[args.workload](jitdp, inputs, props, work, args.scale, args.seconds, args.seed,
                                  STATE)
    wl.facts["source_sha256"] = record["run"]["source_sha256"]
    wl.prepare()

    # Set-up: imports plus the median set-up repetition. A traced run
    # measures raw times and makes no speed calibrations.
    wl.clock.enabled = not args.trace
    setup_raw = []
    with wl.clock.phase() as phase:
        for rep in range(wl.setup_repeats):
            paused = phase.paused
            start = perf_counter()
            wl.setup(rep)
            setup_raw.append(perf_counter() - start - (phase.paused - paused))
    raw_setup_s = import_s + statistics.median(setup_raw)

    tracer = None
    if args.trace:
        # Untraced reference first, then the traced run of the same unit.
        wl.run_main("ref", deadline=0.0)
        tracer = spans.Tracer()
        spans.instrument(tracer, jitdp)
        wl.tracer = tracer
        try:
            wl.run_main("traced", deadline=0.0)
            wl.single_calls(deadline=perf_counter() + max(args.seconds - wl.main_raw[-1], 0.0))
        finally:
            tracer.uninstall()
    else:
        start = perf_counter()
        wl.run_main("run", deadline=start + MAIN_SHARE * args.seconds)
        wl.single_calls(deadline=start + args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reported = dict(wl.reported(), **{"raw.setup_s": (raw_setup_s, "s", "lower")})
    record.update({
        "import_s": import_s,
        "setup_raw_s": setup_raw,
        "main_raw_s": wl.main_raw,
        "speed": {"setup_factor": phase.factor(), "main_factors": wl.main_factors,
                  "single_factor_median": statistics.median(wl.single_factors),
                  "kernel_runs": len(wl.clock.kernel_times())},
        "single_calls": {"scaled": latency_stats(wl.one_commit_ms()),
                         "raw": latency_stats(wl.one_commit_ms(scaled=False))},
        "facts": wl.facts,
        "failures": wl.failures,
        "reported_metrics": {k: {"value": v, "unit": u, "better": b}
                             for k, (v, u, b) in reported.items()},
    })
    if tracer is None:
        values = wl.e2e(raw_setup_s * phase.factor(), peak_rss_mb)
        declared = bench["end_to_end"]
    else:
        roots = {wl.main_root, wl.single_root}
        values = spans.layer_metrics(tracer.spans, roots, wl.extra_counts)
        reference, traced = wl.main_raw[0], wl.main_raw[1]
        values.update({
            "pipeline.single_vs_batch_max_abs_diff": wl.facts.get("single_vs_batch_max_abs_diff", 0.0),
            "trace.overhead_s": traced - reference,
            "trace.overhead_share": (traced - reference) / reference,
            "trace.span_coverage": spans.coverage(tracer.spans, roots),
            "trace.spans": len(tracer.spans),
        })
        declared = bench["per_layer"]
        (STATE / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = STATE / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"no value for declared metrics: {', '.join(missing)}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    record["metrics"] = metrics
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    record_path = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    mach, run = record["machine"], record["run"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}")
    print(f"  machine: nproc={mach['nproc']} cpu={mach['cpu_model']!r} python={mach['python']}"
          f" numpy={mach['numpy']} blas={mach['blas_name']} {mach['blas_version']}"
          f" blas_threads={mach['blas_threads']} env={mach['env']}")
    print(f"  run: commit={run['git_commit']} dirty={run['git_dirty']}"
          f" src_sha256={run['source_sha256'][:16]}")
    for m in declared:
        print(f"  {m['name']:<42} {metrics[m['name']]['value']:>14.6g} {m['unit']:<10}"
              f" ({m['better']} is better)")
    for name, m in record["reported_metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']:<10} ({m['better']} is better;"
              f" reported, not gated)")
    print(f"  samples: set-up {len(setup_raw)}, main unit {len(wl.main_raw)},"
          f" speed kernel runs {len(wl.clock.kernel_times())}")
    lat = record["single_calls"]["scaled"]
    print(f"  single-commit calls: {lat['samples']} samples, median {lat['p50_ms']:.4g} ms,"
          f" p99 {lat['p99_ms']:.4g} ms with {lat['beyond_p99']} samples beyond it (scaled)")
    for failure in wl.failures:
        print(f"  FAILED: {failure}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------


def run_all(args, bench: dict) -> int:
    records, status = [], 0
    for w in bench["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= int(not result["correct"])
        path = next(ln.split(": ", 1)[1] for ln in lines if ln.startswith("record: "))
        records.append(json.loads((ROOT / path).read_text()))
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    print("\nmetrics by workload")
    for rec in records:
        shown = {k: dict(v, better=better[k]) for k, v in rec["metrics"].items()}
        shown.update(rec["reported_metrics"])
        for name, m in shown.items():
            print(f"  {rec['workload']:<16} {name:<28} {m['value']:>12.6g} {m['unit']:<10}"
                  f" ({m['better']} is better)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jitdp benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's self-test")
    args = parser.parse_args(argv)
    if not (SRC / "jitdp" / "__init__.py").is_file():
        fail(f"program source not found at {SRC}")
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        fail(f"{bench_path} not found")
    bench = json.loads(bench_path.read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.all:
        return run_all(args, bench)
    if not args.workload:
        parser.error("give --workload or --all")
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
