"""Measure `jitdp predict` on generated commit streams of several sizes: its
wall time and the peak memory of its main process and of its worker, to
show how the memory of serving grows with the stream.

The streams and the bundle's training corpus come from the benchmark's own
generator (`perfbench/inputs.py`, imported read-only) at the
`predict_stream` text shapes. The bundle is trained as the
`predict_stream` workload trains it (the desk run config, one epoch), and
each stream is then scored by `jitdp predict` in a new Python process.
From the repository root:

    PYTHONPATH=src python3 tools/predict_memory.py --sizes 4000 16000 64000

prints one JSON object: per size, the wall time of the process, the peak
RSS of its main process (RUSAGE_SELF) and that of its forked worker
(RUSAGE_CHILDREN, 0 when none ran), in MiB, plus the ratio of the largest
size's main-plus-worker peak to the smallest's.

Linux folds the peak RSS of a process image into the RUSAGE_SELF of the
image it execs, and a new process starts as a copy of its parent. So this
script keeps its own process small: the bundle and the streams are made by
a child process (`--prepare`), not here, or every peak would read at least
what this process held.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in the measured process: `jitdp predict`, then its own peak RSS and
# that of its children (the worker), in KiB, on the last line of stdout.
_PREDICT = """
import json, resource, sys
from jitdp.cli import main
code = main(["predict", "--bundle", sys.argv[1], "--corpus", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps([code] + [resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]))
"""


def _generator():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def prepare(work: Path, train: int | None, sizes, seed: int) -> int:
    """Train a bundle on `train` generated commits (the predict_stream
    workload's count if None) into work/bundle, and write one stream per
    size, after the training commits, to work/stream_<size>.jsonl. Returns
    the training count."""
    from jitdp.pipeline import RunConfig, run_pipeline

    inputs = _generator()
    shape = {k: inputs.PREDICT[k] for k in ("l_msg", "l_code", "files")}
    train = train or inputs.PREDICT["train"]
    commits = inputs.generate(inputs.GenSpec(commits=train, seed=inputs.PREDICT_TRAIN_SEED,
                                             prefix="t", **shape))
    inputs.write_jsonl(work / "train.jsonl", commits)
    config = RunConfig(corpus=str(work / "train.jsonl"), out=str(work / "bundle"), seed=5,
                       epochs=1, **shape)
    run_pipeline(config, until="sweep")
    t0 = commits[-1]["timestamp"] + 86_400
    for size in sizes:
        spec = inputs.GenSpec(commits=size, seed=seed, prefix="s", t0=t0, **shape)
        inputs.write_jsonl(work / f"stream_{size}.jsonl", inputs.generate(spec))
    return train


def _run(args, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, **kwargs)


def measure(bundle: Path, stream: Path, out: Path) -> dict:
    """Wall time and peak RSS of one `jitdp predict` process."""
    start = time.perf_counter()
    proc = _run(["-c", _PREDICT, str(bundle), str(stream), str(out)])
    wall = time.perf_counter() - start
    code, main_kib, worker_kib = json.loads(proc.stdout.splitlines()[-1])
    if code:
        raise RuntimeError(f"jitdp predict exited with status {code}: {proc.stderr.strip()}")
    return {"wall_s": wall, "main_peak_mib": main_kib / 1024, "worker_peak_mib": worker_kib / 1024}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[4_000, 16_000, 64_000])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--train", type=int, help="commits the bundle is trained on "
                    "(default: as many as the predict_stream workload's)")
    ap.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sizes = sorted(args.sizes)
    if args.prepare:
        print(prepare(Path(args.prepare), args.train, sizes, args.seed))
        return 0
    report = {}
    with tempfile.TemporaryDirectory(prefix="predict_memory_") as tmp:
        work = Path(tmp)
        made = _run([__file__, "--prepare", tmp, "--seed", str(args.seed),
                     "--sizes", *map(str, sizes), *(["--train", str(args.train)] if args.train else [])])
        train = int(made.stdout.splitlines()[-1])
        for size in sizes:
            report[str(size)] = measure(work / "bundle" / "bundle.json",
                                        work / f"stream_{size}.jsonl", work / "predictions.csv")
    total = [s["main_peak_mib"] + s["worker_peak_mib"] for s in report.values()]
    print(json.dumps({"seed": args.seed, "train": train, "sizes": report,
                      "largest_over_smallest": total[-1] / total[0]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
