"""Time `jitdp.features.featurize_corpus` on generated commit streams of
several sizes, to show how its cost per commit grows with the stream.

The streams come from the benchmark's own generator (`perfbench/inputs.py`,
imported read-only) at the `predict_stream` text shapes and one seed. From the repository root:

    PYTHONPATH=src python3 tools/feature_scaling.py --sizes 4000 16000 64000

prints one JSON object: per size, the best and the median wall time of
`--repeats` featurize_corpus calls and the median in microseconds per
commit, plus the ratio of the largest size's median per commit to the
smallest's.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _generator():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def make_stream(size: int, seed: int) -> list:
    """`size` chronologically sorted CommitRecords from the benchmark generator."""
    from jitdp.corpus import parse_commit_line

    inputs = _generator()
    shape = inputs.PREDICT
    spec = inputs.GenSpec(commits=size, l_msg=shape["l_msg"], l_code=shape["l_code"],
                          files=shape["files"], seed=seed, prefix="s")
    return [parse_commit_line(json.dumps(c), i + 1) for i, c in enumerate(inputs.generate(spec))]


def time_featurize(stream, repeats: int) -> list[float]:
    from jitdp.features import featurize_corpus

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        featurize_corpus(stream)
        times.append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[4_000, 16_000, 64_000])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=8_801)
    args = ap.parse_args(argv)
    sizes = {}
    for size in sorted(args.sizes):
        times = time_featurize(make_stream(size, args.seed), args.repeats)
        median = statistics.median(times)
        sizes[str(size)] = {"best_s": min(times), "median_s": median,
                            "us_per_commit": median / size * 1e6}
    per_commit = [s["us_per_commit"] for s in sizes.values()]
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "sizes": sizes,
                      "largest_over_smallest": per_commit[-1] / per_commit[0]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
