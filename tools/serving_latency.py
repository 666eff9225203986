"""Time the stages of one-commit `jitdp.pipeline.predict_commits` calls.

Each of the first `--commits` commits of a stream is scored alone with a
trained bundle, as a serving loop scores commits as they land. From the
repository root, after `jitdp evaluate` has written a bundle:

    PYTHONPATH=src python3 tools/serving_latency.py --bundle run/bundle.json \\
        --corpus corpus.jsonl --commits 500

prints one JSON object with the median microseconds per call of each stage
and of the whole call:

- featurize: ordering and featurizing the commit (`featurize_corpus`);
- dataset: encoding its text and normalizing its features
  (`encode_commits`, `_dataset`);
- deep: the deep models' pass (`score_dataset`);
- forest: the simple model (`forest_predict_many`);
- fuse: the rest of the call, which is the bundle's fusion rule and the
  output row.

The stages are timed by wrapping those names in `jitdp.pipeline` for the
run, so the calls timed are the ones `predict_commits` makes. Every commit
is scored once untimed first, so that the timed pass is warm.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from contextlib import contextmanager

# The names predict_commits calls in jitdp.pipeline, by stage.
STAGES = {
    "featurize": ("sort_chronologically", "featurize_corpus"),
    "dataset": ("encode_commits", "normalize_features", "_dataset"),
    "deep": ("score_dataset",),
    "forest": ("forest_predict_many",),
}


@contextmanager
def timed_stages(pipeline, spent: dict):
    """Within the block, each STAGES name in the pipeline module adds its
    wall time to spent[stage]."""
    originals = {name: getattr(pipeline, name) for names in STAGES.values() for name in names}

    def timed(fn, stage):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - start
        return call

    for stage, names in STAGES.items():
        for name in names:
            setattr(pipeline, name, timed(originals[name], stage))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(pipeline, name, fn)


def stage_times(bundle, commits) -> list[dict]:
    """Seconds per stage of predict_commits(bundle, [c]) for each commit."""
    from jitdp import pipeline

    for c in commits:
        pipeline.predict_commits(bundle, [c])
    calls = []
    for c in commits:
        spent = dict.fromkeys(STAGES, 0.0)
        with timed_stages(pipeline, spent):
            start = time.perf_counter()
            pipeline.predict_commits(bundle, [c])
            total = time.perf_counter() - start
        calls.append({**spent, "fuse": total - sum(spent.values()), "total": total})
    return calls


def main(argv=None) -> int:
    from jitdp.corpus import load_commit_stream
    from jitdp.pipeline import load_bundle

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bundle", required=True, help="bundle.json of a pipeline run")
    ap.add_argument("--corpus", required=True, help="JSONL commit stream to score")
    ap.add_argument("--commits", type=int, default=500, help="commits of the stream to score")
    args = ap.parse_args(argv)
    commits = load_commit_stream(args.corpus)[: args.commits]
    calls = stage_times(load_bundle(args.bundle), commits)
    median_us = {stage: statistics.median(call[stage] for call in calls) * 1e6
                 for stage in calls[0]}
    print(json.dumps({"bundle": args.bundle, "commits": len(calls), "median_us": median_us},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
