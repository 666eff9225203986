"""Measure full-scale deep training: the wall time and the peak memory of a
one-epoch `train_deep` at the full-scale widths, per vocabulary cap, to show
how the memory of training grows with the embedding tables.

The training and validation commits come from the benchmark's own generator
(`perfbench/inputs.py`, imported read-only) at the `fullscale_train`
shapes and counts. Each vocabulary cap is measured in a new Python process,
which loads the commits, featurizes them, builds the vocabulary with that
cap, encodes the text at `TextShape()` and trains the gmf model for one
epoch of `DeepConfig()`, as the `fullscale_train` workload does. From the
repository root:

    PYTHONPATH=src python3 tools/train_memory.py --vocab 5000 10000 20000

prints one JSON object: per cap, the vocabulary size reached, the wall
time of `train_deep`, the minor page faults taken during it (the
`ru_minflt` delta) and the peak RSS of the process (RUSAGE_SELF) in MiB.

Linux folds the peak RSS of a process image into the RUSAGE_SELF of the
image it execs, and a new process starts as a copy of its parent. So this
script keeps its own process small: the commits are generated by a child
process (`--prepare`), not here.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from predict_memory import _generator, _run

# Runs in the measured process: one epoch of train_deep, then the vocabulary
# size, the wall time, the minor faults of train_deep and the process's peak
# RSS in KiB, on the last line of stdout.
_TRAIN = """
import json, resource, sys, time
from dataclasses import replace
from jitdp import corpus, deep_model, features, textprep

path, n_train, cap, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
stream = corpus.sort_chronologically(corpus.load_commit_stream(path))
train, val = stream[:n_train], stream[n_train:]
vectors = features.featurize_corpus(stream)
stats = features.fit_train_stats([vectors[c.commit_id] for c in train])
entries = {i: features.split_and_normalize(v, stats) for i, v in vectors.items()}
docs = []
for c in train:
    docs.append(textprep.tokenize(c.message))
    docs.extend(textprep.render_change_document(f) for f in c.files)
vocab = textprep.build_vocab(docs, max_size=cap)
sets = [deep_model.build_dataset(part, vocab, textprep.TextShape(), entries) for part in (train, val)]
cfg = replace(deep_model.DeepConfig(), epochs=1)
faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
deep_model.train_deep(*sets, len(vocab), cfg, seed=seed, strategy="gmf")
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps([len(vocab), wall, usage.ru_minflt - faults, usage.ru_maxrss]))
"""


def prepare(work: Path, train: int | None, validation: int | None, seed: int) -> list:
    """Write train + validation generated commits (the fullscale_train
    workload's counts where None) at its shapes to work/corpus.jsonl, as
    the workload's inputs are made. Returns [train, validation]."""
    inputs = _generator()
    shape = {k: inputs.FULLSCALE[k] for k in ("l_msg", "l_code", "files")}
    train = train or inputs.FULLSCALE["train"]
    validation = validation or inputs.FULLSCALE["validation"]
    spec = inputs.GenSpec(commits=train + validation, seed=seed, prefix="f", **shape)
    inputs.write_jsonl(work / "corpus.jsonl", inputs.generate(spec))
    return [train, validation]


def measure(corpus: Path, train: int, cap: int, seed: int) -> dict:
    """Vocabulary size, train_deep wall time and minor faults, and the peak
    RSS of one process."""
    proc = _run(["-c", _TRAIN, str(corpus), str(train), str(cap), str(seed)])
    size, wall, faults, peak_kib = json.loads(proc.stdout.splitlines()[-1])
    return {"vocab_size": size, "train_s": wall, "minor_faults": faults, "peak_mib": peak_kib / 1024}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--vocab", type=int, nargs="+", default=[5_000, 10_000, 20_000],
                    help="vocabulary caps, one process each")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--train", type=int, help="training commits (default: the workload's)")
    ap.add_argument("--validation", type=int, help="validation commits (default: the workload's)")
    ap.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.prepare:
        print(json.dumps(prepare(Path(args.prepare), args.train, args.validation, args.seed)))
        return 0
    counts = [f"--{k}={v}" for k, v in (("train", args.train), ("validation", args.validation)) if v]
    report = {}
    with tempfile.TemporaryDirectory(prefix="train_memory_") as tmp:
        made = _run([__file__, "--prepare", tmp, "--seed", str(args.seed), *counts])
        train, validation = json.loads(made.stdout.splitlines()[-1])
        for cap in sorted(args.vocab):
            report[str(cap)] = measure(Path(tmp) / "corpus.jsonl", train, cap, args.seed)
    print(json.dumps({"seed": args.seed, "train": train, "validation": validation,
                      "vocab": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
