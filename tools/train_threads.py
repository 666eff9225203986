"""Time full-scale deep training by thread region: one-epoch `train_deep`
units inside `nn.threads(1)` against units run by default, in one process.

`train_deep` runs in a thread region of its own (`nn.threads()`): one BLAS
thread and, on 2 or more CPUs, the packed pool's chunks and Adam's blocks
on a second thread. Inside `nn.threads(1)`, as beside the `evaluate`
worker, every loop runs on one thread. The commits are the
`fullscale_train` workload's (`train_memory.prepare`), trained at
`DeepConfig()` cut to one epoch, `TextShape()`, gmf, as that workload
does. One untimed unit of each side warms the process; then each pair runs
one unit of each side, the order alternating from pair to pair, so that
the machine's drift falls on both sides alike (Kalibera & Jones, ISMM
2013, "Rigorous Benchmarking in Reasonable Time"). From the repository
root:

    PYTHONPATH=src python3 tools/train_threads.py --pairs 10

prints one JSON object: per side the median wall and CPU seconds of a unit
(CPU time of every thread of the process), the median over pairs of the
one-thread wall time over the default's (`ratio`), the pairs in which the
default was faster (`wins`), and whether every unit returned the same
params bit for bit (`same_params`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from train_memory import prepare

from jitdp import corpus, deep_model, features, nn, textprep

SIDES = {"one_thread": lambda: nn.threads(1), "default": nullcontext}


def datasets(path: Path, train: int) -> tuple:
    """The training and validation DeepDatasets of the commits at path and
    the vocabulary size, as the fullscale_train workload builds them."""
    stream = corpus.sort_chronologically(corpus.load_commit_stream(path))
    vectors = features.featurize_corpus(stream)
    stats = features.fit_train_stats([vectors[c.commit_id] for c in stream[:train]])
    entries = {i: features.split_and_normalize(v, stats) for i, v in vectors.items()}
    docs = []
    for c in stream[:train]:
        docs.append(textprep.tokenize(c.message))
        docs.extend(textprep.render_change_document(f) for f in c.files)
    vocab = textprep.build_vocab(docs)
    sets = tuple(deep_model.build_dataset(part, vocab, textprep.TextShape(), entries)
                 for part in (stream[:train], stream[train:]))
    return (*sets, len(vocab))


def unit(side: str, train_ds, val_ds, vocab_size: int, seed: int) -> tuple:
    """(wall s, CPU s, params sha256) of one one-epoch gmf train_deep."""
    cfg = replace(deep_model.DeepConfig(), epochs=1)
    wall, cpu = time.perf_counter(), time.process_time()
    with SIDES[side]():
        params, _ = deep_model.train_deep(train_ds, val_ds, vocab_size, cfg, seed=seed, strategy="gmf")
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    digest = hashlib.sha256(b"".join(params[n].tobytes() for n in sorted(params))).hexdigest()
    return wall, cpu, digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--train", type=int, help="training commits (default: the workload's)")
    ap.add_argument("--validation", type=int, help="validation commits (default: the workload's)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="train_threads_") as tmp:
        train, validation = prepare(Path(tmp), args.train, args.validation, args.seed)
        *sets, vocab_size = datasets(Path(tmp) / "corpus.jsonl", train)
    digests = {unit(side, *sets, vocab_size, args.seed)[2] for side in SIDES}
    times = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in list(SIDES)[:: 1 if pair % 2 == 0 else -1]:
            wall, cpu, digest = unit(side, *sets, vocab_size, args.seed)
            times[side].append((wall, cpu))
            digests.add(digest)
    pairs = list(zip(times["one_thread"], times["default"]))
    report = {"seed": args.seed, "train": train, "validation": validation, "vocab_size": vocab_size,
              "pairs": args.pairs}
    for side, runs in times.items():
        report[side] = {"wall_s": statistics.median(w for w, _ in runs),
                        "cpu_s": statistics.median(c for _, c in runs)}
    report["ratio"] = statistics.median(one[0] / default[0] for one, default in pairs)
    report["wins"] = sum(default[0] < one[0] for one, default in pairs)
    report["same_params"] = len(digests) == 1
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
