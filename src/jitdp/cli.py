"""Command-line surface.

Subcommands: synthesize, extract-features, train, sweep, evaluate,
drop-experiment, predict, explain. Exit codes: 0 success, 1 usage error,
2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .corpus import DataError, SyntheticSpec, csv_line, load_commit_stream, save_commit_stream, synthesize_corpus
from .deep_model import TrainingError
from .pipeline import (
    PREDICTIONS_HEADER,
    PipelineError,
    RunConfig,
    config_from_dict,
    explain_commit,
    load_bundle,
    predict_commits,
    read_feature_table,
    run_pipeline,
    write_predictions,
    writing,
)

USAGE_ERROR = 1
DATA_ERROR = 2
TRAINING_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--config", help="JSON run-config file")
    sub.add_argument("--corpus", help="commit stream (JSON lines)")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, help="run seed")


def _resolve_config(args) -> RunConfig:
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                config = config_from_dict(json.load(handle))
        except FileNotFoundError as exc:
            raise DataError(f"config file not found: {args.config}") from exc
        except (json.JSONDecodeError, TypeError) as exc:
            raise ValueError(f"bad config file {args.config}: {exc}") from exc
    else:
        config = RunConfig()
    overrides = {}
    for key in ("corpus", "out", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if overrides:
        config = config_from_dict(config.as_dict() | overrides)
    if not config.corpus:
        raise ValueError("no corpus given (use --corpus or the config file)")
    return config


def build_parser() -> _Parser:
    parser = _Parser(prog="jitdp", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synthesize", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--size", type=int, default=1000)
    p.add_argument("--imbalance", type=float, default=3.0)
    p.add_argument("--feature-strength", type=float, default=0.5)
    p.add_argument("--text-strength", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)

    for name, helptext in (
        ("extract-features", "emit the 14-feature table"),
        ("train", "train the simple, deep, and early-fused models"),
        ("sweep", "run the 20-combination fusion sweep"),
        ("evaluate", "full pipeline: train, sweep, and test-set reports"),
        ("drop-experiment", "re-run the pipeline per large-commit drop rate"),
    ):
        p = subs.add_parser(name, help=helptext)
        _add_common(p)
        if name == "drop-experiment":
            p.add_argument("--rates", help="comma-separated drop fractions, e.g. 0,0.1,0.2")

    p = subs.add_parser("predict", help="score a commit stream with a trained bundle")
    p.add_argument("--bundle", required=True, help="bundle.json from a pipeline run")
    p.add_argument("--corpus", required=True, help="commit stream to score")
    p.add_argument("--out", help="output CSV (stdout when omitted)")

    p = subs.add_parser("explain", help="explain the simple model's score for one commit")
    p.add_argument("--bundle", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--commit", required=True, help="commit id to explain")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output prefix; writes <out>.txt and <out>.json")
    return parser


_UNTIL = {"extract-features": "features", "train": "train", "sweep": "sweep",
          "evaluate": "evaluate", "drop-experiment": "evaluate"}


def _run(args) -> int:
    config = _resolve_config(args)
    if args.command == "drop-experiment":
        rates = config.drop_rates
        if getattr(args, "rates", None):
            rates = tuple(float(r) for r in args.rates.split(","))
        if not rates:
            raise ValueError("drop-experiment needs --rates or drop_rates in the config")
        config = config_from_dict(config.as_dict() | {"drop_rates": list(rates)})
    out = run_pipeline(config, until=_UNTIL[args.command])
    print(f"artifacts written to {out}")
    return 0


def _check_out(path) -> None:
    """Fail as writing() reports it, before any work, when the file `path`
    could not be written: its directory is missing, is not a directory or
    is read-only, or the path is a directory. The file is not opened, so a
    later failure leaves nothing behind."""
    parent = Path(path).parent
    code = (errno.ENOENT if not parent.exists() else errno.ENOTDIR if not parent.is_dir()
            else errno.EISDIR if Path(path).is_dir()
            else errno.EACCES if not os.access(parent, os.W_OK | os.X_OK) else None)
    if code is not None:
        with writing():
            raise OSError(code, os.strerror(code), str(path))


def _predict(args) -> int:
    if args.out:
        _check_out(args.out)
    bundle = load_bundle(args.bundle)
    corpus = load_commit_stream(args.corpus)
    rows = predict_commits(bundle, corpus)
    if args.out:
        with writing():
            write_predictions(args.out, rows)
        print(f"{len(rows)} predictions written to {args.out}")
    else:
        print(PREDICTIONS_HEADER)
        for row in rows:
            print(csv_line(row))
    return 0


def _explain(args) -> int:
    if args.out:
        _check_out(args.out + ".txt")
    bundle = load_bundle(args.bundle)
    corpus = load_commit_stream(args.corpus)
    base = Path(args.bundle).parent
    ids, matrix, _ = read_feature_table(base / "features.csv")
    train_ids = set((base / "train_ids.txt").read_text(encoding="utf-8").split())
    rows = np.array([row for cid, row in zip(ids, matrix) if cid in train_ids])
    explanation = explain_commit(bundle, corpus, args.commit, rows,
                                 n_samples=args.samples, seed=args.seed)
    if args.out:
        with writing():
            Path(args.out + ".txt").write_text(explanation.as_text() + "\n", encoding="utf-8")
            with open(args.out + ".json", "w", encoding="utf-8") as handle:
                json.dump(asdict(explanation), handle, sort_keys=True, indent=1)
        print(f"explanation written to {args.out}.txt and {args.out}.json")
    else:
        print(explanation.as_text())
    return 0


def _synthesize(args) -> int:
    _check_out(args.out)
    spec = SyntheticSpec(size=args.size, imbalance=args.imbalance,
                         feature_strength=args.feature_strength,
                         text_strength=args.text_strength, seed=args.seed)
    corpus = synthesize_corpus(spec)
    with writing():
        save_commit_stream(args.out, corpus)
    print(f"{len(corpus)} commits written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synthesize":
            return _synthesize(args)
        if args.command == "predict":
            return _predict(args)
        if args.command == "explain":
            return _explain(args)
        return _run(args)
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        cause = exc.cause
        if isinstance(cause, TrainingError):
            return TRAINING_ERROR
        if isinstance(cause, DataError):
            return DATA_ERROR
        if isinstance(cause, ValueError):
            return USAGE_ERROR
        return DATA_ERROR
    except TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return TRAINING_ERROR
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
