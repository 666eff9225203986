"""The three workloads. Each runs in one process as a closed loop with one
caller: set-up (program work before the timed phase), then the timed phase:
the main unit, repeated while another repetition of the same length would
end within ``MAIN_SHARE`` of ``--seconds``, then single-commit calls: at
least ``SINGLE_CALLS`` of them and on until ``--seconds`` have passed.

* ``desk_evaluate``: an acceptance-config ``run_pipeline`` on the pinned
  acceptance corpus; single-commit ``predict_commits`` calls with the bundle
  it wrote, on its test split.
* ``fullscale_train``: ``train_deep`` with the full-scale ``DeepConfig``
  and ``TextShape`` (strategy ``gmf``); single-commit ``score_dataset``
  calls with the trained parameters, on the validation commits.
* ``predict_stream``: in-process ``jitdp predict`` on a 16,000-commit stream
  (phase A); single-commit ``predict_commits`` calls (phase B). The bundle
  is trained before set-up.

In untraced runs a timer signal interrupts set-up, every main unit and the
single-commit calls to measure the machine speed (``speed.py``); the gated
times are net of those pauses and scaled by that speed. Every call into the program goes through the
module attribute that the tracer wraps, so a traced run sees the same calls.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import speed
from spans import pad_counts

# The acceptance RunConfig (tests/test_acceptance.py): seed 5, shapes
# 24/48/4, embed 8, filters 8, hidden 32, 10 epochs, batch 32, lr 4e-3,
# 100 trees and all four early strategies; threads stays 1.
ACCEPTANCE_CONFIG = dict(seed=5, l_msg=24, l_code=48, files=4, embed_dim=8, filters=8, hidden=32,
                         epochs=10, batch_size=32, lr=4e-3, dropout=0.25)
# Main units stop repeating by this share of --seconds; single-commit calls
# fill the rest.
MAIN_SHARE = 0.7
# At least this many single-commit calls, so that ten lie beyond the 99th
# percentile.
SINGLE_CALLS = {"full": 1000, "smoke": 20}
# One epoch per full-scale unit: four or five units fit in a run, and their
# median is steadier than that of two longer ones.
FULLSCALE_EPOCHS = 1
# The serving bundle trains one epoch: with it the sweep picks sc+weighted,
# so the stream is scored by all three models.
BUNDLE_EPOCHS = 1
# Stream commits the predict_stream set-up scores to warm the serving path.
WARM_COMMITS = 1000


def latency_stats(ms: list[float]) -> dict:
    ms = np.asarray(ms)
    p99 = float(np.percentile(ms, 99))
    return {"samples": int(ms.size), "p50_ms": float(np.median(ms)), "p99_ms": p99,
            "beyond_p99": int((ms > p99).sum())}


def one_row(ds, i: int):
    """Row i of a DeepDataset as a dataset of its own."""
    sl = slice(i, i + 1)
    return replace(ds, commit_ids=ds.commit_ids[sl], message_ids=ds.message_ids[sl],
                   file_ids=ds.file_ids[sl], x_cat=ds.x_cat[sl], x_cont=ds.x_cont[sl],
                   labels=ds.labels[sl])


def warm_step(jitdp, cfg, ds, vocab_size: int, strategy: str, batch: int) -> None:
    """One forward and backward pass at the workload's shapes, so that the
    first timed step does not pay for first-touch allocation."""
    dm = jitdp.deep_model
    rng = np.random.default_rng(0)
    params = dm.init_deep_params(rng, vocab_size, cfg, strategy, ds.x_cat.shape[1], ds.x_cont.shape[1])
    sl = slice(0, batch)
    probs, _, _, cache = dm.forward_batch(params, cfg, ds.message_ids[sl], ds.file_ids[sl],
                                          ds.x_cat[sl], ds.x_cont[sl], strategy, True, rng)
    labels = np.maximum(ds.labels[sl], 0)
    _, d_logits = jitdp.nn.cross_entropy_batch(probs, labels)
    dm.backward_batch(params, cache, d_logits)


class Workload:
    name = ""
    setup_repeats = 5
    main_root = "bench.main"
    single_root = "bench.single"

    def __init__(self, jitdp, inputs: Path, props: dict, work: Path, scale: str, seconds: float,
                 seed: int, state: Path):
        self.jitdp = jitdp
        self.inputs = inputs
        self.props = props
        self.work = work
        self.scale = scale
        self.seconds = seconds
        self.seed = seed
        self.state = state
        self.tracer = None
        self.clock = speed.Clock()
        # Net times (calibration pauses taken out) and their speed scales.
        self.main_raw: list[float] = []
        self.main_factors: list[float] = []
        self.single_raw: list[float] = []
        self.single_factors: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.facts: dict = {}
        self.extra_counts: dict = {}

    def _root(self, name):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.root(name)

    def _op(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.extend(fails[: max(0, 20 - len(self.failures))])

    # Subclasses define setup(rep), unit(tag) -> result, check(result),
    # single_items() -> [(label, call, expected)] and named_metrics(); they
    # may define prepare() for program work that is neither set-up nor timed.

    def prepare(self) -> None:
        pass

    def release(self) -> None:
        """Drop the previous main unit's outputs before the next one."""

    def run_main(self, tag: str, deadline: float) -> None:
        """The main unit once, then again while another repetition of the
        same length would end by the deadline."""
        raw: list[float] = []
        while not raw or perf_counter() + raw[-1] <= deadline:
            self.release()
            gc.collect()
            with self._root(self.main_root), self.clock.phase() as phase:
                start = perf_counter()
                result = self.unit(f"{tag}{len(raw)}")
                raw.append(perf_counter() - start - phase.paused)
            self.main_raw.append(raw[-1])
            self.main_factors.append(phase.factor())
            self.check(result)
            del result

    def single_calls(self, deadline: float) -> None:
        """One-commit calls, cycling through single_items(), at least
        SINGLE_CALLS of them and on until the deadline."""
        marks = []
        gc.collect()
        with self._root(self.single_root):
            items = self.single_items()
            with self.clock.phase() as phase:
                while len(self.single_raw) < SINGLE_CALLS[self.scale] or perf_counter() < deadline:
                    label, call, expected = items[len(self.single_raw) % len(items)]
                    paused = phase.paused
                    marks.append(len(phase.calibrations))
                    start = perf_counter()
                    result = call()
                    self.single_raw.append(perf_counter() - start - (phase.paused - paused))
                    self._op(self.check_single(label, result, expected))
        self.single_factors = phase.local_factors(marks)

    def commits_per_s(self, scaled: bool = True) -> float:
        factors = self.main_factors if scaled else [1.0] * len(self.main_raw)
        return statistics.median(self.commits_per_unit / (w * f)
                                 for w, f in zip(self.main_raw, factors))

    def one_commit_ms(self, scaled: bool = True) -> list[float]:
        factors = self.single_factors if scaled else [1.0] * len(self.single_raw)
        return [s * 1e3 * f for s, f in zip(self.single_raw, factors)]

    def e2e(self, setup_s: float, peak_rss_mb: float) -> dict:
        return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                "commits_per_s": self.commits_per_s(),
                "one_commit_p50_ms": statistics.median(self.one_commit_ms())}

    def reported(self) -> dict:
        """Metrics printed and recorded but not gated: the raw counterparts
        of the scaled gated times, and the machine speed."""
        lat = latency_stats(self.one_commit_ms())
        raw = latency_stats(self.one_commit_ms(scaled=False))
        return {
            "one_commit_p99_ms": (lat["p99_ms"], "ms", "lower"),
            "raw.commits_per_s": (self.commits_per_s(scaled=False), "commits/s", "higher"),
            "raw.one_commit_p50_ms": (raw["p50_ms"], "ms", "lower"),
            "speed.kernel_ms": (statistics.fmean(self.clock.kernel_times() or [0.0]) * 1e3, "ms",
                                "lower"),
            **self.named_metrics(),
        }


class _ServesBundle(Workload):
    """Single-commit predict_commits calls with a bundle; each is compared
    with the commit's fused score in a batch."""

    def _bundle_items(self, bundle, commits, batch_fused: dict) -> list:
        predict = self.jitdp.cli.predict_commits
        return [(c.commit_id, (lambda c=c: predict(bundle, [c])), batch_fused[c.commit_id])
                for c in commits]

    def check_single(self, label, rows, batch_fused) -> list[str]:
        skew = abs(rows[0][1] - batch_fused) if rows else 0.0
        self.facts["single_vs_batch_max_abs_diff"] = max(
            skew, self.facts.get("single_vs_batch_max_abs_diff", 0.0))
        return checks.prediction_rows(rows, [label])


class DeskEvaluate(_ServesBundle):
    name = "desk_evaluate"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        pipeline = self.jitdp.pipeline
        cfg = dict(ACCEPTANCE_CONFIG)
        if self.scale == "smoke":
            cfg.update(epochs=1, forest_trees=10)
        self.config = pipeline.RunConfig(corpus=str(self.inputs / "corpus.jsonl"), **cfg)
        self.commits_per_unit = self.props["corpus.jsonl"]["commits"]
        self.outs: list[Path] = []

    def setup(self, rep: int) -> None:
        # Load, split and features of the same corpus, plus one deep step.
        out = self.work / f"warm{rep}"
        self.jitdp.pipeline.run_pipeline(replace(self.config, out=str(out)), until="features")
        corpus = self.jitdp.corpus.sort_chronologically(
            self.jitdp.corpus.load_commit_stream(self.config.corpus))[:64]
        vocab = self.jitdp.textprep.build_vocab(
            [self.jitdp.textprep.tokenize(c.message) for c in corpus], min_frequency=1)
        ds = self.jitdp.deep_model.build_dataset(corpus, vocab, self.config.text_shape())
        warm_step(self.jitdp, self.config.deep_config(), ds, len(vocab), "none",
                  self.config.batch_size)

    def unit(self, tag: str) -> Path:
        out = self.work / f"run_{tag}"
        self.jitdp.pipeline.run_pipeline(replace(self.config, out=str(out)))
        return out

    def check(self, out: Path) -> None:
        fails = checks.desk_outputs(out, criterion_5_applies=self.scale == "full")
        fails += self._same_as_before(checks.artifact_hashes(out))
        self._op(fails)
        self.outs.append(out)

    def _same_as_before(self, hashes: dict) -> list[str]:
        # Every run of one program version must write identical artifacts:
        # within this process, and across processes through a file keyed by
        # the program's source digest.
        if self.outs:
            return checks.same_hashes(checks.artifact_hashes(self.outs[0]), hashes)
        path = self.state / f"desk-artifacts-{self.facts['source_sha256'][:16]}-{self.scale}.json"
        if path.exists():
            return checks.same_hashes(json.loads(path.read_text()), hashes)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
        return []

    def single_items(self) -> list:
        out = self.outs[-1]
        by_id = {c.commit_id: c for c in self.jitdp.corpus.load_commit_stream(self.config.corpus)}
        lines = (out / "predictions.csv").read_text().splitlines()
        col = lines[0].split(",").index("bundle")
        batch = {ln.split(",")[0]: float(ln.split(",")[col]) for ln in lines[1:]}
        self.facts["single_vs_batch_reference"] = "evaluate's predictions.csv bundle column"
        bundle = self.jitdp.cli.load_bundle(out / "bundle.json")
        return self._bundle_items(bundle, [by_id[cid] for cid in batch], batch)

    def named_metrics(self) -> dict:
        reports = json.loads((self.outs[-1] / "metrics.json").read_text())["reports"]
        return {
            "evaluate_s": (statistics.median(self.main_raw), "s", "lower"),
            "bundle_auc_roc": (reports["bundle"]["auc_roc"], "1", "higher"),
            "bundle_auc_pr": (reports["bundle"]["auc_pr"], "1", "higher"),
        }


class FullscaleTrain(Workload):
    name = "fullscale_train"
    setup_repeats = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        dm = self.jitdp.deep_model
        props = self.props["corpus.jsonl"]
        self.n_train = props["train"]
        self.cfg = replace(dm.DeepConfig(), epochs=FULLSCALE_EPOCHS)
        self.shape = self.jitdp.textprep.TextShape()
        self.commits_per_unit = self.n_train * self.cfg.epochs

    def setup(self, rep: int) -> None:
        j = self.jitdp
        tp = j.textprep
        stream = j.corpus.sort_chronologically(
            j.corpus.load_commit_stream(self.inputs / "corpus.jsonl"))
        train, val = stream[: self.n_train], stream[self.n_train:]
        vectors = j.features.featurize_corpus(stream)
        stats = j.features.fit_train_stats([vectors[c.commit_id] for c in train])
        entries = {i: j.features.split_and_normalize(v, stats) for i, v in vectors.items()}
        docs = []
        for c in train:
            docs.append(tp.tokenize(c.message))
            docs.extend(tp.render_change_document(f) for f in c.files)
        self.vocab = tp.build_vocab(docs)
        self.train_ds = j.deep_model.build_dataset(train, self.vocab, self.shape, entries)
        self.val_ds = j.deep_model.build_dataset(val, self.vocab, self.shape, entries)
        warm_step(j, self.cfg, self.train_ds, len(self.vocab), "gmf", self.cfg.batch_size)
        self.facts["vocab_size"] = len(self.vocab)
        # Padding of the data train_deep consumes; encoding itself is set-up.
        counts = {}
        for ds in (self.train_ds, self.val_ds):
            for key, val_ in pad_counts(ds).items():
                counts[key] = counts.get(key, 0) + val_
        self.extra_counts = counts

    def unit(self, tag: str):
        return self.jitdp.deep_model.train_deep(self.train_ds, self.val_ds, len(self.vocab),
                                                self.cfg, seed=self.seed, strategy="gmf")

    def check(self, result) -> None:
        params, log = result
        self._op(checks.train_log(log, self.cfg.epochs) + checks.finite_params(params))
        self.facts.setdefault("train_loss", []).append([e.train_loss for e in log])
        self.params = params

    def single_items(self) -> list:
        # Batch scores of the validation commits are the reference; scoring
        # one commit alone must give the same score.
        score = self.jitdp.deep_model.score_dataset
        batch = score(self.params, self.cfg, self.val_ds, "gmf")
        return [(cid, (lambda i=i: score(self.params, self.cfg, one_row(self.val_ds, i), "gmf")),
                 float(batch[i])) for i, cid in enumerate(self.val_ds.commit_ids)]

    def check_single(self, label, scores, in_batch) -> list[str]:
        return checks.same_score(label, float(scores[0]), in_batch)

    def named_metrics(self) -> dict:
        return {}


class PredictStream(_ServesBundle):
    name = "predict_stream"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        cfg = dict(ACCEPTANCE_CONFIG, epochs=BUNDLE_EPOCHS)
        self.config = self.jitdp.pipeline.RunConfig(
            corpus=str(self.inputs / "train.jsonl"), out=str(self.work / "bundle"), **cfg)
        self.bundle_path = Path(self.config.out) / "bundle.json"
        props = self.props["stream.jsonl"]
        self.commits_per_unit = props["commits"]
        self.stream_ids = [f"{props['spec']['prefix']}{i:06d}" for i in range(props["commits"])]

    def prepare(self) -> None:
        # Training the serving bundle is run_pipeline, which desk_evaluate
        # times; here it is timed, reported and kept out of set-up.
        start = perf_counter()
        self.jitdp.pipeline.run_pipeline(self.config, until="sweep")
        self.facts["bundle_fit_s"] = perf_counter() - start
        self.warm = self.jitdp.corpus.load_commit_stream(self.inputs / "stream.jsonl")[:WARM_COMMITS]

    def setup(self, rep: int) -> None:
        cli = self.jitdp.cli
        cli.predict_commits(cli.load_bundle(self.bundle_path), self.warm)

    def unit(self, tag: str):
        cli = self.jitdp.cli
        out = self.work / f"predictions_{tag}.csv"
        bundle = cli.load_bundle(self.bundle_path)
        stream = cli.load_commit_stream(self.inputs / "stream.jsonl")
        rows = cli.predict_commits(bundle, stream)
        cli.write_predictions(out, rows)
        return bundle, stream, rows, out

    def release(self) -> None:
        # The previous repetition's outputs would add to this one's peak RSS.
        self.bundle = self.stream = self.rows = None

    def check(self, result) -> None:
        bundle, stream, rows, out = result
        self._op(checks.bundle_uses_all_models(bundle) + checks.prediction_rows(rows, self.stream_ids)
                 + checks.predictions_file(out, rows))
        self.bundle, self.stream, self.rows = bundle, stream, rows
        self.facts["bundle"] = {"early": bundle.early, "late": bundle.late,
                                "weights": bundle.weights}

    def single_items(self) -> list:
        self.facts["single_vs_batch_reference"] = "phase A fused score of the same commit"
        return self._bundle_items(self.bundle, self.stream, {r[0]: r[1] for r in self.rows})

    def named_metrics(self) -> dict:
        return {"bundle_fit_s": (self.facts["bundle_fit_s"], "s", "lower")}


WORKLOADS = {w.name: w for w in (DeskEvaluate, FullscaleTrain, PredictStream)}
