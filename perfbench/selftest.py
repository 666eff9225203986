"""Self-test of the benchmark: every workload at a tiny input size, traced
and untraced, and every output check shown firing on a deliberately
corrupted output. Takes well under a minute; it is not part of the
repository's test suite.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import one_row  # noqa: E402


def smoke_runs(bench: dict) -> list[str]:
    problems = []
    for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        names = [m["name"] for m in declared]
        for w in bench["workloads"]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            elif list(result["metrics"]) != names:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            elif not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            elif not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{label}: non-finite metric")
            else:
                print(f"ok   smoke {label}: {result['attempted']} operations, none failed")
    return problems


def _fires(name: str, fails: list[str], problems: list[str]) -> None:
    if fails:
        print(f"ok   {name}: {fails[0]}")
    else:
        problems.append(f"check did not fire: {name}")


def corrupted_outputs(work: Path) -> list[str]:
    """Real outputs of a tiny run, then one corruption per check."""
    import numpy as np

    from jitdp import cli, corpus, deep_model, pipeline

    problems = []
    records = corpus.synthesize_corpus(corpus.SyntheticSpec(size=300, seed=11))
    corpus.save_commit_stream(work / "corpus.jsonl", records)
    config = pipeline.RunConfig(corpus=str(work / "corpus.jsonl"), out=str(work / "run"), seed=5,
                                epochs=1, forest_trees=10)
    out = Path(pipeline.run_pipeline(config))
    if checks.sweep_integrity((out / "sweep_log.csv").read_text(),
                              json.loads((out / "bundle.json").read_text())):
        problems.append("sweep check fails on an intact run")

    good = {"sim": {"auc_roc": 0.70, "auc_pr": 0.50}, "com": {"auc_roc": 0.72, "auc_pr": 0.52},
            "bundle": {"auc_roc": 0.80, "auc_pr": 0.60}}
    if checks.criterion_5(good):
        problems.append("criterion 5 fails on passing reports")
    for label, part, key, value in (("component above 0.80", "sim", "auc_roc", 0.81),
                                    ("bundle gain under 0.03", "bundle", "auc_roc", 0.74),
                                    ("bundle AUC-PR below best", "bundle", "auc_pr", 0.51)):
        bad = json.loads(json.dumps(good))
        bad[part][key] = value
        _fires(f"criterion 5 / {label}", checks.criterion_5(bad), problems)

    log = (out / "sweep_log.csv").read_text()
    bundle = json.loads((out / "bundle.json").read_text())
    _fires("sweep / 19 rows", checks.sweep_integrity("\n".join(log.splitlines()[:-1]), bundle),
           problems)
    rows = [ln.split(",") for ln in log.splitlines()[1:]]
    loser = min(rows, key=lambda r: float(r[4]))
    _fires("sweep / bundle not the argmax",
           checks.sweep_integrity(log, dict(bundle, early=loser[0], late=loser[1])), problems)

    hashes = checks.artifact_hashes(out)
    ckpt = out / "com.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-1] + b"\0")
    _fires("artifact hashes / one byte changed", checks.same_hashes(hashes, checks.artifact_hashes(out)),
           problems)

    # The first run's checkpoint is corrupted now, so serve a second one.
    stream = corpus.load_commit_stream(work / "corpus.jsonl")[:30]
    served = Path(pipeline.run_pipeline(replace(config, out=str(work / "run2")), until="sweep"))
    loaded = cli.load_bundle(served / "bundle.json")
    good_rows = cli.predict_commits(loaded, stream)
    ids = [c.commit_id for c in stream]
    if checks.prediction_rows(good_rows, ids):
        problems.append("row check fails on intact predictions")
    first = list(good_rows[0])
    for label, rows_ in (
        ("rows / order swapped", [good_rows[1], good_rows[0]] + good_rows[2:]),
        ("rows / one missing", good_rows[:-1]),
        ("rows / score above 1", [tuple([first[0], 1.2] + first[2:])] + good_rows[1:]),
        ("rows / NaN score", [tuple(first[:3] + [float("nan")] + first[4:])] + good_rows[1:]),
        ("rows / class flipped", [tuple(first[:2] + [1 - first[2]] + first[3:])] + good_rows[1:]),
    ):
        _fires(label, checks.prediction_rows(rows_, ids), problems)
    cli.write_predictions(work / "pred.csv", good_rows[:-1])
    _fires("predictions file / truncated", checks.predictions_file(work / "pred.csv", good_rows),
           problems)
    _fires("serving bundle / late none", checks.bundle_uses_all_models(replace(loaded, late="none")),
           problems)

    ds = deep_model.build_dataset(stream, loaded.vocab, loaded.shape)
    cfg = replace(loaded.deep_cfg, epochs=2)
    params, train_log = deep_model.train_deep(ds, ds, len(loaded.vocab), cfg, seed=1)
    if checks.train_log(train_log, 2) + checks.finite_params(params):
        problems.append("training checks fail on an intact run")
    _fires("train log / NaN loss",
           checks.train_log([replace(train_log[0], train_loss=float("nan"))] + train_log[1:], 2),
           problems)
    _fires("train log / epoch missing", checks.train_log(train_log[:1], 2), problems)
    bad_params = dict(params, clf_wo=np.full(2, np.inf))
    _fires("params / infinite entry", checks.finite_params(bad_params), problems)
    _fires("scores / below 0", checks.scores_in_unit_range([0.5, -0.1]), problems)
    batch = deep_model.score_dataset(params, cfg, ds)
    one = deep_model.score_dataset(params, cfg, one_row(ds, 0))
    if checks.same_score(ids[0], float(one[0]), float(batch[0])):
        problems.append("one-commit score check fails on an intact score")
    _fires("one-commit score / differs from batch",
           checks.same_score(ids[0], float(one[0]), float(batch[0]) + 1e-3), problems)
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = smoke_runs(bench)
    work = ROOT / ".perfbench-work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems += corrupted_outputs(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
