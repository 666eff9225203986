"""Output checks. Each returns a list of failure messages, empty when the
output is correct; a workload counts an operation as failed when any check
on its output fails."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Artifacts that are a pure function of (config, seed, corpus). Paths and
# timings are kept out: config.json and provenance.log name the directories.
DETERMINISTIC_GLOBS = ("*.ckpt", "*.csv", "metrics.json", "bundle.json", "vocab.txt",
                       "train_ids.txt", "sim_forest.json")


def artifact_hashes(out: Path) -> dict:
    names = sorted({p.name for g in DETERMINISTIC_GLOBS for p in Path(out).glob(g)})
    return {n: hashlib.sha256((Path(out) / n).read_bytes()).hexdigest() for n in names}


def same_hashes(reference: dict, actual: dict) -> list[str]:
    if not actual:
        return ["no artifacts to hash"]
    if reference == actual:
        return []
    differ = sorted(n for n in set(reference) | set(actual) if reference.get(n) != actual.get(n))
    return [f"artifact hashes differ between runs of one commit: {', '.join(differ)}"]


def criterion_5(reports: dict) -> list[str]:
    """Acceptance criterion 5: each component at most 0.80 AUC-ROC, the
    bundle at least 0.03 above the best component, and its AUC-PR at least
    the best component's."""
    fails = []
    sim, com, bundle = reports["sim"], reports["com"], reports["bundle"]
    for name, rep in (("sim", sim), ("com", com)):
        if not rep["auc_roc"] <= 0.80:
            fails.append(f"{name} AUC-ROC {rep['auc_roc']:.4f} > 0.80")
    best_roc = max(sim["auc_roc"], com["auc_roc"])
    if not bundle["auc_roc"] >= best_roc + 0.03:
        fails.append(f"bundle AUC-ROC {bundle['auc_roc']:.4f} < best component {best_roc:.4f} + 0.03")
    best_pr = max(sim["auc_pr"], com["auc_pr"])
    if not bundle["auc_pr"] >= best_pr:
        fails.append(f"bundle AUC-PR {bundle['auc_pr']:.4f} < best component {best_pr:.4f}")
    return fails


def sweep_integrity(sweep_log: str, bundle: dict) -> list[str]:
    """The sweep log has 20 cells and the bundle is its AUC-PR argmax."""
    rows = [ln.split(",") for ln in sweep_log.splitlines()[1:] if ln]
    if len(rows) != 20:
        return [f"sweep log has {len(rows)} rows, expected 20"]
    best = max(float(r[4]) for r in rows)
    chosen = [r for r in rows if r[0] == bundle["early"] and r[1] == bundle["late"]]
    if len(chosen) != 1:
        return [f"bundle cell {bundle['early']}+{bundle['late']} appears {len(chosen)} times"]
    if float(chosen[0][4]) != best:
        return [f"bundle cell AUC-PR {chosen[0][4]} is not the sweep maximum {best!r}"]
    return []


def desk_outputs(out: Path, criterion_5_applies: bool = True) -> list[str]:
    """Criterion 5 is a claim about the 2,000-commit acceptance corpus, so
    the smoke scale checks only the sweep."""
    out = Path(out)
    bundle = json.loads((out / "bundle.json").read_text())
    fails = sweep_integrity((out / "sweep_log.csv").read_text(), bundle)
    if criterion_5_applies:
        fails = criterion_5(json.loads((out / "metrics.json").read_text())["reports"]) + fails
    return fails


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def train_log(log, epochs: int) -> list[str]:
    """One entry per epoch, in order, each with a finite training loss."""
    fails = []
    if [e.epoch for e in log] != list(range(epochs)):
        fails.append(f"train log epochs {[e.epoch for e in log]} != 0..{epochs - 1}")
    fails += [f"epoch {e.epoch} loss {e.train_loss!r} is not finite"
              for e in log if not _finite(float(e.train_loss))]
    return fails


def finite_params(params) -> list[str]:
    if not params:
        return ["no parameters returned"]
    return [f"parameter '{n}' has non-finite entries"
            for n, v in sorted(params.items()) if not np.all(np.isfinite(v))]


def scores_in_unit_range(scores) -> list[str]:
    return [f"score {s!r} is not a finite value in [0, 1]" for s in scores
            if not (_finite(float(s)) and 0.0 <= float(s) <= 1.0)][:5]


def prediction_rows(rows, commit_ids) -> list[str]:
    """One row per input commit in input order; every score finite and in
    [0, 1]; class equals fused > 0.5."""
    fails = []
    ids = [r[0] for r in rows]
    if ids != list(commit_ids):
        fails.append(f"{len(rows)} rows for {len(commit_ids)} commits, or not in input order")
    for cid, fused, cls, sim, com, early in rows:
        values = [fused, sim, com] + ([] if early is None else [early])
        bad = scores_in_unit_range(values)
        if bad:
            fails.append(f"{cid}: {bad[0]}")
        elif cls != int(fused > 0.5):
            fails.append(f"{cid}: class {cls} != (fused {fused!r} > 0.5)")
        if len(fails) >= 5:
            break
    return fails


def predictions_file(path: Path, rows) -> list[str]:
    """The written CSV holds a header and one line per row, in row order."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    ids = [ln.split(",", 1)[0] for ln in lines[1:]]
    if ids != [r[0] for r in rows]:
        return [f"predictions file has {len(ids)} lines for {len(rows)} rows, or a different order"]
    return []


def bundle_uses_all_models(bundle) -> list[str]:
    if bundle.early == "none" or bundle.late == "none":
        return [f"serving bundle is {bundle.early}+{bundle.late}; it must score sim, com and an "
                f"early-fused model"]
    return []


def same_score(commit_id: str, alone: float, in_batch: float, tol: float = 1e-9) -> list[str]:
    """A commit scored on its own gets the score it gets within a batch."""
    fails = scores_in_unit_range([alone])
    if not fails and abs(alone - in_batch) > tol:
        fails = [f"{commit_id}: scored alone {alone!r}, in a batch {in_batch!r}"]
    return fails
