"""The 14 hand-crafted commit metrics and the history index they read.

Conventions fixed here (the literature leaves them open):
  * subsystem = first path segment, directory = full parent path
  * entropy is normalized by log2(number of files) so it lies in [0, 1]
  * age is measured in fractional days; paths never seen before contribute 0
  * recent experience decays as 1 / (age in years + 1), year = 365.25 days
  * per-author subsystem counts increment once per distinct subsystem a
    commit touches, and sexp sums those counts over the commit's subsystems
  * nuc is the union of prior change ids over the touched paths
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .corpus import CommitRecord, DataError

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY

FEATURE_NAMES = (
    "ns", "nd", "nf", "entropy", "la", "ld", "lt",
    "fix", "ndev", "age", "nuc", "exp", "rexp", "sexp",
)
CATEGORICAL_NAMES = ("fix",)
CONTINUOUS_NAMES = tuple(n for n in FEATURE_NAMES if n not in CATEGORICAL_NAMES)
_FIX_INDEX = FEATURE_NAMES.index("fix")
_CONT_INDICES = np.array([i for i, n in enumerate(FEATURE_NAMES) if n != "fix"])
_ROW = attrgetter(*FEATURE_NAMES)

_FIX_PATTERN = re.compile(
    r"\b(bug|fix|fixes|fixed|defect|fault|patch|error|fail|failure)\b",
    re.IGNORECASE,
)


def classify_fix_message(message: str) -> int:
    """1 iff the message contains a whole-word defect-fix keyword."""
    return 1 if _FIX_PATTERN.search(message) else 0


def subsystem_of(path: str) -> str:
    return path.split("/", 1)[0]


def directory_of(path: str) -> str:
    return path.rsplit("/", 1)[0] if "/" in path else path


@dataclass(frozen=True)
class HandCraftedVector:
    ns: int
    nd: int
    nf: int
    entropy: float
    la: int
    ld: int
    lt: float
    fix: int
    ndev: int
    age: float
    nuc: int
    exp: int
    rexp: float
    sexp: int

    def as_array(self) -> np.ndarray:
        return np.array(_ROW(self), dtype=np.float64)


def feature_matrix(vectors) -> np.ndarray:
    """(n, 14) float64 matrix, one row per vector in FEATURE_NAMES order."""
    return np.array([_ROW(v) for v in vectors], dtype=np.float64).reshape(-1, len(FEATURE_NAMES))


class HistoryIndex:
    """Incremental view of everything strictly earlier than the commit being
    featurized. `update` must be called in (timestamp, commit_id) order,
    after the commit has been featurized against the current state.

    Each author's commit timestamps sit in an int64 buffer that doubles when
    full; its first author_commits[author] entries are the filled ones."""

    def __init__(self):
        self.path_last_modified: dict[str, int] = {}
        self.path_authors: dict[str, set] = {}
        self.path_change_ids: dict[str, set] = {}
        self.author_commits: dict[str, int] = {}
        self.author_commit_times: dict[str, np.ndarray] = {}
        self.author_subsystem_counts: dict[str, dict] = {}
        self._cursor: tuple | None = None

    def update(self, commit: CommitRecord) -> None:
        key = (commit.timestamp, commit.commit_id)
        if self._cursor is not None and key <= self._cursor:
            raise DataError(
                f"history updates must be chronological; got {commit.commit_id} after cursor {self._cursor}"
            )
        self._cursor = key
        for path in {f.path for f in commit.files}:
            self.path_last_modified[path] = commit.timestamp
            self.path_authors.setdefault(path, set()).add(commit.author)
            self.path_change_ids.setdefault(path, set()).add(commit.commit_id)
        n = self.author_commits.get(commit.author, 0)
        times = self.author_commit_times.get(commit.author)
        if times is None or n == len(times):
            grown = np.empty(max(4, 2 * n), dtype=np.int64)
            if n:
                grown[:n] = times
            self.author_commit_times[commit.author] = times = grown
        times[n] = commit.timestamp
        self.author_commits[commit.author] = n + 1
        sub_counts = self.author_subsystem_counts.setdefault(commit.author, {})
        for sub in {subsystem_of(f.path) for f in commit.files}:
            sub_counts[sub] = sub_counts.get(sub, 0) + 1


def extract_features(commit: CommitRecord, history: HistoryIndex) -> HandCraftedVector:
    """Compute all 14 metrics for one commit against a history snapshot."""
    if not commit.files:
        raise DataError(f"commit {commit.commit_id} has no file changes")
    paths = sorted({f.path for f in commit.files})
    subsystems = {subsystem_of(p) for p in paths}
    directories = {directory_of(p) for p in paths}

    line_counts = [f.modified_line_count() for f in commit.files]
    total_lines = sum(line_counts)
    n_files = len(commit.files)
    if n_files > 1 and total_lines > 0:
        counts = np.array(line_counts, dtype=np.float64)
        p = counts[counts > 0] / float(total_lines)
        entropy = float(-(p * np.log2(p)).sum() / np.log2(n_files))
    else:
        entropy = 0.0

    la = sum(len(f.added_lines) for f in commit.files)
    ld = sum(len(f.removed_lines) for f in commit.files)
    # An exact integer sum and one correctly rounded division: np.mean's bits
    # while the sum stays below 2**53.
    lt = sum(f.loc_before for f in commit.files) / n_files

    prior_authors = set()
    prior_changes = set()
    age_days = []
    for path in paths:
        prior_authors |= history.path_authors.get(path, set())
        prior_changes |= history.path_change_ids.get(path, set())
        last = history.path_last_modified.get(path)
        age_days.append(0.0 if last is None else (commit.timestamp - last) / SECONDS_PER_DAY)

    # np.mean's bits (its pairwise sum, then one division) without its
    # per-call overhead.
    age = float(np.add.reduce(np.array(age_days))) / len(age_days)

    exp = history.author_commits.get(commit.author, 0)
    rexp = 0.0
    if exp:
        # cumsum adds left to right like a sequential sum, so the result does
        # not depend on numpy's pairwise reduction.
        times = history.author_commit_times[commit.author][:exp]
        rexp = float(np.cumsum(1.0 / ((commit.timestamp - times) / SECONDS_PER_YEAR + 1.0))[-1])
    sub_counts = history.author_subsystem_counts.get(commit.author, {})
    sexp = sum(sub_counts.get(s, 0) for s in subsystems)

    return HandCraftedVector(
        ns=len(subsystems),
        nd=len(directories),
        nf=n_files,
        entropy=entropy,
        la=la,
        ld=ld,
        lt=lt,
        fix=classify_fix_message(commit.message),
        ndev=len(prior_authors),
        age=age,
        nuc=len(prior_changes),
        exp=exp,
        rexp=rexp,
        sexp=sexp,
    )


def _check_sorted(corpus) -> None:
    keys = [(c.timestamp, c.commit_id) for c in corpus]
    if keys != sorted(keys):
        raise DataError("corpus must be sorted ascending by (timestamp, commit_id)")


def history_snapshots(corpus):
    """Yield (commit, index) pairs in one chronological pass; the yielded
    index reflects exactly the commits before the current one. The index is
    shared and mutated between steps, so consume it before advancing."""
    _check_sorted(corpus)
    index = HistoryIndex()
    for commit in corpus:
        yield commit, index
        index.update(commit)


def featurize_corpus(corpus) -> dict:
    """commit_id -> HandCraftedVector for a chronologically sorted corpus."""
    return {c.commit_id: extract_features(c, h) for c, h in history_snapshots(corpus)}


# ---------------------------------------------------------------------------
# Categorical/continuous split and z-scoring with training statistics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainStats:
    mean: np.ndarray  # (13,) over CONTINUOUS_NAMES
    std: np.ndarray
    split: str = "train"
    provenance: str = ""


@dataclass(frozen=True)
class FeatureSplitEntry:
    x_cat: np.ndarray  # (1,) = (fix,)
    x_cont: np.ndarray  # (13,) z-scored


def fit_train_stats(vectors, split: str = "train", provenance: str = "") -> TrainStats:
    """Per-feature mean/std (population) of the continuous block."""
    rows = feature_matrix(vectors).take(_CONT_INDICES, axis=1)
    return TrainStats(
        mean=rows.mean(axis=0),
        std=rows.std(axis=0),
        split=split,
        provenance=provenance,
    )


def normalize_features(x: np.ndarray, stats: TrainStats) -> tuple:
    """(x_cat, x_cont) for an (n, 14) feature matrix: x_cat = the (n, 1) fix
    column; x_cont = the 13 remaining columns z-scored with the training
    statistics (constant features map to 0). Refuses statistics that were
    not computed on a training split."""
    if stats.split != "train":
        raise ValueError(f"feature statistics carry split '{stats.split}', expected 'train'")
    # take() keeps the blocks C-ordered (x[:, idx] would not), and the deep
    # model's matmuls round by memory layout.
    live = stats.std > 0
    z = np.where(live, (x.take(_CONT_INDICES, axis=1) - stats.mean) / np.where(live, stats.std, 1.0),
                 0.0)
    return x.take([_FIX_INDEX], axis=1), z


def split_and_normalize(vector: HandCraftedVector, stats: TrainStats) -> FeatureSplitEntry:
    """normalize_features of one vector: x_cat = (fix,), x_cont the 13
    z-scored continuous features."""
    x_cat, x_cont = normalize_features(vector.as_array()[None, :], stats)
    return FeatureSplitEntry(x_cat=x_cat[0], x_cont=x_cont[0])


# ---------------------------------------------------------------------------
# Feature table emission (delimited text).
# ---------------------------------------------------------------------------

TABLE_HEADER = "commit_id," + ",".join(FEATURE_NAMES) + ",label"


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_feature_table(path, corpus, vectors: dict) -> None:
    """One row per commit, full-precision decimal values, label blank when
    the commit is unlabeled."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(TABLE_HEADER + "\n")
        for commit in corpus:
            vec = vectors[commit.commit_id]
            cells = [commit.commit_id]
            cells += [_cell(getattr(vec, n)) for n in FEATURE_NAMES]
            cells.append("" if commit.label is None else str(commit.label))
            handle.write(",".join(cells) + "\n")
