"""The 14 hand-crafted commit metrics and the history index they read.

Conventions fixed here (the literature leaves them open):
  * subsystem = first path segment, directory = full parent path
  * entropy is normalized by log2(number of files) so it lies in [0, 1]
  * age is measured in fractional days; paths never seen before contribute 0
  * recent experience decays as 1 / (age in years + 1), year = 365.25 days
  * per-author subsystem counts increment once per distinct subsystem a
    commit touches, and sexp sums those counts over the commit's subsystems
  * nuc is the union of prior change ids over the touched paths

A batch of commits is featurized in one chronological pass. The pass keeps
the history in Python: each path's prior authors and prior changes are
Python-int bitsets over author and change ordinals, so ndev and nuc are an
OR over the touched paths and a bit count. The float features (entropy, age,
rexp) are computed after the pass for the whole batch as arrays, with each
commit's sums taken in the order a one-commit numpy call takes them, and
every feature lands in one (n, 14) matrix.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .corpus import CommitRecord, DataError, write_csv

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY

FEATURE_NAMES = (
    "ns", "nd", "nf", "entropy", "la", "ld", "lt",
    "fix", "ndev", "age", "nuc", "exp", "rexp", "sexp",
)
_FIX_INDEX = FEATURE_NAMES.index("fix")
_CONT_INDICES = np.array([i for i, n in enumerate(FEATURE_NAMES) if n != "fix"])
_ROW = attrgetter(*FEATURE_NAMES)
_FLOAT_NAMES = ("entropy", "lt", "age", "rexp")
_TYPES = tuple(float if n in _FLOAT_NAMES else int for n in FEATURE_NAMES)
_ENTROPY, _AGE, _REXP = (FEATURE_NAMES.index(n) for n in ("entropy", "age", "rexp"))
# Elements of one (commits x prior timestamps) block of the rexp pass.
_REXP_BLOCK = 1 << 15

# bug, fix, fixes, fixed, defect, fault, patch, error, fail, failure
_FIX_KEYWORDS = r"\b(?:bug|fix(?:e[sd])?|defect|fault|patch|error|fail(?:ure)?)\b"
_FIX_PATTERN = re.compile(_FIX_KEYWORDS, re.IGNORECASE)
# The same matches on ASCII text, without Unicode case folding.
_ASCII_FIX_PATTERN = re.compile(_FIX_KEYWORDS, re.IGNORECASE | re.ASCII)


def classify_fix_message(message: str) -> int:
    """1 iff the message contains a whole-word defect-fix keyword."""
    pattern = _ASCII_FIX_PATTERN if message.isascii() else _FIX_PATTERN
    return 1 if pattern.search(message) else 0


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


class FeatureTable(Mapping):
    """Read-only commit_id -> HandCraftedVector view of a feature matrix.
    `matrix` holds one row per featurized commit, in featurization order;
    each lookup builds its vector, with the integer features as int."""

    def __init__(self, commit_ids, matrix: np.ndarray):
        self.matrix = matrix
        self._row = {cid: j for j, cid in enumerate(commit_ids)}

    def row(self, commit_id) -> list:
        """The commit's 14 values in FEATURE_NAMES order, typed as in
        HandCraftedVector."""
        return [t(v) for t, v in zip(_TYPES, self.matrix[self._row[commit_id]].tolist())]

    def __getitem__(self, commit_id) -> HandCraftedVector:
        return HandCraftedVector(*self.row(commit_id))

    def __contains__(self, commit_id) -> bool:
        return commit_id in self._row

    def __iter__(self):
        return iter(self._row)

    def __len__(self) -> int:
        return len(self._row)


class HistoryIndex:
    """Incremental view of everything strictly earlier than the commit being
    featurized. `update` must be called in (timestamp, commit_id) order,
    after the commit has been featurized against the current state.

    Each path's prior authors and prior changes are Python-int bitsets: bit
    author_bit[a] for author a, bit k for the k-th update. Each author's
    commit timestamps sit in an int64 buffer that doubles when full; its
    first author_commits[author] entries are the filled ones."""

    def __init__(self):
        self.path_last_modified: dict[str, int] = {}
        self.path_author_bits: dict[str, int] = {}
        self.path_change_bits: dict[str, int] = {}
        self.author_bit: dict[str, int] = {}
        self.changes = 0
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
        paths = {f.path for f in commit.files}
        self._add(commit, paths, {subsystem_of(p) for p in paths})

    def _add(self, commit: CommitRecord, paths, subsystems) -> None:
        """update() of a commit whose order is already checked, given its
        distinct paths and subsystems."""
        self._cursor = (commit.timestamp, commit.commit_id)
        author = commit.author
        author_bit = self.author_bit.get(author)
        if author_bit is None:
            author_bit = self.author_bit[author] = 1 << len(self.author_bit)
        change_bit = 1 << self.changes
        self.changes += 1
        last, authors, changes = self.path_last_modified, self.path_author_bits, self.path_change_bits
        for path in paths:
            last[path] = commit.timestamp
            authors[path] = authors.get(path, 0) | author_bit
            changes[path] = changes.get(path, 0) | change_bit
        n = self.author_commits.get(author, 0)
        times = self.author_commit_times.get(author)
        if times is None or n == len(times):
            grown = np.empty(max(4, 2 * n), dtype=np.int64)
            if n:
                grown[:n] = times
            self.author_commit_times[author] = times = grown
        times[n] = commit.timestamp
        self.author_commits[author] = n + 1
        sub_counts = self.author_subsystem_counts.setdefault(author, {})
        for sub in subsystems:
            sub_counts[sub] = sub_counts.get(sub, 0) + 1


def _featurize(commits, history: HistoryIndex) -> np.ndarray:
    """(n, 14) feature matrix of the commits, each against `history` as it
    stands before the commit: every commit but the last is added to
    `history` once featurized. The commits must be in chronological order.

    The loop keeps the set-valued history in Python and collects each
    commit's terms of entropy, age and rexp. Commits with the same number of
    entropy or age terms form one (commits x terms) block, whose row sums
    np.add.reduce takes in the order of a 1-D reduce over the row (a left
    fold below 8 terms, numpy's pairwise sum from 8 on; np.add.reduceat
    would add differently). rexp is a left-to-right cumsum over the author's
    prior timestamps, for blocks of an author's commits against a prefix of
    its timestamp buffer. Per-commit values go to flat lists, which keeps
    the garbage collector's work independent of the batch size."""
    width = len(FEATURE_NAMES)
    values = []  # the matrix, row-major; entropy, age and rexp filled in last
    entropy_in = {}  # positive line counts -> (rows, line shares, file counts)
    age_in = {}  # distinct paths -> (rows, seconds since each path's last change)
    rexp_in = {}  # author -> (rows, prior commit counts, timestamps)
    path_last, path_authors, path_changes = (
        history.path_last_modified, history.path_author_bits, history.path_change_bits)
    last = len(commits) - 1
    for j, commit in enumerate(commits):
        files = commit.files
        if not files:
            raise DataError(f"commit {commit.commit_id} has no file changes")
        t = commit.timestamp
        la = ld = loc = 0
        counts = []
        for f in files:
            added, removed = f.added_count, f.removed_count
            la += added
            ld += removed
            loc += f.loc_before
            if added + removed:
                counts.append(added + removed)
        n_files = len(files)
        if n_files > 1 and counts:
            total = float(la + ld)
            group = entropy_in.setdefault(len(counts), ([], [], []))
            group[0].append(j)
            group[1].extend([k / total for k in counts])
            group[2].append(n_files)

        paths = sorted({f.path for f in files})
        subsystems = {subsystem_of(p) for p in paths}
        authors = changes = 0
        seconds = []
        for p in paths:
            authors |= path_authors.get(p, 0)
            changes |= path_changes.get(p, 0)
            seconds.append(t - path_last.get(p, t))
        group = age_in.setdefault(len(paths), ([], []))
        group[0].append(j)
        group[1].extend(seconds)

        author = commit.author
        exp = history.author_commits.get(author, 0)
        if exp:
            group = rexp_in.setdefault(author, ([], [], []))
            group[0].append(j)
            group[1].append(exp)
            group[2].append(t)
        sub_counts = history.author_subsystem_counts.get(author, {})

        values += (
            len(subsystems), len({directory_of(p) for p in paths}), n_files, 0.0, la, ld,
            # An exact integer sum and one correctly rounded division.
            loc / n_files,
            classify_fix_message(commit.message), authors.bit_count(), 0.0,
            changes.bit_count(), exp, 0.0, sum([sub_counts.get(s, 0) for s in subsystems]),
        )
        if j < last:
            history._add(commit, paths, subsystems)

    for m, (at, shares, n_files) in entropy_in.items():
        p = np.array(shares).reshape(-1, m)
        entropy = -np.add.reduce(p * np.log2(p), axis=1) / np.log2(n_files)
        for j, v in zip(at, entropy.tolist()):
            values[j * width + _ENTROPY] = v
    for m, (at, seconds) in age_in.items():
        days = np.array(seconds, dtype=np.float64).reshape(-1, m) / SECONDS_PER_DAY
        for j, v in zip(at, (np.add.reduce(days, axis=1) / m).tolist()):
            values[j * width + _AGE] = v
    for author, (at, exps, stamps) in rexp_in.items():
        times = history.author_commit_times[author]
        # An author's commits in one batch have consecutive prior counts, so
        # a block of `step` of them is at most step x exps[-1]. Its work
        # arrays are allocated once per author: fresh ones for every block
        # measured twice as slow.
        step = min(len(at), max(1, _REXP_BLOCK // exps[-1]))
        ages, decays = np.empty(step * exps[-1], dtype=np.int64), np.empty(step * exps[-1])
        for a in range(0, len(at), step):
            prior = exps[a:a + step]
            shape = (len(prior), prior[-1])
            age = np.subtract.outer(stamps[a:a + step], times[:prior[-1]],
                                    out=ages[:shape[0] * shape[1]].reshape(shape))
            decay = np.divide(age, SECONDS_PER_YEAR, out=decays[:age.size].reshape(shape))
            decay += 1.0
            np.divide(1.0, decay, out=decay)
            np.cumsum(decay, axis=1, out=decay)
            rexp = decay.take([i * prior[-1] + k - 1 for i, k in enumerate(prior)])
            for j, v in zip(at[a:a + step], rexp.tolist()):
                values[j * width + _REXP] = v
    return np.array(values, dtype=np.float64).reshape(-1, width)


def extract_features(commit: CommitRecord, history: HistoryIndex) -> HandCraftedVector:
    """Compute all 14 metrics for one commit against a history snapshot."""
    return FeatureTable([commit.commit_id], _featurize([commit], history))[commit.commit_id]


def _check_sorted(corpus, after=None) -> None:
    """A DataError unless the corpus ascends by (timestamp, commit_id) and,
    given the key `after`, starts beyond it."""
    keys = [(c.timestamp, c.commit_id) for c in corpus]
    if keys != sorted(keys):
        raise DataError("corpus must be sorted ascending by (timestamp, commit_id)")
    if after is not None and keys and keys[0] <= after:
        raise DataError(f"commit {keys[0][1]} is not later than the history's last commit")


def history_snapshots(corpus):
    """Yield (commit, index) pairs in one chronological pass; the yielded
    index reflects exactly the commits before the current one. The index is
    shared and mutated between steps, so consume it before advancing."""
    _check_sorted(corpus)
    index = HistoryIndex()
    for commit in corpus:
        yield commit, index
        index.update(commit)


def featurize_corpus(corpus, history: HistoryIndex | None = None) -> FeatureTable:
    """commit_id -> HandCraftedVector for a chronologically sorted corpus,
    backed by its (n, 14) feature matrix in corpus order. Given a history
    (the index of the commits before the corpus), each commit is featurized
    against it and then added to it, so that a stream featurized in
    consecutive parts through one history gets the rows of one call."""
    carried = history is not None
    history = history if carried else HistoryIndex()
    _check_sorted(corpus, after=history._cursor)
    table = FeatureTable([c.commit_id for c in corpus], _featurize(corpus, history))
    if carried and corpus:
        history.update(corpus[-1])
    return table


# ---------------------------------------------------------------------------
# Categorical/continuous split and z-scoring with training statistics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainStats:
    mean: np.ndarray  # (13,) over the features other than fix
    std: np.ndarray
    split: str = "train"
    provenance: str = ""


@dataclass(frozen=True)
class FeatureSplitEntry:
    x_cat: np.ndarray  # (1,) = (fix,)
    x_cont: np.ndarray  # (13,) z-scored


def fit_train_stats(vectors, split: str = "train", provenance: str = "") -> TrainStats:
    """Per-feature mean/std (population) of the continuous block, over
    HandCraftedVectors or the rows of an (n, 14) feature matrix."""
    x = vectors if isinstance(vectors, np.ndarray) else feature_matrix(vectors)
    rows = x.take(_CONT_INDICES, axis=1)
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


def write_feature_table(path, corpus, table: FeatureTable) -> None:
    """One row per commit, full-precision decimal values, label blank when
    the commit is unlabeled."""
    write_csv(path, TABLE_HEADER,
              ([c.commit_id, *table.row(c.commit_id), c.label] for c in corpus))
