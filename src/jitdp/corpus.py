"""Commit corpus: data model, ingestion, ordering, splitting, rebalancing.

A corpus is an ordered list of CommitRecord objects. On disk a corpus is a
UTF-8 JSON-lines file, one commit object per line with keys:
commit_id (str without a comma, CR or LF), timestamp (int, seconds since
epoch, strictly within +-2**62), author (str), message (str), files (list
of {path, added_lines, removed_lines, loc_before}), and an optional label
(0 or 1). Unknown keys are ignored.

A loaded stream holds each distinct author and path as one str
(sys.intern), however many commits name it.

In memory a FileChange holds each side's lines as one str, the lines
joined by "\n", plus the line count: the hand-crafted features read the
counts and the change documents tokenize the text, and no line is held
as a str of its own. Only a side with a line that itself holds "\n" keeps
its lines too. The on-disk form is unchanged: commit_to_json writes each
side back as the array of lines it was read from.

All randomized operations take an explicit seed and reproduce bit-identical
output for equal seeds.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np


class DataError(Exception):
    """Malformed or inconsistent corpus input."""


def _side(lines) -> tuple[str, int, tuple[str, ...] | None]:
    """One side of a file change as held: its lines joined by "\n", their
    count and, only when a line itself holds "\n" (so the text does not
    give the lines back), the lines."""
    text = "\n".join(lines)
    count = len(lines)
    return text, count, tuple(lines) if count and text.count("\n") != count - 1 else None


def _lines(text: str, count: int, kept) -> tuple[str, ...]:
    if kept is not None:
        return kept
    return tuple(text.split("\n")) if count else ()


@dataclass(frozen=True, init=False, slots=True)
class FileChange:
    """One file's change. Each side, added and removed, is held as its lines
    joined by "\n" (one str) plus the line count, the two things the models
    read; `added_lines` and `removed_lines` give the lines back."""

    path: str
    added_text: str
    added_count: int
    _added_kept: tuple[str, ...] | None
    removed_text: str
    removed_count: int
    _removed_kept: tuple[str, ...] | None
    loc_before: int

    def __init__(self, path: str, added_lines=(), removed_lines=(), loc_before: int = 0):
        set_ = object.__setattr__
        set_(self, "path", path)
        added, removed = _side(added_lines), _side(removed_lines)
        set_(self, "added_text", added[0])
        set_(self, "added_count", added[1])
        set_(self, "_added_kept", added[2])
        set_(self, "removed_text", removed[0])
        set_(self, "removed_count", removed[1])
        set_(self, "_removed_kept", removed[2])
        set_(self, "loc_before", loc_before)

    @property
    def added_lines(self) -> tuple[str, ...]:
        return _lines(self.added_text, self.added_count, self._added_kept)

    @property
    def removed_lines(self) -> tuple[str, ...]:
        return _lines(self.removed_text, self.removed_count, self._removed_kept)

    def modified_line_count(self) -> int:
        return self.added_count + self.removed_count


@dataclass(frozen=True, slots=True)
class CommitRecord:
    commit_id: str
    timestamp: int
    author: str
    message: str
    files: tuple[FileChange, ...]
    label: int | None = None

    def size(self) -> int:
        """Total added + removed lines summed over files."""
        return sum(f.modified_line_count() for f in self.files)


@dataclass(frozen=True)
class SplitAssignment:
    train_ids: frozenset[str]
    validation_ids: frozenset[str]
    test_ids: frozenset[str]


# The history index subtracts timestamps in int64: any two timestamps
# strictly inside +-2**62 have a difference that int64 holds.
TIMESTAMP_LIMIT = 2**62
_REQUIRED_KEYS = ("commit_id", "timestamp", "author", "message", "files")
_STRING_KEYS = ("commit_id", "author", "message")
_FILE_KEYS = ("path", "added_lines", "removed_lines", "loc_before")
# Characters a commit id must not hold: csv_line writes ids unquoted.
_CSV_BREAKERS = frozenset(",\r\n")
# What errors="surrogateescape" makes of a byte that does not decode.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _parse_file_entry(obj, line_no: int, idx: int) -> FileChange:
    if not isinstance(obj, dict):
        raise DataError(f"line {line_no}: files[{idx}] is not an object")
    for key in _FILE_KEYS:
        if key not in obj:
            raise DataError(f"line {line_no}: files[{idx}] missing field '{key}'")
    if not isinstance(obj["path"], str):
        raise DataError(f"line {line_no}: files[{idx}] field 'path' must be a string")
    loc_before = obj["loc_before"]
    try:
        change = FileChange(sys.intern(obj["path"]), obj["added_lines"], obj["removed_lines"], loc_before)
    except TypeError:  # joining a line that is not a string; named below
        change = None
    for key in ("added_lines", "removed_lines"):
        lines = obj[key]
        if not isinstance(lines, list) or (change is None and not all(map(isinstance, lines, repeat(str)))):
            raise DataError(f"line {line_no}: files[{idx}] field '{key}' must be an array of strings")
    if type(loc_before) is not int or loc_before < 0:
        raise DataError(f"line {line_no}: files[{idx}] field 'loc_before' must be a non-negative integer")
    return change


def parse_commit_line(line: str, line_no: int) -> CommitRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise DataError(f"line {line_no}: record is not an object")
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise DataError(f"line {line_no}: missing field '{key}'")
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass.
    if type(obj["timestamp"]) is not int:
        raise DataError(f"line {line_no}: field 'timestamp' must be an integer")
    if not -TIMESTAMP_LIMIT < obj["timestamp"] < TIMESTAMP_LIMIT:
        raise DataError(f"line {line_no}: field 'timestamp' must lie strictly within +-2**62 seconds")
    for key in _STRING_KEYS:
        if not isinstance(obj[key], str):
            raise DataError(f"line {line_no}: field '{key}' must be a string")
    if not isinstance(obj["files"], list):
        raise DataError(f"line {line_no}: field 'files' must be an array")
    label = obj.get("label")
    if label is not None and (type(label) is not int or label not in (0, 1)):
        raise DataError(f"line {line_no}: field 'label' must be 0 or 1")
    files = tuple(_parse_file_entry(f, line_no, i) for i, f in enumerate(obj["files"]))
    return CommitRecord(
        commit_id=obj["commit_id"],
        timestamp=obj["timestamp"],
        author=sys.intern(obj["author"]),
        message=obj["message"],
        files=files,
        label=label,
    )


def load_commit_stream(path) -> list[CommitRecord]:
    """Read a JSON-lines commit file, in file order.

    Raises DataError naming the offending line and field for schema
    violations, for duplicate commit ids, for a commit id holding a comma,
    carriage return or line feed, which would break the CSV artifacts that
    list it, and for a line that is not UTF-8; of several bad lines the
    first in file order is named, whatever its fault. A file that is
    missing or cannot be opened is a DataError naming it.
    """
    try:
        handle = open(path, encoding="utf-8")
    except FileNotFoundError as exc:
        raise DataError(f"commit stream not found: {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {exc.filename}: {exc.strerror}") from exc
    with handle:
        try:
            return _read_records(handle, escaped=False)
        except UnicodeDecodeError:
            pass
    # Not UTF-8: read again with each byte that does not decode escaped to a
    # lone surrogate, so that the first bad line in file order raises,
    # whatever its fault.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        return _read_records(handle, escaped=True)


def _read_records(handle, escaped: bool) -> list[CommitRecord]:
    records = []
    seen = set()
    for line_no, line in enumerate(handle, start=1):
        if escaped:
            _undecodable_line(line, line_no)
        if not line.strip():
            continue
        rec = parse_commit_line(line, line_no)
        if rec.commit_id in seen:
            raise DataError(f"line {line_no}: duplicate commit_id '{rec.commit_id}'")
        if not _CSV_BREAKERS.isdisjoint(rec.commit_id):
            raise DataError(f"line {line_no}: field 'commit_id' must not contain a comma, "
                            f"carriage return or line feed: {rec.commit_id!r}")
        seen.add(rec.commit_id)
        records.append(rec)
    return records


def _undecodable_line(line: str, line_no: int) -> None:
    """Raise the DataError of a line read with its undecodable bytes escaped,
    if it holds one; the reason comes from decoding the line's bytes again."""
    if _ESCAPED_BYTE.search(line):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"line {line_no}: not UTF-8 text ({exc.reason})") from exc


def commit_to_json(rec: CommitRecord) -> str:
    obj = {
        "commit_id": rec.commit_id,
        "timestamp": rec.timestamp,
        "author": rec.author,
        "message": rec.message,
        "files": [
            {
                "path": f.path,
                "added_lines": f.added_lines,
                "removed_lines": f.removed_lines,
                "loc_before": f.loc_before,
            }
            for f in rec.files
        ],
    }
    if rec.label is not None:
        obj["label"] = rec.label
    return json.dumps(obj, ensure_ascii=False)


def save_commit_stream(path, corpus) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rec in corpus:
            handle.write(commit_to_json(rec) + "\n")


def csv_line(values) -> str:
    """One line of a CSV artifact, without its newline: None is blank and
    any other value is str(), which is repr() for a Python float. Pass
    Python scalars (`.tolist()`), not numpy ones."""
    return ",".join(["" if v is None else str(v) for v in values])


def write_csv(path, header: str, rows) -> None:
    """A CSV artifact: the header line, then one csv_line per row."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(csv_line(row) + "\n")


def sort_chronologically(corpus) -> list[CommitRecord]:
    """Ascending by timestamp; ties broken by commit_id ascending."""
    return sorted(corpus, key=lambda r: (r.timestamp, r.commit_id))


def chronological_split(corpus, ratios=(0.75, 0.05, 0.20)) -> SplitAssignment:
    """Time-ordered train/validation/test split with floor boundaries.

    The first floor(n * train) commits (after sorting) are train, the next
    floor(n * validation) are validation, and the remainder is test, so no
    training commit postdates any test commit.
    """
    train_r, val_r, test_r = ratios
    if min(train_r, val_r, test_r) <= 0:
        raise ValueError("split ratios must be positive")
    if abs(train_r + val_r + test_r - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    if not corpus:
        raise DataError("cannot split an empty corpus")
    ordered = sort_chronologically(corpus)
    n = len(ordered)
    n_train = int(np.floor(n * train_r))
    n_val = int(np.floor(n * val_r))
    if n_train == 0 or n_val == 0 or n_train + n_val >= n:
        raise DataError(f"split of {n} commits at {ratios} leaves an empty part")
    ids = [r.commit_id for r in ordered]
    return SplitAssignment(
        train_ids=frozenset(ids[:n_train]),
        validation_ids=frozenset(ids[n_train : n_train + n_val]),
        test_ids=frozenset(ids[n_train + n_val :]),
    )


def stratified_kfold(labels: dict, k: int, seed: int) -> dict:
    """Assign each id to one of k folds, balancing each class across folds.

    labels maps id -> 0/1. Per-class counts per fold differ by at most 1.
    Deterministic given the seed.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    rng = np.random.default_rng(seed)
    assignment = {}
    for cls in (0, 1):
        members = sorted(i for i, y in labels.items() if y == cls)
        if len(members) < k:
            raise DataError(f"class {cls} has {len(members)} members, fewer than k={k}")
        order = rng.permutation(len(members))
        for pos, idx in enumerate(order):
            assignment[members[idx]] = pos % k
    return assignment


def undersample(train_ids, labels: dict, seed: int) -> set:
    """Randomly delete majority-class ids until class counts are equal.

    Minority ids are never touched. Deterministic given the seed.
    """
    ids = sorted(train_ids)
    pos = [i for i in ids if labels[i] == 1]
    neg = [i for i in ids if labels[i] == 0]
    if not pos or not neg:
        raise DataError("undersampling needs both classes present")
    if len(pos) == len(neg):
        return set(ids)
    major, minor = (pos, neg) if len(pos) > len(neg) else (neg, pos)
    rng = np.random.default_rng(seed)
    keep = rng.choice(len(major), size=len(minor), replace=False)
    return set(minor) | {major[i] for i in keep}


def drop_large_commits(corpus, fraction: float) -> list[CommitRecord]:
    """Remove the floor(n * fraction) largest commits from the corpus.

    Size = added + removed lines summed over files; ties broken by
    commit_id ascending (the lexicographically smaller commit survives).
    Order of the surviving records is preserved.
    """
    if not 0 <= fraction < 1:
        raise ValueError("drop fraction must be in [0, 1)")
    n = len(corpus)
    n_drop = int(np.floor(n * fraction))
    if n_drop == 0:
        return list(corpus)
    ranked = sorted(corpus, key=lambda r: (-r.size(), r.commit_id))
    dropped = {r.commit_id for r in ranked[:n_drop]}
    return [r for r in corpus if r.commit_id not in dropped]


# ---------------------------------------------------------------------------
# Synthetic corpus generation.
#
# Labels are planted into two independent channels so that desk-scale
# experiments can dial how much signal the hand-crafted features and the
# commit text each carry. Each channel has a binary latent bucket:
#   * with probability <strength> the bucket equals the label (planted),
#   * otherwise it is a fair coin (no label information).
# The feature bucket drives line volume (defective commits are large); the
# text bucket picks the token pool injected into the message and the first
# added lines. Unplanted commits draw from the same bucket-conditional
# distributions, so the marginals carry no signal at strength 0 and the two
# channels stay independent of each other given the label.
# ---------------------------------------------------------------------------

_RISKY_TOKENS = ("racewindow", "nullderef", "overflowpath", "lockskip", "staleptr", "memclobber")
_SAFE_TOKENS = ("doccomment", "renamevar", "whitespace", "typotweak", "constfold", "logverbose")
_NEUTRAL_WORDS = (
    "update", "refactor", "adjust", "merge", "cleanup", "tweak", "move",
    "simplify", "extend", "rework", "handle", "check", "prepare", "improve",
    "align", "unify", "split", "wire", "port", "tidy",
)
_CODE_WORDS = (
    "value", "result", "index", "count", "buffer", "state", "config", "node",
    "token", "handle", "cursor", "offset", "limit", "entry", "queue", "cache",
    "flag", "total", "chunk", "scope",
)
_SUBSYSTEMS = ("core", "net", "ui", "storage", "tools")
_DIRS = ("util", "model", "io", "api")
_FILES = ("main.py", "helpers.py", "engine.py", "parser.py", "types.py")


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic corpus generator.

    imbalance is the clean:defective ratio (4.0 means 4:1).
    """

    size: int = 1000
    imbalance: float = 3.0
    feature_strength: float = 0.5
    text_strength: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.size < 100:
            raise ValueError("synthetic corpus size must be at least 100")
        if not (0.0 <= self.feature_strength <= 1.0 and 0.0 <= self.text_strength <= 1.0):
            raise ValueError("signal strengths must lie in [0, 1]")
        if self.imbalance <= 0:
            raise ValueError("imbalance ratio must be positive")


_FIX_WORDS = ("fix", "bug", "patch")


def _message_tokens(rng, signal_tokens):
    words = list(rng.choice(_NEUTRAL_WORDS, size=rng.integers(4, 8)))
    for tok in signal_tokens:
        words.insert(int(rng.integers(0, len(words) + 1)), str(tok))
    if rng.random() < 0.3:  # label-free fix-keyword noise for the FIX metric
        words.insert(0, str(rng.choice(_FIX_WORDS)))
    return " ".join(str(w) for w in words)


def _code_line(rng, planted_token=None):
    a, b, c = rng.choice(_CODE_WORDS, size=3)
    if planted_token is not None:
        a = planted_token
    return f"{a}_{int(rng.integers(0, 10))} = {b}({c});"


def synthesize_corpus(spec: SyntheticSpec) -> list[CommitRecord]:
    """Generate a labeled corpus from a SyntheticSpec; equal seeds give equal corpora."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.size
    n_defective = int(round(n / (1.0 + spec.imbalance)))
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_defective] = 1
    rng.shuffle(labels)
    authors = [f"dev{idx:02d}" for idx in range(12)]
    base_time = 1_600_000_000
    records = []
    for i in range(n):
        label = int(labels[i])
        feature_bucket = label if rng.random() < spec.feature_strength else int(rng.random() < 0.5)
        text_bucket = label if rng.random() < spec.text_strength else int(rng.random() < 0.5)

        # Feature channel: line volume keyed by the feature bucket.
        added_extra = int(rng.poisson(40 if feature_bucket == 1 else 3))
        removed_extra = int(rng.poisson(16 if feature_bucket == 1 else 2))

        n_files = int(rng.integers(1, 4))
        pool = _RISKY_TOKENS if text_bucket == 1 else _SAFE_TOKENS
        signal_tokens = [str(t) for t in rng.choice(pool, size=2, replace=False)]

        # Every file gets a 10-line floor so document length under tail
        # truncation does not leak the size signal into the text channel.
        per_file_added = [10] * n_files
        for _ in range(added_extra):
            per_file_added[int(rng.integers(0, n_files))] += 1
        per_file_removed = [2] * n_files
        for _ in range(removed_extra):
            per_file_removed[int(rng.integers(0, n_files))] += 1

        files = []
        for f_idx in range(n_files):
            sub = str(rng.choice(_SUBSYSTEMS))
            path = f"{sub}/{rng.choice(_DIRS)}/{rng.choice(_FILES)}"
            added = []
            for line_idx in range(per_file_added[f_idx]):
                token = None
                if f_idx == 0 and line_idx < len(signal_tokens):
                    token = signal_tokens[line_idx]
                added.append(_code_line(rng, token))
            removed = [_code_line(rng) for _ in range(per_file_removed[f_idx])]
            files.append(
                FileChange(
                    path=path,
                    added_lines=tuple(added),
                    removed_lines=tuple(removed),
                    loc_before=int(rng.integers(20, 400)),
                )
            )

        records.append(
            CommitRecord(
                commit_id=f"c{i:05d}",
                timestamp=base_time + i * 3600,
                author=str(rng.choice(authors)),
                message=_message_tokens(rng, signal_tokens),
                files=tuple(files),
                label=label,
            )
        )
    return records
