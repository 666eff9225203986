"""Shared fixtures: the hand-built 20-commit corpus used by the feature
oracle, plus small helpers."""

from __future__ import annotations

import pytest

from jitdp.corpus import CommitRecord, FileChange, SyntheticSpec, sort_chronologically, synthesize_corpus

T0 = 1_000_000_000
HOUR = 3600
DAY = 86_400


def _fc(path, added=0, removed=0, loc=0, tag="x"):
    return FileChange(
        path=path,
        added_lines=tuple(f"{tag} add {i}" for i in range(added)),
        removed_lines=tuple(f"{tag} del {i}" for i in range(removed)),
        loc_before=loc,
    )


# A 20-commit history constructed by hand: four authors, three subsystems,
# recurring paths, fix-keyword variety, irregular timestamps. The expected
# feature table in test_features.py was computed against this data with the
# brute-force prefix oracle before the incremental index existed.
FIXTURE_COMMITS = [
    CommitRecord("f01", T0, "alice", "initial parser skeleton",
                 (_fc("core/parser/lexer.py", 10, 0, 0),)),
    CommitRecord("f02", T0 + 1 * DAY, "bob", "Fix tokenizer crash on empty input",
                 (_fc("core/parser/lexer.py", 2, 1, 10),)),
    CommitRecord("f03", T0 + 2 * DAY, "alice", "add ast nodes",
                 (_fc("core/parser/ast.py", 6, 0, 0), _fc("core/parser/lexer.py", 2, 0, 11))),
    CommitRecord("f04", T0 + 2 * DAY + 6 * HOUR, "carol", "prefix log lines",
                 (_fc("tools/log/writer.py", 4, 4, 80),)),
    CommitRecord("f05", T0 + 3 * DAY, "alice", "patch precedence bug in parser",
                 (_fc("core/parser/ast.py", 3, 1, 6), _fc("core/parser/eval.py", 5, 0, 0))),
    CommitRecord("f06", T0 + 5 * DAY, "bob", "rework writer buffering",
                 (_fc("tools/log/writer.py", 8, 2, 80),)),
    CommitRecord("f07", T0 + 5 * DAY + 1 * HOUR, "dan", "add http client",
                 (_fc("net/http/client.py", 30, 0, 0),)),
    CommitRecord("f08", T0 + 6 * DAY, "alice", "fixes for eval shortcuts",
                 (_fc("core/parser/eval.py", 4, 2, 5),)),
    CommitRecord("f09", T0 + 8 * DAY, "dan", "client retries",
                 (_fc("net/http/client.py", 6, 1, 30), _fc("net/http/retry.py", 12, 0, 0))),
    CommitRecord("f10", T0 + 9 * DAY, "carol", "buggy words are not defects",
                 (_fc("tools/log/reader.py", 5, 0, 0),)),
    CommitRecord("f11", T0 + 10 * DAY, "bob", "error handling in writer and reader",
                 (_fc("tools/log/writer.py", 3, 3, 86), _fc("tools/log/reader.py", 2, 1, 5))),
    CommitRecord("f12", T0 + 12 * DAY, "alice", "parser cleanup",
                 (_fc("core/parser/lexer.py", 1, 4, 13), _fc("core/parser/ast.py", 2, 2, 8),
                  _fc("core/parser/eval.py", 1, 1, 7))),
    CommitRecord("f13", T0 + 13 * DAY, "dan", "failure injection hooks",
                 (_fc("net/http/client.py", 4, 4, 35), _fc("tools/log/writer.py", 1, 0, 86))),
    CommitRecord("f14", T0 + 15 * DAY, "carol", "reader pagination",
                 (_fc("tools/log/reader.py", 9, 2, 10),)),
    CommitRecord("f15", T0 + 15 * DAY + 12 * HOUR, "bob", "defect report export",
                 (_fc("tools/report/export.py", 14, 0, 0),)),
    CommitRecord("f16", T0 + 17 * DAY, "alice", "evaluate constants eagerly",
                 (_fc("core/parser/eval.py", 7, 3, 7),)),
    CommitRecord("f17", T0 + 18 * DAY, "dan", "retry budget fault tolerance",
                 (_fc("net/http/retry.py", 3, 2, 12), _fc("net/http/client.py", 2, 0, 39))),
    CommitRecord("f18", T0 + 20 * DAY, "carol", "export CSV error codes",
                 (_fc("tools/report/export.py", 5, 1, 14), _fc("tools/log/reader.py", 1, 0, 17))),
    CommitRecord("f19", T0 + 21 * DAY, "bob", "unify writer flush",
                 (_fc("tools/log/writer.py", 2, 2, 87),)),
    CommitRecord("f20", T0 + 23 * DAY, "alice", "fixed shortcut evaluation fault",
                 (_fc("core/parser/eval.py", 2, 2, 11), _fc("core/parser/lexer.py", 1, 0, 10))),
]


@pytest.fixture
def fixture_corpus():
    return list(FIXTURE_COMMITS)


@pytest.fixture(scope="session")
def acceptance_corpus():
    """The acceptance suite's 2,000-commit synthetic corpus, sorted."""
    spec = SyntheticSpec(size=2000, imbalance=3.0, feature_strength=0.5,
                         text_strength=0.5, seed=11)
    return sort_chronologically(synthesize_corpus(spec))
