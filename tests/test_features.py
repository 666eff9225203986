"""Feature-extraction tests against the hand-built 20-commit corpus.

EXPECTED_FEATURES was computed with the brute-force prefix oracle below
(direct scans over commits[0:i], no incremental index) and spot-verified by
hand (f01-f05, f10, f13) before the production code existed; it is frozen
here and the oracle is kept to cross-check the whole table.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitdp import features
from jitdp.corpus import CommitRecord, DataError, FileChange
from jitdp.features import (
    FEATURE_NAMES,
    TABLE_HEADER,
    HandCraftedVector,
    HistoryIndex,
    TrainStats,
    classify_fix_message,
    extract_features,
    feature_matrix,
    featurize_corpus,
    fit_train_stats,
    normalize_features,
    split_and_normalize,
    write_feature_table,
)
from jitdp.pipeline import read_feature_table

from conftest import FIXTURE_COMMITS

# commit_id -> (ns, nd, nf, entropy, la, ld, lt, fix, ndev, age, nuc, exp, rexp, sexp)
EXPECTED_FEATURES = {
    "f01": (1, 1, 1, 0.0, 10, 0, 0.0, 0, 0, 0.0, 0, 0, 0, 0),
    "f02": (1, 1, 1, 0.0, 2, 1, 10.0, 1, 1, 1.0, 1, 0, 0, 0),
    "f03": (1, 1, 2, 0.8112781244591328, 8, 0, 5.5, 0, 2, 0.5, 2, 1, 0.9945541184479239, 1),
    "f04": (1, 1, 1, 0.0, 4, 4, 80.0, 0, 0, 0.0, 0, 0, 0, 0),
    "f05": (1, 1, 2, 0.9910760598382222, 8, 1, 3.0, 1, 1, 0.5, 1, 2, 1.9891229850621772, 2),
    "f06": (1, 1, 1, 0.0, 8, 2, 80.0, 0, 1, 2.75, 1, 1, 0.989167230873392, 0),
    "f07": (1, 1, 1, 0.0, 30, 0, 0.0, 0, 0, 0.0, 0, 0, 0, 0),
    "f08": (1, 1, 1, 0.0, 4, 2, 5.0, 1, 1, 3.0, 1, 3, 2.964858975200574, 3),
    "f09": (1, 1, 2, 0.9494520153879484, 18, 1, 15.0, 0, 1, 1.4791666666666667, 1, 1, 0.9919655991852437, 1),
    "f10": (1, 1, 1, 0.0, 5, 0, 0.0, 0, 0, 0.0, 0, 1, 0.9818548387096774, 1),
    "f11": (1, 1, 2, 0.9182958340544896, 5, 4, 45.5, 1, 2, 3.0, 3, 2, 1.9624475148812142, 1),
    "f12": (1, 1, 3, 0.9431887805255736, 4, 7, 9.333333333333334, 0, 2, 8.333333333333334, 5, 4, 3.9013322417839293, 4),
    "f13": (2, 2, 2, 0.5032583347756457, 5, 4, 60.5, 1, 3, 4.0, 5, 2, 1.9651715070209028, 2),
    "f14": (1, 1, 1, 0.0, 9, 2, 10.0, 0, 2, 5.0, 2, 2, 1.9501082251082251, 2),
    "f15": (1, 1, 1, 0.0, 14, 0, 0.0, 1, 0, 0.0, 0, 3, 2.9190380787462065, 2),
    "f16": (1, 1, 1, 0.0, 7, 3, 7.0, 0, 1, 5.0, 3, 5, 4.83642352307586, 5),
    "f17": (1, 1, 2, 0.863120568566631, 5, 2, 25.5, 1, 1, 7.5, 3, 3, 2.9255842888358514, 3),
    "f18": (1, 2, 2, 0.5916727785823275, 6, 1, 15.5, 1, 2, 4.75, 4, 3, 2.9109150831553454, 3),
    "f19": (1, 1, 1, 0.0, 2, 2, 87.0, 0, 3, 8.0, 4, 4, 3.862047770813975, 3),
    "f20": (1, 1, 2, 0.7219280948873623, 3, 2, 10.5, 1, 2, 8.5, 7, 6, 5.7446055376684715, 6),
}


def _sub(p):
    return p.split("/")[0]


def _dir(p):
    return "/".join(p.split("/")[:-1]) if "/" in p else p


def oracle_features(commits, i):
    """Brute force: rescan commits[0:i] for every history-dependent value."""
    c = commits[i]
    prior = commits[:i]
    paths = sorted({f.path for f in c.files})
    subs = {_sub(p) for p in paths}
    counts = [len(f.added_lines) + len(f.removed_lines) for f in c.files]
    total = sum(counts)
    n = len(c.files)
    ent = 0.0
    if n > 1 and total > 0:
        for k in counts:
            if k > 0:
                ent -= (k / total) * math.log2(k / total)
        ent /= math.log2(n)
    keywords = {"bug", "fix", "fixes", "fixed", "defect", "fault", "patch",
                "error", "fail", "failure"}
    fix = 1 if any(w in keywords for w in re.findall(r"[a-z0-9_]+", c.message.lower())) else 0
    devs, changes, ages = set(), set(), []
    for p in paths:
        touched = [q for q in prior if p in {f.path for f in q.files}]
        for q in touched:
            devs.add(q.author)
            changes.add(q.commit_id)
        ages.append(0.0 if not touched else (c.timestamp - touched[-1].timestamp) / 86400.0)
    mine = [q for q in prior if q.author == c.author]
    rexp = sum(1.0 / ((c.timestamp - q.timestamp) / (365.25 * 86400.0) + 1.0) for q in mine)
    sexp = sum(1 for q in mine for s in {_sub(f.path) for f in q.files} if s in subs)
    return (len(subs), len({_dir(p) for p in paths}), n, ent,
            sum(len(f.added_lines) for f in c.files),
            sum(len(f.removed_lines) for f in c.files),
            sum(f.loc_before for f in c.files) / n, fix,
            len(devs), sum(ages) / len(ages), len(changes), len(mine), rexp, sexp)


def _as_tuple(vec):
    return tuple(getattr(vec, name) for name in FEATURE_NAMES)


class TestFixtureOracle:
    def test_all_features_match_frozen_table(self, fixture_corpus):
        vectors = featurize_corpus(fixture_corpus)
        for cid, expected in EXPECTED_FEATURES.items():
            got = _as_tuple(vectors[cid])
            for name, g, e in zip(FEATURE_NAMES, got, expected):
                if isinstance(e, int):
                    assert g == e, f"{cid}.{name}: {g} != {e}"
                else:
                    assert g == pytest.approx(e, abs=1e-12), f"{cid}.{name}"

    def test_frozen_table_matches_live_oracle(self, fixture_corpus):
        for i, c in enumerate(fixture_corpus):
            got = oracle_features(fixture_corpus, i)
            for name, g, e in zip(FEATURE_NAMES, got, EXPECTED_FEATURES[c.commit_id]):
                assert g == pytest.approx(e, abs=1e-12), f"{c.commit_id}.{name}"

    def test_causality_future_shuffle_leaves_features_unchanged(self, fixture_corpus):
        base = featurize_corpus(fixture_corpus)
        for cut in (5, 10, 15):
            # rebuild the future arbitrarily; prefix features must not move
            shuffled = fixture_corpus[:cut] + list(reversed(fixture_corpus[cut:]))
            index = HistoryIndex()
            for commit in shuffled[:cut]:
                vec = extract_features(commit, index)
                assert _as_tuple(vec) == _as_tuple(base[commit.commit_id])
                index.update(commit)


class TestExtractFeatures:
    def test_degenerate_first_commit(self):
        commit = CommitRecord("x", 100, "new", "hello world", (
            FileChange("a/b.py", tuple(f"l{i}" for i in range(10)), (), 100),))
        vec = extract_features(commit, HistoryIndex())
        assert (vec.la, vec.ld, vec.lt, vec.nf, vec.ns, vec.nd) == (10, 0, 100.0, 1, 1, 1)
        assert (vec.entropy, vec.ndev, vec.exp, vec.age) == (0.0, 0, 0, 0.0)

    def test_entropy_boundaries(self):
        even = CommitRecord("x", 1, "a", "m", (
            FileChange("p/a", ("1", "2", "3", "4", "5"), (), 1),
            FileChange("p/b", ("1", "2", "3", "4", "5"), (), 1)))
        assert extract_features(even, HistoryIndex()).entropy == 1.0
        skewed = CommitRecord("y", 1, "a", "m", (
            FileChange("p/a", tuple("ab" * 5), (), 1),
            FileChange("p/b", (), (), 1)))
        assert extract_features(skewed, HistoryIndex()).entropy == 0.0

    def test_entropy_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            files = tuple(
                FileChange(f"s/{j}", tuple("x" * int(rng.integers(0, 9))), (), 1)
                for j in range(int(rng.integers(1, 6))))
            if sum(f.modified_line_count() for f in files) == 0:
                continue
            vec = extract_features(CommitRecord(f"t{trial}", 1, "a", "m", files), HistoryIndex())
            assert 0.0 <= vec.entropy <= 1.0 + 1e-12

    def test_empty_file_list_rejected(self):
        with pytest.raises(DataError):
            extract_features(CommitRecord("x", 1, "a", "m", ()), HistoryIndex())

    def test_la_ld_are_sums_over_files(self, fixture_corpus):
        vectors = featurize_corpus(fixture_corpus)
        for commit in fixture_corpus:
            vec = vectors[commit.commit_id]
            assert vec.la == sum(len(f.added_lines) for f in commit.files)
            assert vec.ld == sum(len(f.removed_lines) for f in commit.files)


class TestHistoryIndex:
    def test_prior_author_union(self):
        commits = [
            CommitRecord("a", 1, "A", "m", (FileChange("p/f", ("x",), (), 1),)),
            CommitRecord("b", 2, "B", "m", (FileChange("p/f", ("x",), (), 1),)),
            CommitRecord("c", 3, "C", "m", (FileChange("p/f", ("x",), (), 1),)),
        ]
        vecs = featurize_corpus(commits)
        assert vecs["c"].ndev == 2  # {A, B}

    def test_unsorted_updates_rejected(self, fixture_corpus):
        index = HistoryIndex()
        index.update(fixture_corpus[5])
        with pytest.raises(DataError):
            index.update(fixture_corpus[2])

    def test_unsorted_corpus_rejected(self, fixture_corpus):
        broken = [fixture_corpus[3], fixture_corpus[0]]
        with pytest.raises(DataError):
            featurize_corpus(broken)

    def test_per_path_change_counts_match_prefix_recount(self, fixture_corpus):
        index = HistoryIndex()
        for i, commit in enumerate(fixture_corpus):
            for path in {f.path for f in commit.files}:
                brute = {k for k, q in enumerate(fixture_corpus[:i])
                         if path in {f.path for f in q.files}}
                bits = index.path_change_bits.get(path, 0)
                assert {k for k in range(i) if bits >> k & 1} == brute
                assert bits >> i == 0
            index.update(commit)


class TestFixClassifier:
    # message -> expected flag; hand-labeled against the whole-word rule
    LABELED = [
        ("Fix null pointer in parser", 1),
        ("Prefix all log lines", 0),
        ("bugfix roundup", 0),          # joined word, no boundary
        ("fixes issue 12", 1),
        ("fixed the build", 1),
        ("hotfix deploy", 0),
        ("suffix trimming", 0),
        ("defect triage notes", 1),
        ("defects dashboard", 0),       # plural not in the list
        ("fault tolerant retries", 1),
        ("default timeout raised", 0),
        ("patch the allocator", 1),
        ("dispatch queue rework", 0),
        ("error codes for export", 1),
        ("terror movie easter egg", 0),
        ("fail fast on bad config", 1),
        ("failure injection", 1),
        ("failing tests quarantined", 0),
        ("BUG: stale cursor", 1),
        ("debug logging", 0),
        ("Bug 4411: crash on save", 1),
        ("fixture data refresh", 0),
        ("repair the parser", 0),       # 'repair' is not a listed keyword
        ("FIXME cleanup", 0),
        ("fix", 1),
        ("un-fix the workaround", 1),   # hyphen is a word boundary
        ("fix-up typos", 1),
        ("crash patch-set 3", 1),
        ("faulty sensor data", 0),
        ("this faults under load", 0),  # 'faults' plural not listed
        ("refactor config loader", 0),
        ("errors everywhere", 0),       # plural not listed
        ("typo fix.", 1),
        ("(fix) parser", 1),
        ("prefixes and suffixes", 0),
        ("microfix", 0),
        ("fix2 experiment", 0),         # digit continues the word
        ("add failover mode", 0),
        ("bug/1234 linked", 1),
        ("Patch Tuesday notes", 1),
        ("update dependencies", 0),
        ("defect", 1),
        ("fixed-point math", 1),
        ("a patchwork of hacks", 0),
        ("errorprone api removed", 0),
        ("fails on windows", 0),        # 'fails' not listed
        ("FAILURE in ci", 1),
        ("pre-fix discussion", 1),      # 'fix' isolated by hyphens
        ("nofix label added", 0),
        ("the bug tracker moved", 1),
    ]

    def test_hand_labeled_fixture(self):
        assert len(self.LABELED) == 50
        for message, expected in self.LABELED:
            assert classify_fix_message(message) == expected, message


# The keyword pattern as first written: ten alternatives, Unicode case folding.
ORIGINAL_FIX_PATTERN = re.compile(
    r"\b(bug|fix|fixes|fixed|defect|fault|patch|error|fail|failure)\b", re.IGNORECASE)
# Keywords, their prefixes and extensions, and characters that fold or sit
# at word boundaries differently under Unicode rules: Kelvin sign, long s,
# dotted capital I, non-breaking space, next-line.
_FIX_PIECES = st.sampled_from([
    "bug", "Fix", "FIXES", "fixed", "fixe", "defect", "Fault", "patch", "ERROR", "fail",
    "failure", "failur", "fails", "bugs", "x", "_", "0", " ", "-", ".", "\n",
    "\u212a", "\u017f", "\u0130", "\xa0", "\x85", "\xe9"])


class TestFixClassifierAgainstOriginalPattern:
    @settings(max_examples=400, deadline=None)
    @given(message=st.lists(_FIX_PIECES, max_size=8).map("".join))
    def test_keyword_pieces(self, message):
        assert classify_fix_message(message) == bool(ORIGINAL_FIX_PATTERN.search(message))

    @settings(max_examples=200, deadline=None)
    @given(message=st.text())
    def test_unicode_text(self, message):
        assert classify_fix_message(message) == bool(ORIGINAL_FIX_PATTERN.search(message))

    def test_acceptance_messages(self, acceptance_corpus):
        for commit in acceptance_corpus:
            assert classify_fix_message(commit.message) == \
                bool(ORIGINAL_FIX_PATTERN.search(commit.message)), commit.message


class TestSplitAndNormalize:
    def _stats(self, fixture_corpus):
        vectors = featurize_corpus(fixture_corpus)
        return fit_train_stats(list(vectors.values())), vectors

    def test_training_mean_maps_to_zero(self, fixture_corpus):
        stats, vectors = self._stats(fixture_corpus)
        some = next(iter(vectors.values()))
        mean_vec = HandCraftedVector(
            ns=stats.mean[0], nd=stats.mean[1], nf=stats.mean[2], entropy=stats.mean[3],
            la=stats.mean[4], ld=stats.mean[5], lt=stats.mean[6], fix=some.fix,
            ndev=stats.mean[7], age=stats.mean[8], nuc=stats.mean[9], exp=stats.mean[10],
            rexp=stats.mean[11], sexp=stats.mean[12])
        entry = split_and_normalize(mean_vec, stats)
        assert np.allclose(entry.x_cont, 0.0, atol=1e-12)

    def test_constant_feature_maps_to_zero(self, fixture_corpus):
        _, vectors = self._stats(fixture_corpus)
        stats = fit_train_stats(list(vectors.values()))
        ns_idx = 0  # ns is almost constant in the fixture; force it constant
        forced = TrainStats(mean=stats.mean, std=stats.std.copy(), split="train")
        forced.std[ns_idx] = 0.0
        entry = split_and_normalize(next(iter(vectors.values())), forced)
        assert entry.x_cont[ns_idx] == 0.0

    def test_normalized_training_columns_standardized(self, fixture_corpus):
        stats, vectors = self._stats(fixture_corpus)
        rows = np.stack([split_and_normalize(v, stats).x_cont for v in vectors.values()])
        live = stats.std > 0
        assert np.all(np.abs(rows.mean(axis=0)[live]) < 1e-9)
        assert np.allclose(rows.std(axis=0)[live], 1.0, atol=1e-9)

    def test_categorical_block_is_fix_only(self, fixture_corpus):
        stats, vectors = self._stats(fixture_corpus)
        entry = split_and_normalize(vectors["f02"], stats)
        assert entry.x_cat.shape == (1,)
        assert entry.x_cat[0] == 1.0
        assert entry.x_cont.shape == (13,)

    def test_non_training_stats_rejected(self, fixture_corpus):
        _, vectors = self._stats(fixture_corpus)
        leaked = fit_train_stats(list(vectors.values()), split="test")
        with pytest.raises(ValueError, match="split 'test'"):
            split_and_normalize(vectors["f01"], leaked)


class TestFeatureTable:
    def test_round_trip(self, fixture_corpus, tmp_path):
        labeled = [CommitRecord(c.commit_id, c.timestamp, c.author, c.message, c.files,
                                label=i % 2) for i, c in enumerate(fixture_corpus)]
        vectors = featurize_corpus(labeled)
        path = tmp_path / "features.csv"
        write_feature_table(path, labeled, vectors)
        ids, matrix, labels = read_feature_table(path)
        assert ids == [c.commit_id for c in labeled]
        assert labels == [c.label for c in labeled]
        for i, c in enumerate(labeled):
            assert np.array_equal(matrix[i], vectors[c.commit_id].as_array())

    @pytest.mark.parametrize("header", ["commit_id,ns,nd", "commit_id", TABLE_HEADER + ",extra",
                                        TABLE_HEADER.replace(",ns,", ",files,")],
                             ids=["short", "ids only", "extra column", "renamed column"])
    def test_other_header_rejected(self, tmp_path, header):
        path = tmp_path / "features.csv"
        path.write_text(header + "\nc1,1,2\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))} is not a feature table"):
            read_feature_table(path)


# ---------------------------------------------------------------------------
# Reference: extract_features as it stood before the history index kept
# timestamps in int64 arrays (list history, Python sums, np.mean). The array
# form must reproduce it bit for bit; repr() tells int from float and shows
# every bit of a float.
# ---------------------------------------------------------------------------


class ListHistory:
    def __init__(self):
        self.path_last_modified = {}
        self.path_authors = {}
        self.path_change_ids = {}
        self.author_commits = {}
        self.author_commit_times = {}
        self.author_subsystem_counts = {}

    def update(self, commit):
        for path in {f.path for f in commit.files}:
            self.path_last_modified[path] = commit.timestamp
            self.path_authors.setdefault(path, set()).add(commit.author)
            self.path_change_ids.setdefault(path, set()).add(commit.commit_id)
        self.author_commits[commit.author] = self.author_commits.get(commit.author, 0) + 1
        self.author_commit_times.setdefault(commit.author, []).append(commit.timestamp)
        sub_counts = self.author_subsystem_counts.setdefault(commit.author, {})
        for sub in {f.path.split("/", 1)[0] for f in commit.files}:
            sub_counts[sub] = sub_counts.get(sub, 0) + 1


def reference_features(commit, history):
    paths = sorted({f.path for f in commit.files})
    subsystems = {p.split("/", 1)[0] for p in paths}
    directories = {p.rsplit("/", 1)[0] if "/" in p else p for p in paths}
    line_counts = np.array([f.modified_line_count() for f in commit.files], dtype=np.float64)
    total_lines = float(line_counts.sum())
    n_files = len(commit.files)
    if n_files > 1 and total_lines > 0:
        p = line_counts[line_counts > 0] / total_lines
        entropy = float(-(p * np.log2(p)).sum() / np.log2(n_files))
    else:
        entropy = 0.0
    prior_authors, prior_changes, age_days = set(), set(), []
    for path in paths:
        prior_authors |= history.path_authors.get(path, set())
        prior_changes |= history.path_change_ids.get(path, set())
        last = history.path_last_modified.get(path)
        age_days.append(0.0 if last is None else (commit.timestamp - last) / 86_400.0)
    rexp = sum(1.0 / ((commit.timestamp - t) / (365.25 * 86_400.0) + 1.0)
               for t in history.author_commit_times.get(commit.author, []))
    sub_counts = history.author_subsystem_counts.get(commit.author, {})
    return (len(subsystems), len(directories), n_files, entropy,
            sum(len(f.added_lines) for f in commit.files),
            sum(len(f.removed_lines) for f in commit.files),
            float(np.mean([f.loc_before for f in commit.files])),
            classify_fix_message(commit.message), len(prior_authors),
            float(np.mean(age_days)), len(prior_changes),
            history.author_commits.get(commit.author, 0), float(rexp),
            sum(sub_counts.get(s, 0) for s in subsystems))


def assert_matches_reference(corpus):
    vectors = featurize_corpus(corpus)
    history = ListHistory()
    for commit in corpus:
        got = [repr(v) for v in _as_tuple(vectors[commit.commit_id])]
        assert got == [repr(v) for v in reference_features(commit, history)], commit.commit_id
        history.update(commit)


_PATHS = ("core/a.py", "core/b.py", "core/x/c.py", "core/x/d.py", "net/e.py", "net/io/f.py",
          "net/io/g.py", "ui/h.py", "ui/v/i.py", "db/j.py", "db/k.py", "README")
_GAPS = (0, 0, 1, 3_600, 86_400, 40 * 86_400, 3 * 365 * 86_400)


@st.composite
def corpora(draw):
    """Sorted corpora with repeated authors and paths, equal timestamps,
    large time gaps, and commits of 8 or more distinct paths (numpy's
    pairwise sum departs from a sequential one from 8 terms on)."""
    t = draw(st.integers(-10**10, 10**10))
    commits = []
    for i in range(draw(st.integers(1, 30))):
        t += draw(st.sampled_from(_GAPS) | st.integers(0, 10**8))
        paths = draw(st.lists(st.sampled_from(_PATHS), min_size=1, max_size=3)
                     | st.lists(st.sampled_from(_PATHS), min_size=8, max_size=12, unique=True))
        files = tuple(
            FileChange(path, ("+",) * draw(st.integers(0, 6)), ("-",) * draw(st.integers(0, 6)),
                       draw(st.integers(0, 10**6)))
            for path in paths)
        commits.append(CommitRecord(f"c{i:03d}", t, draw(st.sampled_from(("ann", "bo", "cy"))),
                                    draw(st.sampled_from(("fix crash", "add", "bug 7"))), files))
    return sorted(commits, key=lambda c: (c.timestamp, c.commit_id))


class TestArrayHistoryAgainstReference:
    @settings(max_examples=50, deadline=None)
    @given(corpus=corpora())
    def test_hypothesis_corpora(self, corpus):
        assert_matches_reference(corpus)

    def test_nine_paths_with_fractional_ages(self):
        history = [CommitRecord(f"h{j}", 1_000 + 7_919 * j * j, "bo", "m",
                                (FileChange(_PATHS[j], ("+",) * j),)) for j in range(9)]
        last = CommitRecord("z", 10**7, "bo", "m", tuple(FileChange(p, ("+",)) for p in _PATHS[:9]))
        assert_matches_reference(history + [last])

    def test_no_history(self):
        commit = CommitRecord("x", 5, "a", "m", tuple(FileChange(f"p/{j}", ("l",) * j, (), j)
                                                      for j in range(9)))
        assert_matches_reference([commit])

    def test_fixture_corpus(self, fixture_corpus):
        assert_matches_reference(fixture_corpus)

    def test_acceptance_corpus(self, acceptance_corpus):
        assert_matches_reference(acceptance_corpus)

    def test_bitsets_wider_than_a_machine_word(self):
        # 70 authors, then 70 more commits by one of them: the path's author
        # and change bitsets both pass 64 bits.
        commits = [CommitRecord(f"c{i:03d}", 1_000 * i, f"dev{min(i, 69)}", "m",
                                (FileChange("core/f.py", ("+",) * (i % 3 + 1)),
                                 FileChange(f"net/{i % 5}.py", ("-",))))
                   for i in range(140)]
        commits.append(CommitRecord("last", 10**6, "new", "m", (FileChange("core/f.py", ("+",)),)))
        assert_matches_reference(commits)
        vec = featurize_corpus(commits)["last"]
        assert (vec.ndev, vec.nuc) == (70, 140)

    def test_rexp_blocks_of_one_author(self, monkeypatch):
        # Small blocks: the author's 40 commits span several (commits x
        # prior timestamps) blocks.
        monkeypatch.setattr(features, "_REXP_BLOCK", 64)
        commits = [CommitRecord(f"c{i:02d}", 3_600 * i * i, "a", "m", (FileChange("p/f", ("x",)),))
                   for i in range(40)]
        assert_matches_reference(commits)

    def test_lt_of_a_loc_sum_past_int64(self):
        locs = (2**63 - 1, 2**62 + 7, 2**61 + 3)
        commit = CommitRecord("x", 1, "a", "m", tuple(FileChange(f"p/{j}", ("+",), (), loc)
                                                      for j, loc in enumerate(locs)))
        assert sum(locs) > 2**63
        table = featurize_corpus([commit])
        assert table["x"].lt == sum(locs) / 3
        assert table.matrix[0, FEATURE_NAMES.index("lt")] == sum(locs) / 3
        assert_matches_reference([commit])

    def test_one_commit_against_a_populated_index(self, acceptance_corpus):
        index, history = HistoryIndex(), ListHistory()
        for commit in acceptance_corpus[:600]:
            index.update(commit)
            history.update(commit)
        for commit in acceptance_corpus[600:640]:
            got = [repr(v) for v in _as_tuple(extract_features(commit, index))]
            assert got == [repr(v) for v in reference_features(commit, history)], commit.commit_id

    def test_timestamp_buffer_grows_past_its_capacity(self):
        commits = [CommitRecord(f"c{i:02d}", i * 86_400, "a", "m", (FileChange("p/f", ("x",)),))
                   for i in range(40)]
        index = HistoryIndex()
        for commit in commits:
            index.update(commit)
        assert index.author_commits["a"] == 40
        assert list(index.author_commit_times["a"][:40]) == [c.timestamp for c in commits]


class TestFeaturizedMatrix:
    def test_matrix_equals_feature_matrix_of_its_vectors(self, acceptance_corpus):
        table = featurize_corpus(acceptance_corpus)
        assert len(table) == len(acceptance_corpus)
        assert list(table) == [c.commit_id for c in acceptance_corpus]
        x = feature_matrix(table[c.commit_id] for c in acceptance_corpus)
        assert table.matrix.dtype == np.float64
        assert table.matrix.tobytes() == x.tobytes()

    def test_vectors_carry_int_and_float_types(self, fixture_corpus):
        vec = featurize_corpus(fixture_corpus)["f12"]
        for name in FEATURE_NAMES:
            expected = float if name in ("entropy", "lt", "age", "rexp") else int
            assert type(getattr(vec, name)) is expected, name

    def test_read_only_mapping(self, fixture_corpus):
        table = featurize_corpus(fixture_corpus)
        assert "f01" in table and "zz" not in table
        with pytest.raises(KeyError):
            table["zz"]
        with pytest.raises(TypeError):
            table["f01"] = None

    def test_empty_corpus(self):
        table = featurize_corpus([])
        assert len(table) == 0 and table.matrix.shape == (0, len(FEATURE_NAMES))

    @settings(max_examples=30, deadline=None)
    @given(corpus=corpora(), data=st.data())
    def test_parts_through_one_history_are_one_call(self, corpus, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(corpus)), max_size=4)))
        history = HistoryIndex()
        parts = [featurize_corpus(corpus[a:b], history).matrix
                 for a, b in zip([0, *cuts], [*cuts, len(corpus)])]
        assert np.concatenate(parts).tobytes() == featurize_corpus(corpus).matrix.tobytes()
        assert history.changes == len(corpus)

    def test_a_part_must_follow_its_history(self, fixture_corpus):
        history = HistoryIndex()
        featurize_corpus(fixture_corpus[:10], history)
        for part in (fixture_corpus[9:12], fixture_corpus[5:8]):
            with pytest.raises(DataError, match=f"commit {part[0].commit_id} is not later"):
                featurize_corpus(part, history)
        assert history.changes == 10


class TestNormalizeFeatures:
    def test_rows_equal_one_row_calls(self, fixture_corpus):
        vectors = featurize_corpus(fixture_corpus)
        stats = fit_train_stats(list(vectors.values())[:12])
        x = feature_matrix(vectors.values())
        x_cat, x_cont = normalize_features(x, stats)
        assert x_cat.shape == (20, 1) and x_cont.shape == (20, 13)
        assert x_cat.flags.c_contiguous and x_cont.flags.c_contiguous
        for j, vec in enumerate(vectors.values()):
            entry = split_and_normalize(vec, stats)
            assert np.array_equal(x_cat[j], entry.x_cat)
            assert np.array_equal(x_cont[j], entry.x_cont)

    def test_matrix_rows_are_as_array(self, fixture_corpus):
        vectors = list(featurize_corpus(fixture_corpus).values())
        x = feature_matrix(vectors)
        assert x.dtype == np.float64
        assert np.array_equal(x, np.stack([v.as_array() for v in vectors]))
        assert feature_matrix([]).shape == (0, 14)

    def test_non_training_stats_rejected(self, fixture_corpus):
        vectors = featurize_corpus(fixture_corpus)
        leaked = fit_train_stats(list(vectors.values()), split="validation")
        with pytest.raises(ValueError, match="split 'validation'"):
            normalize_features(feature_matrix(vectors.values()), leaked)
