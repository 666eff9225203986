"""Corpus ingestion, splitting, rebalancing, and generator tests."""

import copy
import dataclasses
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jitdp.corpus import (
    CommitRecord,
    DataError,
    FileChange,
    SyntheticSpec,
    chronological_split,
    commit_to_json,
    csv_line,
    drop_large_commits,
    load_commit_stream,
    parse_commit_line,
    save_commit_stream,
    sort_chronologically,
    stratified_kfold,
    synthesize_corpus,
    undersample,
)


def _minimal_line(cid="c1", ts=100, label=None):
    obj = {
        "commit_id": cid, "timestamp": ts, "author": "a", "message": "m",
        "files": [{"path": "p/f", "added_lines": ["x"], "removed_lines": [], "loc_before": 3}],
    }
    if label is not None:
        obj["label"] = label
    return json.dumps(obj)


class TestLoadStream:
    def test_three_valid_lines_in_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(_minimal_line(f"c{i}", ts=i) for i in range(3)) + "\n")
        records = load_commit_stream(path)
        assert [r.commit_id for r in records] == ["c0", "c1", "c2"]

    def test_missing_timestamp_names_line_and_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = json.loads(_minimal_line("c2"))
        del bad["timestamp"]
        path.write_text(_minimal_line("c1") + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataError, match=r"line 2.*'timestamp'"):
            load_commit_stream(path)

    def test_boolean_timestamp_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(_minimal_line("c0") + "\n" + _minimal_line("c1", ts=True) + "\n")
        with pytest.raises(DataError, match=r"line 2.*'timestamp'"):
            load_commit_stream(path)

    @pytest.mark.parametrize("ts", [2**62, -(2**62), 2**63, -(2**63) - 1, 10**30])
    def test_timestamp_outside_int64_difference_range_rejected(self, tmp_path, ts):
        path = tmp_path / "c.jsonl"
        path.write_text(_minimal_line("c0") + "\n" + _minimal_line("c1", ts=ts) + "\n")
        with pytest.raises(DataError, match=r"line 2.*'timestamp'"):
            load_commit_stream(path)

    def test_timestamp_range_edges_accepted(self):
        for ts in (2**62 - 1, -(2**62) + 1):
            assert parse_commit_line(_minimal_line(ts=ts), 1).timestamp == ts

    def test_boolean_label_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(_minimal_line("c0", label=1) + "\n" + _minimal_line("c1", label=False) + "\n")
        with pytest.raises(DataError, match=r"line 2.*'label'"):
            load_commit_stream(path)

    @pytest.mark.parametrize("label", [1.0, 0.0])
    def test_float_label_rejected(self, tmp_path, label):
        path = tmp_path / "c.jsonl"
        path.write_text(_minimal_line("c0", label=1) + "\n" + _minimal_line("c1", label=label) + "\n")
        with pytest.raises(DataError, match=r"line 2.*'label'"):
            load_commit_stream(path)

    def test_boolean_loc_before_rejected(self, tmp_path):
        obj = json.loads(_minimal_line("c0"))
        obj["files"][0]["loc_before"] = True
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DataError, match=r"line 1.*'loc_before'"):
            load_commit_stream(path)

    def test_duplicate_commit_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(_minimal_line("dup") + "\n" + _minimal_line("dup") + "\n")
        with pytest.raises(DataError, match="duplicate"):
            load_commit_stream(path)

    @pytest.mark.parametrize("field", ["commit_id", "author", "message"])
    @pytest.mark.parametrize("value", [None, 7, ["x"], {"a": "b"}])
    def test_non_string_field_rejected(self, tmp_path, field, value):
        """A null author would otherwise become the developer "None", one
        history shared by every such commit."""
        obj = json.loads(_minimal_line("c1"))
        obj[field] = value
        path = tmp_path / "c.jsonl"
        path.write_text(_minimal_line("c0") + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(DataError, match=rf"line 2: field '{field}' must be a string"):
            load_commit_stream(path)

    @pytest.mark.parametrize("value", [None, 7, ["p/f"]])
    def test_non_string_path_rejected(self, tmp_path, value):
        obj = json.loads(_minimal_line("c0"))
        obj["files"].append(dict(obj["files"][0], path=value))
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DataError, match=r"line 1: files\[1\] field 'path' must be a string"):
            load_commit_stream(path)

    @pytest.mark.parametrize("side", ["added_lines", "removed_lines"])
    @pytest.mark.parametrize("value", [None, 7, "xy", {"a": "b"}, ["x", 7], [None], [["x"]], ["x", "y", True]])
    def test_side_that_is_not_an_array_of_strings_rejected(self, tmp_path, side, value):
        obj = json.loads(_minimal_line("c0"))
        obj["files"].append(dict(obj["files"][0], **{side: value}))
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DataError, match=rf"^line 1: files\[1\] field '{side}' must be an array of strings$"):
            load_commit_stream(path)

    def test_bad_added_side_is_named_before_bad_removed_side_and_loc_before(self, tmp_path):
        obj = json.loads(_minimal_line("c0"))
        obj["files"][0].update(added_lines=[1], removed_lines="x", loc_before=-1)
        with pytest.raises(DataError, match=r"field 'added_lines' must be an array of strings"):
            parse_commit_line(json.dumps(obj), 1)
        obj["files"][0]["added_lines"] = []
        with pytest.raises(DataError, match=r"field 'removed_lines' must be an array of strings"):
            parse_commit_line(json.dumps(obj), 1)

    @pytest.mark.parametrize("cid", ["a,b", "a\rb", "a\nb", ",", "\n"])
    def test_commit_id_that_breaks_a_csv_line_rejected(self, tmp_path, cid):
        path = tmp_path / "c.jsonl"
        path.write_text(_minimal_line("c0") + "\n" + _minimal_line(cid) + "\n")
        assert parse_commit_line(_minimal_line(cid), 2).commit_id == cid
        with pytest.raises(DataError, match=r"line 2: field 'commit_id' must not contain"):
            load_commit_stream(path)

    def test_commit_id_with_other_punctuation_accepted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(_minimal_line("a b\t\"'; ü") + "\n")
        assert load_commit_stream(path)[0].commit_id == "a b\t\"'; ü"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_commit_stream(tmp_path / "absent.jsonl")

    def test_directory_rejected_as_unreadable(self, tmp_path):
        with pytest.raises(DataError, match=rf"^cannot read {re.escape(str(tmp_path))}: Is a directory$"):
            load_commit_stream(tmp_path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, newline):
        """Line 2 is blank, line 3 holds the bad byte: lines are counted as
        the text-mode read counts them, whichever line ending the file uses."""
        path = tmp_path / "c.jsonl"
        lines = [_minimal_line("c1").encode(), b"", b'{"commit_id": "\xff"}', _minimal_line("c2").encode()]
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(DataError, match=r"^line 3: not UTF-8 text \(invalid start byte\)$"):
            load_commit_stream(path)

    @pytest.mark.parametrize("first, second, reason", [
        (b"{bad", b"{}", r"line 1: invalid JSON \(.+\)"),
        (_minimal_line("c1").encode(), _minimal_line("c1").encode(), r"line 2: duplicate commit_id 'c1'"),
    ], ids=["malformed", "duplicate id"])
    def test_bad_line_before_a_bad_byte_is_named_first(self, tmp_path, first, second, reason):
        path = tmp_path / "c.jsonl"
        path.write_bytes(first + b"\n" + second + b"\n\xff\n")
        with pytest.raises(DataError, match=rf"^{reason}$"):
            load_commit_stream(path)

    def test_unknown_keys_ignored(self, tmp_path):
        obj = json.loads(_minimal_line())
        obj["branch"] = "main"
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        assert load_commit_stream(path)[0].commit_id == "c1"

    def test_fixture_corpus_round_trip(self, fixture_corpus, tmp_path):
        path = tmp_path / "f.jsonl"
        save_commit_stream(path, fixture_corpus)
        loaded = load_commit_stream(path)
        assert len(loaded) == 20
        assert len({r.commit_id for r in loaded}) == 20
        assert loaded == fixture_corpus


def _corpus(n, t0=0):
    return [
        CommitRecord(f"c{i:03d}", t0 + i, "a", "m",
                     (FileChange("s/f", ("x",), (), 1),), label=i % 2)
        for i in range(n)
    ]


class TestChronologicalSplit:
    def test_default_ratios_on_100(self):
        split = chronological_split(_corpus(100), (0.75, 0.05, 0.20))
        assert (len(split.train_ids), len(split.validation_ids), len(split.test_ids)) == (75, 5, 20)

    def test_floor_arithmetic_on_97(self):
        split = chronological_split(_corpus(97), (0.75, 0.05, 0.20))
        assert (len(split.train_ids), len(split.validation_ids), len(split.test_ids)) == (72, 4, 21)

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            chronological_split(_corpus(100), (0.8, 0.0, 0.2))

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            chronological_split([], (0.75, 0.05, 0.2))

    def test_no_future_leakage(self):
        rng = np.random.default_rng(0)
        commits = [
            CommitRecord(f"c{i}", int(rng.integers(0, 10_000)), "a", "m",
                         (FileChange("s/f", ("x",), (), 1),))
            for i in range(50)
        ]
        split = chronological_split(commits, (0.6, 0.2, 0.2))
        ts = {c.commit_id: c.timestamp for c in commits}
        assert max(ts[i] for i in split.train_ids) <= min(ts[i] for i in split.validation_ids)
        assert min(ts[i] for i in split.validation_ids) <= min(ts[i] for i in split.test_ids)

    def test_timestamp_ties_broken_by_commit_id(self):
        commits = [CommitRecord(c, 5, "a", "m", (FileChange("s/f", ("x",), (), 1),))
                   for c in ("b", "a", "d", "c")]
        ordered = sort_chronologically(commits)
        assert [c.commit_id for c in ordered] == ["a", "b", "c", "d"]


class TestStratifiedKfold:
    def test_divisible_counts(self):
        labels = {f"p{i}": 1 for i in range(10)} | {f"n{i}": 0 for i in range(10)}
        folds = stratified_kfold(labels, k=5, seed=0)
        for f in range(5):
            members = [i for i, g in folds.items() if g == f]
            assert sum(labels[i] for i in members) == 2
            assert len(members) == 4

    def test_remainder_spreads_by_one(self):
        labels = {f"p{i}": 1 for i in range(11)} | {f"n{i}": 0 for i in range(10)}
        folds = stratified_kfold(labels, k=5, seed=3)
        pos_counts = sorted(
            sum(1 for i, g in folds.items() if g == f and labels[i] == 1) for f in range(5))
        assert pos_counts == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        labels = {f"x{i}": i % 2 for i in range(40)}
        assert stratified_kfold(labels, 5, seed=9) == stratified_kfold(labels, 5, seed=9)

    def test_every_id_assigned_once(self):
        labels = {f"x{i}": i % 2 for i in range(41)}
        folds = stratified_kfold(labels, 4, seed=1)
        assert set(folds) == set(labels)
        assert set(folds.values()) <= set(range(4))

    def test_small_class_rejected(self):
        labels = {"a": 1, "b": 1, "c": 0, "d": 0, "e": 0, "f": 0, "g": 0}
        with pytest.raises(DataError, match="class 1"):
            stratified_kfold(labels, k=3, seed=0)


class TestUndersample:
    def _labels(self, n_clean, n_defective):
        labels = {f"c{i}": 0 for i in range(n_clean)}
        labels |= {f"d{i}": 1 for i in range(n_defective)}
        return labels

    def test_80_20_becomes_20_20(self):
        labels = self._labels(80, 20)
        kept = undersample(labels.keys(), labels, seed=0)
        assert sum(labels[i] for i in kept) == 20
        assert sum(1 - labels[i] for i in kept) == 20

    def test_balanced_input_unchanged(self):
        labels = self._labels(20, 20)
        assert undersample(labels.keys(), labels, seed=0) == set(labels)

    def test_two_seeds_differ_only_in_majority(self):
        labels = self._labels(81, 20)
        a = undersample(labels.keys(), labels, seed=1)
        b = undersample(labels.keys(), labels, seed=2)
        minority = {i for i, y in labels.items() if y == 1}
        assert a != b
        assert len(a) == len(b) == 40
        assert minority <= a and minority <= b

    def test_output_is_subset(self):
        labels = self._labels(33, 11)
        kept = undersample(labels.keys(), labels, seed=5)
        assert kept <= set(labels)

    def test_single_class_rejected(self):
        labels = {f"c{i}": 0 for i in range(10)}
        with pytest.raises(DataError):
            undersample(labels.keys(), labels, seed=0)


class TestDropLargeCommits:
    def _sized(self, sizes):
        return [
            CommitRecord(f"c{i:02d}", i, "a", "m",
                         (FileChange("s/f", tuple("x" * s), (), 1),))
            for i, s in enumerate(sizes)
        ]

    def test_zero_fraction_is_identity(self):
        corpus = self._sized([3, 1, 2])
        assert drop_large_commits(corpus, 0.0) == corpus

    def test_drops_largest_two_of_ten(self):
        corpus = self._sized(list(range(1, 11)))
        reduced = drop_large_commits(corpus, 0.2)
        sizes = sorted(c.size() for c in reduced)
        assert sizes == list(range(1, 9))

    def test_result_size_formula(self):
        rng = np.random.default_rng(2)
        corpus = self._sized(list(rng.integers(1, 50, size=37)))
        for frac in (0.0, 0.1, 0.25, 0.5, 0.99):
            reduced = drop_large_commits(corpus, frac)
            assert len(reduced) == 37 - int(np.floor(37 * frac))

    def test_ties_keep_lexicographically_smaller_id(self):
        corpus = self._sized([5, 5, 5, 1])
        reduced = drop_large_commits(corpus, 0.5)
        # two of the three size-5 commits go; c00 (smaller id) is dropped first
        assert [c.commit_id for c in reduced] == ["c02", "c03"]

    def test_fraction_one_rejected(self):
        with pytest.raises(ValueError):
            drop_large_commits(self._sized([1, 2]), 1.0)


class TestSynthesize:
    def test_imbalance_counts_exact(self):
        corpus = synthesize_corpus(SyntheticSpec(size=1000, imbalance=4.0, seed=0))
        defective = sum(c.label for c in corpus)
        assert defective == 200
        assert len(corpus) - defective == 800

    def test_equal_seeds_identical(self):
        spec = SyntheticSpec(size=150, seed=42)
        assert synthesize_corpus(spec) == synthesize_corpus(spec)

    def test_different_seeds_differ(self):
        a = synthesize_corpus(SyntheticSpec(size=150, seed=1))
        b = synthesize_corpus(SyntheticSpec(size=150, seed=2))
        assert a != b

    def test_zero_strengths_without_target_allowed(self):
        corpus = synthesize_corpus(SyntheticSpec(size=100, feature_strength=0.0,
                                                 text_strength=0.0, seed=3))
        assert len(corpus) == 100

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            synthesize_corpus(SyntheticSpec(size=50))

    def test_commits_are_schema_complete(self):
        corpus = synthesize_corpus(SyntheticSpec(size=120, seed=5))
        for c in corpus:
            assert c.files
            assert all(f.added_lines or f.removed_lines for f in c.files)
            assert c.label in (0, 1)
        ts = [c.timestamp for c in corpus]
        assert ts == sorted(ts)

    def test_round_trips_through_stream_format(self, tmp_path):
        corpus = synthesize_corpus(SyntheticSpec(size=110, seed=8))
        path = tmp_path / "synth.jsonl"
        save_commit_stream(path, corpus)
        assert load_commit_stream(path) == corpus


class TestSignalLevels:
    """Generator signal strengths measured with the metric oracle; the
    feature-only and null corpora pin the qualitative contract."""

    def _forest_auc(self, spec):
        from jitdp.evaluation import roc_auc
        from jitdp.features import featurize_corpus
        from jitdp.simple_model import forest_predict_many, train_forest

        corpus = synthesize_corpus(spec)
        labels = {c.commit_id: c.label for c in corpus}
        split = chronological_split(corpus)
        vectors = featurize_corpus(corpus)
        kept = sorted(undersample(split.train_ids, labels, seed=1))
        model = train_forest(
            np.stack([vectors[i].as_array() for i in kept]),
            np.array([labels[i] for i in kept]), seed=3)
        test = sorted(split.test_ids)
        scores = forest_predict_many(model, np.stack([vectors[i].as_array() for i in test]))
        return roc_auc(scores, np.array([labels[i] for i in test]))

    def test_full_feature_signal_separates(self):
        auc = self._forest_auc(SyntheticSpec(size=400, feature_strength=1.0,
                                             text_strength=0.0, seed=7))
        assert auc >= 0.95

    def test_no_signal_is_chance_level(self):
        auc = self._forest_auc(SyntheticSpec(size=1000, feature_strength=0.0,
                                             text_strength=0.0, seed=7))
        assert abs(auc - 0.5) <= 0.05

    def test_text_signal_invisible_to_features(self):
        auc = self._forest_auc(SyntheticSpec(size=400, feature_strength=0.0,
                                             text_strength=1.0, seed=7))
        assert auc < 0.6


_STRINGS = st.text(max_size=12)


@st.composite
def commit_records(draw):
    files = tuple(
        FileChange(draw(_STRINGS), tuple(draw(st.lists(_STRINGS, max_size=3))),
                   tuple(draw(st.lists(_STRINGS, max_size=3))), draw(st.integers(0, 2**64)))
        for _ in range(draw(st.integers(0, 3))))
    return CommitRecord(draw(_STRINGS), draw(st.integers(-(2**62) + 1, 2**62 - 1)), draw(_STRINGS),
                        draw(_STRINGS), files, draw(st.sampled_from((None, 0, 1))))


def _one_file_commit(added, removed):
    return CommitRecord("c", 0, "a", "m", (FileChange("p", added, removed, 1),))


class TestCommitJsonRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(record=commit_records())
    @example(record=_one_file_commit(("a\nb", "c"), ("\n",)))  # lines that hold "\n"
    @example(record=_one_file_commit(("",), ()))  # ("",) and () join to one text
    @example(record=_one_file_commit((), ("", "")))
    @example(record=_one_file_commit(("x\r", "\r\n"), ("\r",)))
    @example(record=_one_file_commit(("naïve = größe;", "\u2028\x85"), ("日本語",)))
    def test_parse_of_serialized_commit_is_the_commit(self, record):
        line = commit_to_json(record)
        assert "\n" not in line
        assert parse_commit_line(line, 1) == record


# Lines with "\n", "\r", other line breaks, empty lines and non-ASCII text.
_LINES = st.lists(st.one_of(st.text(max_size=12), st.text(alphabet="ab \n\r\x85\u2028é", max_size=4)),
                  max_size=5).map(tuple)


class TestFileChangeAgainstLineTuples:
    """A FileChange holds each side as joined text plus a count; everything
    read from it equals what the line tuples themselves give."""

    @settings(max_examples=300, deadline=None)
    @given(added=_LINES, removed=_LINES)
    @example(added=("",), removed=())
    @example(added=("a\nb",), removed=("a", "b"))
    def test_reads_equal_the_line_tuple_formulation(self, added, removed):
        from jitdp.features import featurize_corpus
        from jitdp.textprep import ADDED_HEADER, REMOVED_HEADER, render_change_document, tokenize

        file = FileChange("p", added, removed, 2)
        assert type(file.added_lines) is tuple and file.added_lines == added
        assert type(file.removed_lines) is tuple and file.removed_lines == removed
        assert file.modified_line_count() == len(added) + len(removed)
        assert render_change_document(file) == [ADDED_HEADER, *tokenize("\n".join(added)),
                                                REMOVED_HEADER, *tokenize("\n".join(removed))]
        vec = featurize_corpus([CommitRecord("c", 0, "a", "m", (file,))])["c"]
        assert (vec.la, vec.ld) == (len(added), len(removed))
        assert FileChange("p", list(added), list(removed), 2) == file

    @settings(max_examples=300, deadline=None)
    @given(a=st.tuples(_LINES, _LINES), b=st.tuples(_LINES, _LINES))
    @example(a=(("",), ()), b=((), ()))
    @example(a=(("a\nb",), ()), b=(("a", "b"), ()))
    @example(a=(("a\n", "b"), ()), b=(("a", "\nb"), ()))
    def test_equal_exactly_when_the_lines_are(self, a, b):
        fa, fb = FileChange("p", *a), FileChange("p", *b)
        assert (fa == fb) == (a == b)
        if a == b:
            assert hash(fa) == hash(fb)


class TestLoadedStreamMemory:
    def test_repeated_authors_and_paths_are_one_object_each(self, tmp_path):
        path = tmp_path / "synth.jsonl"
        save_commit_stream(path, synthesize_corpus(SyntheticSpec(size=300, seed=0)))
        loaded = load_commit_stream(path)
        for names in ([c.author for c in loaded], [f.path for c in loaded for f in c.files]):
            first = {}
            assert len(set(names)) < len(names) / 2  # most names repeat
            assert all(first.setdefault(name, name) is name for name in names)

    @pytest.mark.parametrize("value", [None, 7])
    def test_non_string_author_and_path_keep_their_error_text(self, value):
        """The loader interns author and path only once their type is
        checked, so sys.intern's own TypeError never shows."""
        author = json.loads(_minimal_line("c0"))
        author["author"] = value
        path = json.loads(_minimal_line("c0"))
        path["files"][0]["path"] = value
        for obj, text in ((author, "line 1: field 'author' must be a string"),
                          (path, "line 1: files[0] field 'path' must be a string")):
            with pytest.raises(DataError) as info:
                parse_commit_line(json.dumps(obj), 1)
            assert str(info.value) == text

    def test_slotted_record_survives_pickle_copy_and_replace(self):
        record = synthesize_corpus(SyntheticSpec(size=100, seed=0))[0]
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        changed = dataclasses.replace(record, message="other", label=None)
        assert (changed.message, changed.label, changed.files) == ("other", None, record.files)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.author = "x"

    def test_live_bytes_per_modified_line(self, tmp_path):
        """A loaded line costs its characters, not a str object of its own:
        about 45 B per line here, against about 95 B when each line was
        held as a str in a tuple."""
        import tracemalloc

        corpus = synthesize_corpus(SyntheticSpec(size=2000, seed=0))
        path = tmp_path / "synth.jsonl"
        save_commit_stream(path, corpus)
        lines = sum(c.size() for c in corpus)
        del corpus
        tracemalloc.start()
        try:
            loaded = load_commit_stream(path)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 2000
        assert live / lines < 64


def _writer_cell(value) -> str:
    """How each CSV writer printed a value before they shared csv_line:
    repr for floats, str for ints and strings, blank for None."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


_EDGE_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e16,
                                5e-324, -5e-324, 1e-5, 0.1, 2.0**53 + 1, 1.7976931348623157e308])
_CSV_VALUES = st.one_of(st.none(), st.floats(), _EDGE_FLOATS, st.integers(), st.text())


class TestCsvLine:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_CSV_VALUES, max_size=8))
    def test_matches_each_writers_rule(self, values):
        assert csv_line(values) == ",".join(map(_writer_cell, values))

    def test_numpy_scalars_after_tolist(self):
        row = np.array([0.1, 1e16, -0.0]).tolist() + np.array([3], dtype=np.int64).tolist()
        assert csv_line(row) == "0.1,1e+16,-0.0,3"
