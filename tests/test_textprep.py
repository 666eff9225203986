"""Tokenizer, change-document, vocabulary, and encoding tests."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitdp.corpus import CommitRecord, FileChange
from jitdp.deep_model import build_dataset
from jitdp.pipeline import RunConfig
from jitdp.textprep import (
    ADDED_HEADER,
    ADDED_ID,
    PAD_ID,
    REMOVED_HEADER,
    REMOVED_ID,
    TextShape,
    UNK_ID,
    build_vocab,
    decode_ids,
    encode_commits,
    load_vocab,
    render_change_document,
    save_vocab,
    tokenize,
)

# message -> expected tokens, hand-tokenized against the stated rule:
# lowercase, split on whitespace and punctuation boundaries, punctuation
# runs stay single tokens.
HAND_TOKENIZED = [
    ("Fix NPE in Parser.java", ["fix", "npe", "in", "parser", ".", "java"]),
    ("", []),
    ("update deps", ["update", "deps"]),
    ("x += 1", ["x", "+=", "1"]),
    ("don't crash", ["don", "'", "t", "crash"]),
    ("merge branch 'dev'", ["merge", "branch", "'", "dev", "'"]),
    ("v2.0 release", ["v2", ".", "0", "release"]),
    ("someCamelCase", ["somecamelcase"]),
    ("snake_case kept", ["snake_case", "kept"]),
    ("a+b=c", ["a", "+", "b", "=", "c"]),
    ("C++ parser", ["c", "++", "parser"]),
    ("semi;colon", ["semi", ";", "colon"]),
    ("  spaces   everywhere  ", ["spaces", "everywhere"]),
    ("tabs\tand\nnewlines", ["tabs", "and", "newlines"]),
    ("100% done", ["100", "%", "done"]),
    ("(parens)", ["(", "parens", ")"]),
    ("[brackets]", ["[", "brackets", "]"]),
    ("{braces}", ["{", "braces", "}"]),
    ("path/to/file", ["path", "/", "to", "/", "file"]),
    ("a--b", ["a", "--", "b"]),
    ("-->", ["-->"]),
    ("?!?", ["?!?"]),
    ("ABC DEF", ["abc", "def"]),
    ("MixedCASE Words", ["mixedcase", "words"]),
    ("3.14159", ["3", ".", "14159"]),
    ("under_score_mix", ["under_score_mix"]),
    ("hyphen-ated", ["hyphen", "-", "ated"]),
    ("e.g. test", ["e", ".", "g", ".", "test"]),
    ('quote"inside', ["quote", '"', "inside"]),
    ("back\\slash", ["back", "\\", "slash"]),
    ("colon: value", ["colon", ":", "value"]),
    ("comma,separated,list", ["comma", ",", "separated", ",", "list"]),
    ("exclaim!", ["exclaim", "!"]),
    ("question?", ["question", "?"]),
    ("at@sign", ["at", "@", "sign"]),
    ("hash#tag", ["hash", "#", "tag"]),
    ("dollar$sign", ["dollar", "$", "sign"]),
    ("percent%sign", ["percent", "%", "sign"]),
    ("caret^top", ["caret", "^", "top"]),
    ("amp&ersand", ["amp", "&", "ersand"]),
    ("star*power", ["star", "*", "power"]),
    ("pipe|line", ["pipe", "|", "line"]),
    ("tilde~wave", ["tilde", "~", "wave"]),
    ("less<more>", ["less", "<", "more", ">"]),
    ("equals==check", ["equals", "==", "check"]),
    ("arrow->next", ["arrow", "->", "next"]),
    ("d1g1ts m1xed", ["d1g1ts", "m1xed"]),
    ("ALL CAPS FIX", ["all", "caps", "fix"]),
    ("trailing space ", ["trailing", "space"]),
    ("único café", ["único", "café"]),
]


class TestTokenize:
    def test_hand_tokenized_fixture(self):
        assert len(HAND_TOKENIZED) == 50
        for text, expected in HAND_TOKENIZED:
            assert tokenize(text) == expected, repr(text)

    def test_deterministic(self):
        text = "Fix NPE in Parser.java!!"
        assert tokenize(text) == tokenize(text)


class TestRenderChangeDocument:
    def test_added_only(self):
        doc = render_change_document(FileChange("p", ("int x = 1;",), ()))
        assert doc == [ADDED_HEADER, "int", "x", "=", "1", ";", REMOVED_HEADER]

    def test_removed_only(self):
        doc = render_change_document(FileChange("p", (), ("return y;",)))
        assert doc == [ADDED_HEADER, REMOVED_HEADER, "return", "y", ";"]

    def test_exactly_two_headers_regardless_of_hunks(self):
        many_hunks = FileChange(
            "p",
            tuple(f"added line {i}" for i in range(7)),
            tuple(f"removed line {i}" for i in range(5)),
        )
        doc = render_change_document(many_hunks)
        assert doc.count(ADDED_HEADER) == 1
        assert doc.count(REMOVED_HEADER) == 1
        assert doc[0] == ADDED_HEADER

    def test_line_order_preserved(self):
        doc = render_change_document(FileChange("p", ("first one", "second two"), ()))
        i_first = doc.index("first")
        i_second = doc.index("second")
        assert i_first < i_second

    def test_headers_never_produced_by_tokenizer(self):
        assert tokenize("Added: Removed:") == ["added", ":", "removed", ":"]


class TestBuildVocab:
    def test_top_frequency_token_kept(self):
        docs = [["the"] * 100, ["rare", "words", "here", "too"]]
        vocab = build_vocab(docs, max_size=5, min_frequency=1)
        assert vocab.lookup("the") != UNK_ID

    def test_below_min_frequency_unknown(self):
        docs = [["common", "common", "once"]]
        vocab = build_vocab(docs, min_frequency=2)
        assert vocab.lookup("once") == UNK_ID
        assert vocab.lookup("common") >= 4

    def test_tie_broken_lexicographically(self):
        docs = [["beta", "alpha"] * 3]
        vocab = build_vocab(docs, max_size=5, min_frequency=1)  # one body slot
        assert vocab.lookup("alpha") == 4
        assert vocab.lookup("beta") == UNK_ID

    def test_headers_map_to_reserved_ids(self):
        docs = [[ADDED_HEADER, "x", REMOVED_HEADER, "x"]]
        vocab = build_vocab(docs, min_frequency=1)
        assert vocab.lookup(ADDED_HEADER) == ADDED_ID
        assert vocab.lookup(REMOVED_HEADER) == REMOVED_ID
        assert ADDED_HEADER not in vocab.token_to_id

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_ids_dense_from_four(self):
        docs = [["a", "b", "c", "a", "b", "c"]]
        vocab = build_vocab(docs, min_frequency=1)
        assert sorted(vocab.token_to_id.values()) == [4, 5, 6]


def _vocab():
    docs = [["fix", "parser", "crash", "int", "x", "=", "1", ";"] * 2]
    return build_vocab(docs, min_frequency=1)


def _encode_one(commit, vocab, shape):
    """encode_commits of one commit: (message ids, file-id matrix)."""
    message_ids, file_ids = encode_commits([commit], vocab, shape)
    return message_ids[0], file_ids[0]


class TestEncodeCommit:
    def test_message_padding(self):
        vocab = _vocab()
        commit = CommitRecord("c", 1, "a", "fix parser crash", ())
        message_ids, _ = _encode_one(commit, vocab, TextShape(l_msg=8, l_code=6, files=2))
        assert message_ids.shape == (8,)
        assert list(message_ids[3:]) == [PAD_ID] * 5
        assert all(i != PAD_ID for i in message_ids[:3])

    def test_message_truncation_keeps_prefix(self):
        vocab = _vocab()
        commit = CommitRecord("c", 1, "a", "fix parser crash fix parser", ())
        message_ids, _ = _encode_one(commit, vocab, TextShape(l_msg=2, l_code=6, files=1))
        assert list(message_ids) == [vocab.lookup("fix"), vocab.lookup("parser")]

    def test_file_rows_truncated_to_first_f(self):
        vocab = _vocab()
        files = tuple(FileChange(f"p{i}", (f"int x = {i} ;",), ()) for i in range(5))
        commit = CommitRecord("c", 1, "a", "m", files)
        _, file_ids = _encode_one(commit, vocab, TextShape(l_msg=4, l_code=10, files=3))
        assert file_ids.shape == (3, 10)
        assert file_ids[0, 0] == ADDED_ID

    def test_missing_file_rows_are_padding(self):
        vocab = _vocab()
        commit = CommitRecord("c", 1, "a", "m", (FileChange("p", ("int x ;",), ()),))
        _, file_ids = _encode_one(commit, vocab, TextShape(l_msg=4, l_code=8, files=3))
        assert np.all(file_ids[1:] == PAD_ID)

    def test_exactly_one_header_pair_per_encoded_file(self):
        vocab = _vocab()
        commit = CommitRecord("c", 1, "a", "m",
                              (FileChange("p", ("int x = 1 ;", "x = x ;"), ("crash ;",)),))
        _, file_ids = _encode_one(commit, vocab, TextShape(l_msg=4, l_code=32, files=2))
        row = list(file_ids[0])
        assert row.count(ADDED_ID) == 1
        assert row.count(REMOVED_ID) == 1

    def test_out_of_vocabulary_maps_to_unknown(self):
        vocab = _vocab()
        commit = CommitRecord("c", 1, "a", "zebra", ())
        message_ids, _ = _encode_one(commit, vocab, TextShape(l_msg=4, l_code=4, files=1))
        assert message_ids[0] == UNK_ID

    def test_round_trip_prefix(self):
        vocab = _vocab()
        commit = CommitRecord("c", 1, "a", "fix parser crash",
                              (FileChange("p", ("int x = 1 ;",), ("crash ;",)),))
        shape = TextShape(l_msg=10, l_code=16, files=2)
        message_ids, file_ids = _encode_one(commit, vocab, shape)
        assert decode_ids(message_ids, vocab) == ["fix", "parser", "crash"]
        doc = render_change_document(commit.files[0])
        assert decode_ids(file_ids[0], vocab) == doc[: shape.l_code]

    def test_padding_only_as_suffix(self):
        vocab = _vocab()
        commit = CommitRecord("c", 1, "a", "fix crash",
                              (FileChange("p", ("int x ;",), ()),))
        message_ids, file_ids = _encode_one(commit, vocab, TextShape(l_msg=6, l_code=12, files=2))
        for row in [message_ids, *file_ids]:
            seen_pad = False
            for tok in row:
                if tok == PAD_ID:
                    seen_pad = True
                else:
                    assert not seen_pad


class TestVocabFile:
    def test_save_load_round_trip(self, tmp_path):
        docs = [["alpha", "beta", "gamma"] * 2, ["delta"] * 3]
        vocab = build_vocab(docs, min_frequency=1)
        path = tmp_path / "vocab.txt"
        save_vocab(path, vocab)
        loaded = load_vocab(path)
        assert loaded.token_to_id == vocab.token_to_id

    def test_preamble_and_body_layout(self, tmp_path):
        vocab = build_vocab([["zzz", "zzz"]], min_frequency=1)
        path = tmp_path / "vocab.txt"
        save_vocab(path, vocab)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("#0")
        assert lines[4] == "zzz"  # body line 0 holds id 4


# ---------------------------------------------------------------------------
# Reference: one commit's encoding as it stood before the vocabulary's token table:
# one lookup per token with the headers checked first, then truncation.
# ---------------------------------------------------------------------------


def reference_encode(commit, vocab, shape):
    def lookup(token):
        if token == ADDED_HEADER:
            return ADDED_ID
        if token == REMOVED_HEADER:
            return REMOVED_ID
        return vocab.token_to_id.get(token, UNK_ID)

    def fit(ids, length):
        out = np.full(length, PAD_ID, dtype=np.int64)
        ids = ids[:length]
        out[: len(ids)] = ids
        return out

    msg = fit([lookup(t) for t in tokenize(commit.message)], shape.l_msg)
    file_ids = np.full((shape.files, shape.l_code), PAD_ID, dtype=np.int64)
    for row, file in enumerate(commit.files[: shape.files]):
        file_ids[row] = fit([lookup(t) for t in render_change_document(file)], shape.l_code)
    return msg, file_ids


def assert_encodes_like_reference(commits, vocab, shape):
    ds = build_dataset(commits, vocab, shape)
    assert ds.message_ids.dtype == ds.file_ids.dtype == np.int64
    for i, commit in enumerate(commits):
        msg, file_ids = reference_encode(commit, vocab, shape)
        for got_msg, got_files in (_encode_one(commit, vocab, shape),
                                   (ds.message_ids[i], ds.file_ids[i])):
            assert np.array_equal(got_msg, msg) and np.array_equal(got_files, file_ids)


_TEXT = st.text(alphabet="abcxyz:;.=( \n", max_size=40)


@st.composite
def encoding_cases(draw):
    commits = [
        CommitRecord(f"c{i}", i, "a", draw(_TEXT), tuple(
            FileChange(f"p/{j}", tuple(draw(st.lists(_TEXT, max_size=4))),
                       tuple(draw(st.lists(_TEXT, max_size=4))))
            for j in range(draw(st.integers(0, 5)))))
        for i in range(draw(st.integers(1, 4)))]
    docs = [tokenize(draw(_TEXT)) + ["x"] for _ in range(draw(st.integers(1, 5)))]
    vocab = build_vocab(docs, max_size=draw(st.integers(4, 12)), min_frequency=1)
    shape = TextShape(l_msg=draw(st.integers(1, 12)), l_code=draw(st.integers(1, 20)),
                      files=draw(st.integers(1, 4)))
    return commits, vocab, shape


class TestEncodingAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(case=encoding_cases())
    def test_hypothesis_commits(self, case):
        assert_encodes_like_reference(*case)

    @settings(max_examples=20, deadline=None)
    @given(case=encoding_cases())
    def test_loaded_vocabulary(self, case, tmp_path_factory):
        commits, vocab, shape = case
        path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
        save_vocab(path, vocab)
        assert_encodes_like_reference(commits, load_vocab(path), shape)

    def test_headers_in_a_loaded_body_keep_their_reserved_ids(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#0\t<pad>\n#1\t<unk>\n#2\tAdded:\n#3\tRemoved:\n"
                        "x\nAdded:\nRemoved:\n", encoding="utf-8")
        vocab = load_vocab(path)
        assert vocab.token_to_id["Added:"] == 5
        assert vocab.lookup(ADDED_HEADER) == ADDED_ID
        assert vocab.lookup(REMOVED_HEADER) == REMOVED_ID
        commit = CommitRecord("c", 1, "a", "x y", (FileChange("p", ("x",), ("q",)),))
        assert_encodes_like_reference([commit], vocab, TextShape(l_msg=3, l_code=6, files=2))

    def test_acceptance_corpus(self, acceptance_corpus):
        corpus = acceptance_corpus
        train = corpus[:1500]
        docs = [tokenize(c.message) for c in train]
        docs += [render_change_document(f) for c in train for f in c.files]
        vocab = build_vocab(docs)
        for shape in (RunConfig().text_shape(), TextShape(l_msg=4, l_code=6, files=1)):
            assert_encodes_like_reference(corpus, vocab, shape)


class TestVocabRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(st.text(max_size=30), min_size=1, max_size=6),
           max_size=st.integers(4, 40))
    def test_save_load_keeps_every_id(self, texts, max_size, tmp_path_factory):
        docs = [tokenize(t) + ["tok"] for t in texts]
        vocab = build_vocab(docs, max_size=max_size, min_frequency=1)
        path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
        save_vocab(path, vocab)
        loaded = load_vocab(path)
        assert loaded == vocab
        assert loaded.table == vocab.table


# ---------------------------------------------------------------------------
# References: the tokenizer as one Unicode pattern, change documents as two
# tokenizer passes, and the vocabulary counted token by token.
# ---------------------------------------------------------------------------


def reference_tokenize(text):
    return re.findall(r"\w+|[^\w\s]+", text.lower())


def reference_document(file):
    return [ADDED_HEADER, *reference_tokenize("\n".join(file.added_lines)),
            REMOVED_HEADER, *reference_tokenize("\n".join(file.removed_lines))]


def reference_vocab(documents, max_size, min_frequency):
    counts = Counter()
    for doc in documents:
        for tok in doc:
            if tok in (ADDED_HEADER, REMOVED_HEADER):
                continue
            counts[tok] += 1
    if not counts:
        raise ValueError("empty")
    eligible = sorted((-c, t) for t, c in counts.items() if c >= min_frequency)
    return {t: i + 4 for i, (_, t) in enumerate(eligible[: max(0, max_size - 4)])}


# ASCII separators \s knows (\x1c-\x1f among them), the Unicode ones \x85
# and \xa0, capitals, and characters whose lowercase form is ASCII (Kelvin
# sign) or longer than one character (dotted capital I), or that are
# letters only under Unicode rules (long s).
_EDGE = st.text(alphabet="aZq_09 .;:-+\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0"
                         "\u212a\u0130\u017f\xe9Q", max_size=40)
_ANY = st.text(max_size=40)
_ASCII = st.text(alphabet=st.characters(max_codepoint=127), max_size=40)


class TestTokenizeAgainstUnicodePattern:
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(_ANY, _EDGE, _ASCII))
    def test_tokens(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_every_ascii_character(self):
        text = "".join(map(chr, range(128)))
        assert tokenize(text) == reference_tokenize(text)
        for c in map(chr, range(128)):
            assert tokenize(f"a{c}b{c}{c}") == reference_tokenize(f"a{c}b{c}{c}"), repr(c)


class TestChangeDocumentAgainstTwoPasses:
    @settings(max_examples=300, deadline=None)
    @given(added=st.lists(st.one_of(_ANY, _EDGE, _ASCII), max_size=4),
           removed=st.lists(st.one_of(_ANY, _EDGE, _ASCII), max_size=4))
    def test_documents(self, added, removed):
        file = FileChange("p", tuple(added), tuple(removed))
        assert render_change_document(file) == reference_document(file)

    def test_header_strings_in_the_lines(self):
        file = FileChange("p", ("Removed: Added:",), ("Added:\nRemoved:",))
        assert render_change_document(file) == reference_document(file)

    def test_acceptance_corpus(self, acceptance_corpus):
        for commit in acceptance_corpus[:300]:
            for file in commit.files:
                assert render_change_document(file) == reference_document(file)


class TestBuildVocabAgainstTokenLoop:
    @settings(max_examples=200, deadline=None)
    @given(documents=st.lists(st.lists(st.sampled_from(
               ["a", "b", "c", "Added", "removed", ":", ADDED_HEADER, REMOVED_HEADER]),
               max_size=12), max_size=5),
           max_size=st.integers(4, 9), min_frequency=st.integers(1, 3))
    def test_vocab(self, documents, max_size, min_frequency):
        try:
            expected = reference_vocab(documents, max_size, min_frequency)
        except ValueError:
            with pytest.raises(ValueError):
                build_vocab(iter(documents), max_size, min_frequency)
            return
        assert build_vocab(iter(documents), max_size, min_frequency).token_to_id == expected
