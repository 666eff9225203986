r"""Text preparation: tokenization, per-file change documents with the
"Added:"/"Removed:" headers, vocabulary construction, and fixed-shape
encoding of commits to token-id matrices.

Reserved ids: 0 padding, 1 unknown, 2 the added-lines header, 3 the
removed-lines header. The header strings are inserted verbatim (they can
never be produced by the tokenizer, which lowercases and splits punctuation)
and always map to their reserved ids.

Tokens are `\w+|[^\w\s]+` over the lowercased text. When the lowercased
text is ASCII, an explicit-class pattern with the same matches on ASCII
runs instead (its separators are \s's ten ASCII characters, \x1c-\x1f
included), so the tokens are unchanged; other text takes the Unicode
pattern.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .corpus import FileChange

PAD_ID = 0
UNK_ID = 1
ADDED_ID = 2
REMOVED_ID = 3
ADDED_HEADER = "Added:"
REMOVED_HEADER = "Removed:"
_RESERVED = ((PAD_ID, "<pad>"), (UNK_ID, "<unk>"), (ADDED_ID, ADDED_HEADER), (REMOVED_ID, REMOVED_HEADER))

_TOKEN_PATTERN = re.compile(r"\w+|[^\w\s]+")
# The same matches on ASCII text: \w is [a-z0-9_] once lowercased.
_ASCII_TOKEN_PATTERN = re.compile(r"[a-z0-9_]+|[^a-z0-9_\t\n\x0b\x0c\r\x1c-\x1f ]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace and punctuation boundaries; runs of
    punctuation stay single tokens."""
    lowered = text.lower()
    pattern = _ASCII_TOKEN_PATTERN if lowered.isascii() else _TOKEN_PATTERN
    return pattern.findall(lowered)


def render_change_document(file: FileChange) -> list[str]:
    """One token sequence per file: the added header, all added lines in
    order, the removed header, all removed lines in order."""
    doc = [ADDED_HEADER]
    doc += tokenize(file.added_text)
    doc.append(REMOVED_HEADER)
    doc += tokenize(file.removed_text)
    return doc


@dataclass(frozen=True)
class TextShape:
    """Fixed encoding shapes: message length, per-file document length, and
    the number of file slots per commit."""

    l_msg: int = 64
    l_code: int = 256
    files: int = 8


@dataclass(frozen=True)
class Vocab:
    token_to_id: dict
    # token_to_id plus the two headers, which take precedence over any body
    # entry of the same text; every other token maps to UNK_ID.
    table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = dict(self.token_to_id)
        table[ADDED_HEADER] = ADDED_ID
        table[REMOVED_HEADER] = REMOVED_ID
        object.__setattr__(self, "table", table)

    def __len__(self) -> int:
        return 4 + len(self.token_to_id)

    def lookup(self, token: str) -> int:
        return self.table.get(token, UNK_ID)

    def id_to_token(self) -> dict:
        table = {i: name for i, name in _RESERVED}
        table.update({i: t for t, i in self.token_to_id.items()})
        return table


def build_vocab(documents, max_size: int = 20_000, min_frequency: int = 2) -> Vocab:
    """Keep the most frequent tokens, ties broken lexicographically, up to
    max_size total entries including the 4 reserved ids. Must only ever see
    training-split documents."""
    counts = Counter(chain.from_iterable(documents))
    del counts[ADDED_HEADER], counts[REMOVED_HEADER]
    if not counts:
        raise ValueError("cannot build a vocabulary from an empty training corpus")
    eligible = [(-c, t) for t, c in counts.items() if c >= min_frequency]
    eligible.sort()
    kept = eligible[: max(0, max_size - 4)]
    token_to_id = {t: i + 4 for i, (_, t) in enumerate(kept)}
    return Vocab(token_to_id=token_to_id)


def encode_commits(commits, vocab: Vocab, shape: TextShape, out=None) -> tuple:
    """(message_ids (n, l_msg), file_ids (n, files, l_code)) int64 for a
    sequence of commits: each message padded/truncated to l_msg, each file
    document to l_code, and the file list to `files` rows (first rows by
    file order; padding rows are all-padding). Token lists are cut to length
    before their ids are looked up. out, if given, is a pair of integer
    arrays of those shapes, all PAD_ID and wide enough for every id of the
    vocabulary, that are filled and returned instead of new ones."""
    table = vocab.table
    if out is None:
        out = (np.full((len(commits), shape.l_msg), PAD_ID, dtype=np.int64),
               np.full((len(commits), shape.files, shape.l_code), PAD_ID, dtype=np.int64))
    msg, file_ids = out
    for i, commit in enumerate(commits):
        ids = list(map(table.get, tokenize(commit.message)[: shape.l_msg], repeat(UNK_ID)))
        msg[i, : len(ids)] = ids
        for row, file in enumerate(commit.files[: shape.files]):
            ids = list(map(table.get, render_change_document(file)[: shape.l_code], repeat(UNK_ID)))
            file_ids[i, row, : len(ids)] = ids
    return msg, file_ids


def decode_ids(ids, vocab: Vocab) -> list[str]:
    """Tokens for the non-padding prefix of an id sequence."""
    table = vocab.id_to_token()
    out = []
    for i in ids:
        if i == PAD_ID:
            break
        out.append(table[int(i)])
    return out


# ---------------------------------------------------------------------------
# Vocabulary file: four fixed preamble lines for the reserved entries, then
# one token per line; a token on 0-based body line n has id n + 4.
# ---------------------------------------------------------------------------


def save_vocab(path, vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rid, name in _RESERVED:
            handle.write(f"#{rid}\t{name}\n")
        for token, _ in sorted(vocab.token_to_id.items(), key=lambda kv: kv[1]):
            handle.write(token + "\n")


def load_vocab(path) -> Vocab:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    body = [ln for ln in lines[4:] if ln != ""]
    return Vocab(token_to_id={t: i + 4 for i, t in enumerate(body)})
