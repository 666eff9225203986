"""How commit text becomes fixed-shape token-id matrices: tokenization,
per-file change documents with the added/removed headers, vocabulary
construction, and padding/truncation.

Run:  python demos/02_text_encoding.py
"""

from jitdp.corpus import CommitRecord, FileChange
from jitdp.pipeline import RunConfig
from jitdp.textprep import (
    build_vocab,
    decode_ids,
    encode_commits,
    render_change_document,
    tokenize,
)

print("tokenizer:", tokenize("Fix NPE in Parser.java"))

# Each changed file becomes one sequence: a header, all added lines in
# order, a second header, all removed lines in order.
change = FileChange(
    path="core/util/math.py",
    added_lines=("total = safe_sum(values);", "return total;"),
    removed_lines=("return sum(values);",),
    loc_before=58,
)
doc = render_change_document(change)
print("\nchange document:")
print(" ", doc)

commit = CommitRecord(
    commit_id="demo", timestamp=1_700_000_000, author="pat",
    message="fix overflow in safe_sum", files=(change,))

# The vocabulary comes from training-split documents only; ids 0..3 are
# reserved for padding, unknown, and the two headers.
vocab = build_vocab([tokenize(commit.message), doc], min_frequency=1)
print(f"\nvocabulary: {len(vocab)} entries "
      f"(4 reserved + {len(vocab.token_to_id)} tokens)")

# The desk-scale shapes: 24 message tokens, 48 tokens per file, 4 files.
shape = RunConfig().text_shape()
message_ids, file_ids = encode_commits([commit], vocab, shape)
print(f"message ids ({shape.l_msg} wide): {message_ids[0, :10]} ...")
print(f"file matrix shape: {file_ids[0].shape}")
print("decoded message prefix:", decode_ids(message_ids[0], vocab))
print("decoded file row starts with header:",
      decode_ids(file_ids[0, 0], vocab)[:6])
