"""Benchmark inputs: the pinned acceptance corpus and a benchmark-owned
commit generator.

The generator lives here, not in ``jitdp``, so that a change to the program
cannot change what the benchmark feeds it. It imports only numpy and writes
the JSON-lines commit format that ``jitdp.corpus.load_commit_stream`` reads.

Properties the deep model's cost depends on are set explicitly:

* identifiers follow a Zipf law over a 60,000-word lexicon, so a few hundred
  full-scale training commits fill the 20,000-entry vocabulary cap;
* the mean number of files per commit is ``slot_fill`` times the encoder's
  file slots, and each file document (headers included) has a mean length
  of ``code_fill`` times ``l_code`` tokens, never more than ``l_code``;
* labels are planted in two independent channels as in the program's own
  synthetic corpus: line volume (feature channel) and risky/safe marker
  tokens in the message and first added line (text channel).

Run as a script, it writes one workload's input files and an
``inputs.json`` with their properties and sha256 digests:

    python3 perfbench/inputs.py --workload fullscale_train --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# sha256 of the JSON-lines file written from the acceptance-suite spec
# SyntheticSpec(size=2000, imbalance=3.0, feature_strength=0.5,
# text_strength=0.5, seed=11).
ACCEPTANCE_SHA256 = "f854b7487b3684a0b94d63eb5bf83e32c5620ef99bec4cd6918b1c3ded76524c"
ACCEPTANCE_SPEC = dict(size=2000, imbalance=3.0, feature_strength=0.5, text_strength=0.5, seed=11)

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]  # 90
_PUNCT = ("=", "(", ")", ";", ",", ".", "+", "[", "]", "->")
_RISKY = ("racewindow", "nullderef", "overflowpath", "lockskip", "staleptr", "memclobber")
_SAFE = ("doccomment", "renamevar", "whitespace", "typotweak", "constfold", "logverbose")
_FIX = ("fix", "bug", "patch")
_SUBSYSTEMS = ("core", "net", "ui", "storage", "tools", "sched", "auth", "cli")
_DIRS = ("util", "model", "io", "api", "impl", "proto")
_FILES = tuple(f"{stem}.py" for stem in ("main", "helpers", "engine", "parser", "types", "store",
                                         "codec", "queue", "views", "hooks", "rules", "index"))
LEXICON_SIZE = 60_000
ZIPF_EXPONENT = 1.0
ZIPF_OFFSET = 20.0


@dataclass(frozen=True)
class GenSpec:
    """One generated commit stream. Timestamps start at ``t0`` and grow by
    10 minutes to 2 hours per commit; ids are ``prefix`` plus a counter."""

    commits: int
    l_msg: int
    l_code: int
    files: int
    seed: int
    prefix: str = "g"
    t0: int = 1_700_000_000
    slot_fill: float = 0.6
    code_fill: float = 0.75
    defect_rate: float = 0.25
    feature_strength: float = 0.5
    text_strength: float = 0.5
    authors: int = 30


def _lexicon() -> np.ndarray:
    i = np.arange(LEXICON_SIZE)
    n = len(_SYLLABLES)
    syl = np.array(_SYLLABLES)
    return np.char.add(np.char.add(syl[i % n], syl[(i // n) % n]), syl[(i // (n * n)) % n])


def _zipf_cdf(size: int) -> np.ndarray:
    weights = 1.0 / (np.arange(size) + ZIPF_OFFSET) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def generate(spec: GenSpec) -> list[dict]:
    """Commit objects in chronological order; equal specs give equal output."""
    rng = np.random.default_rng([spec.seed, 0x5EED])
    words = _lexicon()
    cdf = _zipf_cdf(LEXICON_SIZE)
    paths = [f"{s}/{d}/{f}" for s in _SUBSYSTEMS for d in _DIRS for f in _FILES]
    path_cdf = _zipf_cdf(len(paths))
    authors = [f"dev{a:02d}" for a in range(spec.authors)]
    p_extra_file = (spec.slot_fill * spec.files - 1.0) / max(spec.files - 1, 1)
    low = max(2.0 * spec.code_fill - 1.0, 0.1)

    def draw(count: int) -> list[str]:
        return list(words[np.searchsorted(cdf, rng.random(count))])

    out = []
    t = spec.t0
    for i in range(spec.commits):
        label = int(rng.random() < spec.defect_rate)
        feat = label if rng.random() < spec.feature_strength else int(rng.random() < 0.5)
        text = label if rng.random() < spec.text_strength else int(rng.random() < 0.5)
        markers = [str(m) for m in rng.choice(_RISKY if text else _SAFE, size=2, replace=False)]

        n_files = 1 + int(rng.binomial(spec.files - 1, p_extra_file))
        chosen = np.searchsorted(path_cdf, rng.random(n_files))
        files = []
        for f_idx in range(n_files):
            # Two headers plus the body; the encoder keeps at most l_code.
            body = max(int(round(spec.l_code * rng.uniform(low, 1.0))) - 2, 2)
            n_added = int(rng.poisson(24 if feat else 4)) + 1
            n_removed = int(rng.poisson(8 if feat else 2)) + 1
            n_lines = min(n_added + n_removed, body)
            n_added = max(1, round(n_lines * n_added / (n_added + n_removed)))
            n_removed = max(1, n_lines - n_added)
            tokens = draw(body)
            punct = rng.random(body) < 0.2
            tokens = [str(rng.choice(_PUNCT)) if p else tok for tok, p in zip(tokens, punct)]
            if f_idx == 0:
                tokens[: len(markers)] = markers
            cuts = np.linspace(0, body, n_added + n_removed + 1).astype(int)
            lines = [" ".join(tokens[a:b]) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
            files.append({
                "path": paths[int(chosen[f_idx])],
                "added_lines": lines[:n_added],
                "removed_lines": lines[n_added:],
                "loc_before": int(rng.integers(20, 2000)),
            })
        msg = draw(int(rng.integers(max(spec.l_msg // 4, 2), spec.l_msg - 2)))
        for m in markers:
            msg.insert(int(rng.integers(0, len(msg) + 1)), m)
        if rng.random() < 0.3:
            msg.insert(0, str(rng.choice(_FIX)))
        out.append({
            "commit_id": f"{spec.prefix}{i:06d}",
            "timestamp": int(t),
            "author": authors[int(rng.integers(0, len(authors)))],
            "message": " ".join(str(w) for w in msg),
            "files": files,
            "label": label,
        })
        t += int(rng.integers(600, 7200))
    return out


def write_jsonl(path: Path, commits) -> str:
    """Write commit objects one per line; returns the file's sha256."""
    blob = "".join(json.dumps(c, ensure_ascii=False) + "\n" for c in commits).encode("utf-8")
    Path(path).write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


def stream_properties(commits, l_code: int, files: int) -> dict:
    """Input facts the program's cost depends on, measured without the program."""
    n_files = np.array([len(c["files"]) for c in commits])
    doc_tokens = np.array([2 + sum(len(ln.split()) for ln in f["added_lines"] + f["removed_lines"])
                           for c in commits for f in c["files"]])
    labels = np.array([c["label"] for c in commits])
    return {
        "commits": len(commits),
        "defect_share": float(labels.mean()),
        "mean_files": float(n_files.mean()),
        "file_slot_fill": float(np.minimum(n_files, files).sum() / (files * len(commits))),
        "code_fill": float(np.minimum(doc_tokens, l_code).mean() / l_code),
        "distinct_tokens": len({w for c in commits for w in c["message"].split()}
                               | {w for c in commits for f in c["files"]
                                  for ln in f["added_lines"] + f["removed_lines"] for w in ln.split()}),
        "first_timestamp": commits[0]["timestamp"],
        "last_timestamp": commits[-1]["timestamp"],
    }


def _acceptance(out: Path, scale: str) -> dict:
    # The acceptance corpus is the program's own synthetic corpus; its bytes
    # are pinned so that a change to the generator shows as an input error,
    # not as a change in the measured numbers.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from jitdp.corpus import SyntheticSpec, save_commit_stream, synthesize_corpus

    spec = dict(ACCEPTANCE_SPEC, size=SMOKE["desk"]) if scale == "smoke" else ACCEPTANCE_SPEC
    path = out / "corpus.jsonl"
    save_commit_stream(path, synthesize_corpus(SyntheticSpec(**spec)))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if scale == "full" and digest != ACCEPTANCE_SHA256:
        raise SystemExit(f"acceptance corpus sha256 {digest} != pinned {ACCEPTANCE_SHA256}")
    return {"corpus.jsonl": {"spec": spec, "sha256": digest, "commits": spec["size"]}}


# Workload inputs. Sizes are scaled down by --scale smoke for the self-test.
FULLSCALE = dict(train=256, validation=64, l_msg=64, l_code=256, files=8)
PREDICT = dict(train=2000, stream=16_000, l_msg=24, l_code=48, files=4)
# The serving bundle is trained on a fixed corpus, so every seed serves the
# same bundle; only the scored stream varies with the seed.
PREDICT_TRAIN_SEED = 20_240_311
SMOKE = dict(desk=300, train=160, validation=40, bundle_train=400, stream=300)


def make_inputs(workload: str, seed: int, out: Path, scale: str = "full") -> dict:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "desk_evaluate":
        return _acceptance(out, scale)
    files = {}
    if workload == "fullscale_train":
        p = dict(FULLSCALE)
        if scale == "smoke":
            p.update(train=SMOKE["train"], validation=SMOKE["validation"])
        spec = GenSpec(commits=p["train"] + p["validation"], l_msg=p["l_msg"], l_code=p["l_code"],
                       files=p["files"], seed=seed, prefix="f")
        commits = generate(spec)
        digest = write_jsonl(out / "corpus.jsonl", commits)
        files["corpus.jsonl"] = {"spec": asdict(spec), "sha256": digest,
                                 "train": p["train"], "validation": p["validation"],
                                 **stream_properties(commits, spec.l_code, spec.files)}
        return files
    if workload == "predict_stream":
        p = dict(PREDICT)
        if scale == "smoke":
            p.update(train=SMOKE["bundle_train"], stream=SMOKE["stream"])
        train_spec = GenSpec(commits=p["train"], l_msg=p["l_msg"], l_code=p["l_code"],
                             files=p["files"], seed=PREDICT_TRAIN_SEED, prefix="t")
        train = generate(train_spec)
        stream_spec = GenSpec(commits=p["stream"], l_msg=p["l_msg"], l_code=p["l_code"],
                              files=p["files"], seed=seed, prefix="s",
                              t0=train[-1]["timestamp"] + 86_400)
        stream = generate(stream_spec)
        for name, spec, commits in (("train.jsonl", train_spec, train),
                                    ("stream.jsonl", stream_spec, stream)):
            files[name] = {"spec": asdict(spec), "sha256": write_jsonl(out / name, commits),
                           **stream_properties(commits, spec.l_code, spec.files)}
        return files
    raise SystemExit(f"unknown workload '{workload}'")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    out = Path(args.out)
    props = make_inputs(args.workload, args.seed, out, args.scale)
    (out / "inputs.json").write_text(json.dumps(props, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
