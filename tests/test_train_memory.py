"""tools/train_memory.py at tiny sizes."""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def train_memory():
    # The tool imports its sibling predict_memory, as it does run as a script.
    sys.path.insert(0, str(TOOLS))
    try:
        import train_memory
        yield train_memory
    finally:
        sys.path.remove(str(TOOLS))
        for name in ("train_memory", "predict_memory"):
            sys.modules.pop(name, None)


def test_prints_vocabulary_wall_time_and_peak_as_json(train_memory, capsys):
    assert train_memory.main(["--vocab", "300", "60", "--train", "24", "--validation", "16",
                              "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["seed"], report["train"], report["validation"]) == (5, 24, 16)
    assert list(report["vocab"]) == ["60", "300"]
    small, large = report["vocab"].values()
    assert small["vocab_size"] == 60 and 60 < large["vocab_size"] <= 300
    for row in (small, large):
        assert row["train_s"] > 0 and row["peak_mib"] > 0
        assert isinstance(row["minor_faults"], int) and row["minor_faults"] >= 0


def test_prepare_writes_the_commits_at_the_workload_shapes(train_memory, tmp_path):
    assert train_memory.prepare(tmp_path, 7, 3, seed=2) == [7, 3]
    lines = (tmp_path / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 10
    assert all(json.loads(line)["commit_id"].startswith("f") for line in lines)
