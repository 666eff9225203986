"""tools/train_threads.py at tiny sizes."""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def train_threads():
    # The tool imports its siblings train_memory and predict_memory, as it
    # does run as a script.
    sys.path.insert(0, str(TOOLS))
    try:
        import train_threads
        yield train_threads
    finally:
        sys.path.remove(str(TOOLS))
        for name in ("train_threads", "train_memory", "predict_memory"):
            sys.modules.pop(name, None)


def test_prints_both_sides_ratio_and_wins_as_json(train_threads, capsys):
    assert train_threads.main(["--pairs", "2", "--train", "24", "--validation", "16",
                               "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["seed"], report["train"], report["validation"], report["pairs"]) == (5, 24, 16, 2)
    assert report["vocab_size"] > 4
    for side in ("one_thread", "default"):
        assert report[side]["wall_s"] > 0 and report[side]["cpu_s"] > 0
    assert report["ratio"] > 0 and report["wins"] in (0, 1, 2)
    assert report["same_params"] is True
