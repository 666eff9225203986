"""tools/predict_memory.py at tiny stream sizes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "predict_memory.py"


@pytest.fixture(scope="module")
def predict_memory():
    spec = importlib.util.spec_from_file_location("predict_memory", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_prints_wall_time_and_peaks_as_json(predict_memory, capsys):
    assert predict_memory.main(["--sizes", "60", "30", "--train", "400", "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["seed"], report["train"]) == (5, 400)
    assert list(report["sizes"]) == ["30", "60"]
    for row in report["sizes"].values():
        assert row["wall_s"] > 0 and row["main_peak_mib"] > 0
        # a stream of one chunk is scored without a worker
        assert row["worker_peak_mib"] == 0
    totals = [row["main_peak_mib"] for row in report["sizes"].values()]
    assert report["largest_over_smallest"] == pytest.approx(totals[1] / totals[0])


def test_prepare_writes_a_bundle_and_one_stream_per_size(predict_memory, tmp_path):
    assert predict_memory.prepare(tmp_path, 400, [20, 30], seed=2) == 400
    assert (tmp_path / "bundle" / "bundle.json").is_file()
    train_end = json.loads((tmp_path / "train.jsonl").read_text().splitlines()[-1])["timestamp"]
    for size in (20, 30):
        lines = (tmp_path / f"stream_{size}.jsonl").read_text().splitlines()
        assert len(lines) == size
        assert json.loads(lines[0])["timestamp"] > train_end
