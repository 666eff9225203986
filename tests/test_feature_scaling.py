"""tools/feature_scaling.py at tiny stream sizes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "feature_scaling.py"


@pytest.fixture(scope="module")
def feature_scaling():
    spec = importlib.util.spec_from_file_location("feature_scaling", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_streams_are_sorted_commit_records(feature_scaling):
    from jitdp.corpus import CommitRecord

    stream = feature_scaling.make_stream(25, seed=3)
    assert len(stream) == 25 and all(isinstance(c, CommitRecord) for c in stream)
    keys = [(c.timestamp, c.commit_id) for c in stream]
    assert keys == sorted(keys)
    assert [c.commit_id for c in feature_scaling.make_stream(25, seed=3)] == [c.commit_id for c in stream]


def test_prints_per_commit_times_as_json(feature_scaling, capsys):
    assert feature_scaling.main(["--sizes", "40", "20", "--repeats", "2", "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["seed"], report["repeats"]) == (5, 2)
    assert list(report["sizes"]) == ["20", "40"]
    for size, row in report["sizes"].items():
        assert 0 < row["best_s"] <= row["median_s"]
        assert row["us_per_commit"] == pytest.approx(row["median_s"] / int(size) * 1e6)
    per_commit = [row["us_per_commit"] for row in report["sizes"].values()]
    assert report["largest_over_smallest"] == pytest.approx(per_commit[1] / per_commit[0])
