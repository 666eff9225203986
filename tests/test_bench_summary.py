"""tools/bench_summary.py on synthetic perfbench result records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"


@pytest.fixture(scope="module")
def bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(sha, seed, commits_per_s, p50_ms, workload="fullscale_train"):
    return {"workload": workload, "seed": seed, "trace": 0,
            "run": {"source_sha256": sha, "git_commit": None},
            "metrics": {"commits_per_s": {"unit": "commits/s", "value": commits_per_s},
                        "one_commit_p50_ms": {"unit": "ms", "value": p50_ms}}}


def test_two_records_give_medians_ratio_and_a_win(bench_summary, tmp_path):
    (tmp_path / "parent.json").write_text(json.dumps(_record("aa11", 7, 200.0, 2.0)))
    (tmp_path / "change.json").write_text(json.dumps(_record("bb22", 7, 300.0, 2.5)))
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--parent", "aa", "--change", "bb", "--out", str(out),
                               str(tmp_path / "parent.json"), str(tmp_path / "change.json")]) == 0
    summary = json.loads(out.read_text())
    assert summary["parent"]["source_sha256"] == "aa11"
    assert summary["change"]["source_sha256"] == "bb22"
    workload = summary["workloads"]["fullscale_train"]
    assert workload["seeds"] == [7]
    rate = workload["metrics"]["commits_per_s"]
    assert rate["better"] == "higher"
    assert rate["parent"] == {"median": 200.0, "iqr": 0.0, "runs": 1}
    assert rate["change"]["median"] == 300.0
    assert rate["ratio"] == pytest.approx(1.5)
    assert (rate["wins"], rate["pairs"]) == (1, 1)
    latency = workload["metrics"]["one_commit_p50_ms"]
    assert latency["better"] == "lower"
    assert (latency["wins"], latency["pairs"]) == (0, 1)


def test_iqr_wins_and_unpaired_runs(bench_summary):
    records = [_record("aa", s, v, 1.0) for s, v in [(1, 100.0), (2, 110.0), (3, 120.0), (4, 130.0)]]
    records += [_record("bb", s, v, 1.0) for s, v in [(1, 150.0), (2, 100.0), (3, 160.0), (9, 1.0)]]
    records.append(_record("cc", 1, 999.0, 9.0))  # a third source is ignored
    better = {"commits_per_s": "higher", "one_commit_p50_ms": "lower"}
    rate = bench_summary.summarize(records, "aa", "bb", better)["workloads"]["fullscale_train"]
    assert rate["seeds"] == [1, 2, 3, 4, 9]
    rate = rate["metrics"]["commits_per_s"]
    assert rate["parent"]["median"] == 115.0
    assert rate["parent"]["iqr"] == pytest.approx(15.0)
    assert (rate["wins"], rate["pairs"]) == (2, 3)


def test_missing_side_is_an_error(bench_summary, tmp_path):
    (tmp_path / "r.json").write_text(json.dumps(_record("aa", 1, 1.0, 1.0)))
    assert bench_summary.main(["--parent", "aa", "--change", "bb", "--out",
                               str(tmp_path / "o.json"), str(tmp_path)]) == 2
    assert not (tmp_path / "o.json").exists()
