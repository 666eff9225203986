"""Summarize perfbench result records of two program versions into one
BENCH_<n>.json, so the benchmark trajectory can be diffed from change to change.

Each `python3 perfbench/run.py` run writes its record to
`.perfbench-work/results/<workload>-seed<N>-trace<T>.json` and the next run
of the same name overwrites it, so copy every record aside after its run.
Then, from the repository root:

    python3 tools/bench_summary.py --parent <sha256 prefix> --change <sha256 prefix> \\
        --out BENCH_6.json records/parent records/change

The two versions are told apart by the records' `run.source_sha256` (the
digest of `src/`). The summary reads records only and changes nothing else:
per workload and metric it gives each side's median, interquartile range
and run count, the change/parent median ratio, and the wins of the change
over the runs of the parent with the same seed and trace setting. Metric
directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_records(paths) -> list[dict]:
    """Records from the given files and from the *.json files of the given
    directories."""
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    return [json.loads(f.read_text()) for f in files]


def directions(bench: dict) -> dict:
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": len(values)}


def summarize(records, parent: str, change: str, better: dict) -> dict:
    """The summary of the records whose source digest starts with `parent`
    or `change`; other records are ignored."""
    sources = {"parent": parent, "change": change}
    found = {}
    # workload -> metric -> side -> (seed, trace) -> value
    table: dict = {}
    for r in records:
        sha = r["run"]["source_sha256"]
        for side in (s for s, prefix in sources.items() if sha.startswith(prefix)):
            found.setdefault(side, r["run"])
            for metric, v in r["metrics"].items():
                runs = table.setdefault(r["workload"], {}).setdefault(
                    metric, {"parent": {}, "change": {}})
                runs[side][(r["seed"], r["trace"])] = v["value"]
    for side, prefix in sources.items():
        if side not in found:
            raise ValueError(f"no record of the {side} source {prefix!r}")
    workloads = {}
    for workload, metrics in sorted(table.items()):
        summary = {}
        for metric, runs in sorted(metrics.items()):
            if not (runs["parent"] and runs["change"]):
                continue
            sign = 1 if better.get(metric, "lower") == "higher" else -1
            paired = runs["parent"].keys() & runs["change"].keys()
            p, c = _spread(list(runs["parent"].values())), _spread(list(runs["change"].values()))
            summary[metric] = {
                "better": better.get(metric, "lower"),
                "parent": p,
                "change": c,
                "ratio": c["median"] / p["median"] if p["median"] else None,
                "wins": sum(sign * (runs["change"][k] - runs["parent"][k]) > 0 for k in paired),
                "pairs": len(paired),
            }
        seeds = {seed for runs in metrics.values() for side in runs.values() for seed, _ in side}
        workloads[workload] = {"seeds": sorted(seeds), "metrics": summary}
    return {**{side: {key: run.get(key) for key in ("source_sha256", "git_commit", "git_dirty")}
               for side, run in found.items()},
            "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("records", nargs="+", help="result records, or directories of them")
    ap.add_argument("--parent", required=True, help="source_sha256 (prefix) of the parent")
    ap.add_argument("--change", required=True, help="source_sha256 (prefix) of the change")
    ap.add_argument("--out", required=True, help="summary file to write, e.g. BENCH_6.json")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    better = directions(json.loads(Path(args.benchmark).read_text()))
    try:
        summary = summarize(load_records(args.records), args.parent, args.change, better)
    except ValueError as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
