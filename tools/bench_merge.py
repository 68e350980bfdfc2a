"""Merge perfbench results of a parent and a change into one BENCH_<pr>.json.

    python3 tools/bench_merge.py --parent P1.json P2.json ... \
        --change C1.json C2.json ... --out BENCH_<pr>.json

Each file is a measured-run result, `perfbench/out/<workload>-seed<seed>-trace0.json`,
copied aside after its run.  Files are grouped by the workload and seed their
context names; within a group the i-th parent file and the i-th change file
form pair i, so give them in the order the pairs ran.  For every group the
output keeps each run of both sides (metrics, unscaled timings, host factor,
counts digest, reference digest, failures and commit) and, per end-to-end
metric of BENCHMARK.json, each side's median and quartiles and the number of
pairs the change won (ties count for neither side).  Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_FIELDS = ("metrics", "unscaled", "host_factor", "counts_digest", "reference_digest",
              "attempted", "failed")


def load(paths: list[str]) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        context = result["context"]
        run = {field: result[field] for field in RUN_FIELDS}
        run["commit"], run["dirty"] = context["git_commit"], context["git_dirty"]
        groups.setdefault((context["workload"], context["seed"]), []).append(run)
    return groups


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def merge(parent: list[str], change: list[str], end_to_end: list[dict]) -> dict:
    before, after = load(parent), load(change)
    if before.keys() != after.keys():
        raise ValueError(f"parent groups {sorted(before)} differ from change's {sorted(after)}")
    results = []
    for (workload, seed), old in sorted(before.items()):
        new = after[(workload, seed)]
        if len(old) != len(new):
            raise ValueError(f"{workload} seed {seed}: {len(old)} parent runs, {len(new)} change")
        metrics = {}
        for spec in end_to_end:
            name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
            a = [run["metrics"][name] for run in old]
            b = [run["metrics"][name] for run in new]
            metrics[name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "parent": spread(a), "change": spread(b),
                "change_won": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
            }
        results.append({
            "workload": workload, "seed": seed, "pairs": len(old),
            "all_correct": all(run["failed"] == 0 and run["counts_digest"] == run["reference_digest"]
                               for run in old + new),
            "metrics": metrics, "parent": old, "change": new,
        })
    return {"parent_commit": sorted({r["commit"] for g in before.values() for r in g}, key=str),
            "change_commit": sorted({r["commit"] for g in after.values() for r in g}, key=str),
            "results": results}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="tools/bench_merge.py")
    parser.add_argument("--parent", nargs="+", required=True, help="parent result files")
    parser.add_argument("--change", nargs="+", required=True, help="change result files")
    parser.add_argument("--out", required=True, help="the BENCH_<pr>.json to write")
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    merged = merge(args.parent, args.change, end_to_end)
    Path(args.out).write_text(json.dumps(merged, indent=1) + "\n")
    for result in merged["results"]:
        print(f"{result['workload']} seed {result['seed']}: {result['pairs']} pairs, "
              f"all correct: {result['all_correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<12} parent {m['parent']['median']:.4g} -> change "
                  f"{m['change']['median']:.4g} {m['unit']} (parent IQR "
                  f"{m['parent']['q3'] - m['parent']['q1']:.3g}; change won "
                  f"{m['change_won']}/{result['pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
