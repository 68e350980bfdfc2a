import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_merge.py"
spec = importlib.util.spec_from_file_location("bench_merge", TOOL)
bench_merge = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_merge)

END_TO_END = [
    {"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ratio", "unit": "ratio", "better": "higher", "bound": 0.25},
]


def result(tmp_path, name, lat, ratio, commit, workload="walk-ladder", digest="d"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "metrics": {"lat_p50_ms": lat, "ratio": ratio}, "unscaled": {"lat_p50_ms": lat},
        "host_factor": 1.0, "counts_digest": digest, "reference_digest": "d",
        "attempted": 5, "failed": 0,
        "context": {"workload": workload, "seed": 1, "git_commit": commit, "git_dirty": False},
    }))
    return str(path)


def test_merge_pairs_runs_in_order_and_counts_wins(tmp_path):
    parent = [result(tmp_path, f"p{i}.json", lat, 0.5, "old")
              for i, lat in enumerate([100, 110, 120])]
    change = [result(tmp_path, f"c{i}.json", lat, r, "new")
              for i, (lat, r) in enumerate([(90, 0.5), (110, 0.6), (130, 0.7)])]
    merged = bench_merge.merge(parent, change, END_TO_END)
    assert (merged["parent_commit"], merged["change_commit"]) == (["old"], ["new"])
    (group,) = merged["results"]
    assert (group["workload"], group["seed"], group["pairs"]) == ("walk-ladder", 1, 3)
    assert group["all_correct"]
    lat = group["metrics"]["lat_p50_ms"]
    assert lat["parent"]["median"] == 110 and lat["change"]["median"] == 110
    assert lat["change_won"] == 1  # 90 < 100 wins, the tie counts for neither side
    assert group["metrics"]["ratio"]["change_won"] == 2  # higher is better
    assert [run["commit"] for run in group["change"]] == ["new"] * 3


def test_merge_refuses_unmatched_runs_and_flags_wrong_counts(tmp_path):
    parent = [result(tmp_path, "p.json", 100, 0.5, "old")]
    other = [result(tmp_path, "c.json", 100, 0.5, "new", workload="small-batch")]
    with pytest.raises(ValueError):
        bench_merge.merge(parent, other, END_TO_END)
    with pytest.raises(ValueError):
        bench_merge.merge(parent, parent * 2, END_TO_END)
    wrong = [result(tmp_path, "w.json", 100, 0.5, "new", digest="x")]
    assert not bench_merge.merge(parent, wrong, END_TO_END)["results"][0]["all_correct"]


def test_committed_bench_files_record_correct_counts():
    paths = sorted(bench_merge.ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        for group in json.loads(path.read_text())["results"]:
            where = (path.name, group["workload"], group["seed"])
            assert group["all_correct"] is True, where
            for run in group["parent"] + group["change"]:
                assert run["counts_digest"] == run["reference_digest"], where
