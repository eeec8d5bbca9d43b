"""BENCH_trajectory.json, the record of every measured change, stays readable."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = {"setup_s", "peak_rss_mb", "eval_prompts_per_s", "run_s"}


def test_every_record_has_its_keys_and_medians():
    doc = json.loads((ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in bench["workloads"]}
    assert doc["records"]
    for rec in doc["records"]:
        assert {"commit", "parent", "nproc", "numpy", "blas", "workloads"} <= rec.keys()
        assert set(rec["workloads"]) == workloads
        for sides in rec["workloads"].values():
            assert set(sides) == {"parent", "change"}
            measured = [sides["change"]] + ([sides["parent"]] if rec["parent"] else [])
            for medians in measured:
                assert set(medians) == METRICS
                assert all(type(v) in (int, float) for v in medians.values())


def test_only_the_last_record_may_lack_its_commit():
    # A record's commit is filled in by the next change, whose parent it is.
    doc = json.loads((ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8"))
    for rec in doc["records"][:-1]:
        assert type(rec["commit"]) is str and rec["commit"], rec["title"]
