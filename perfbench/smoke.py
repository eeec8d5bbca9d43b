"""Smoke test of the benchmark harness itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload with --seconds 1 and --tiny (a small stand-in for the
CLIP-L shape), untraced twice and traced once, each in its own process, and
asserts that:

- every metric BENCHMARK.json names prints with its unit, untraced and traced,
  and every end-to-end metric of the workload prints in the details line;
- every operation and output check passes;
- the output digest repeats across runs with the same seed and is the same
  for the traced run;
- without the sources next to it, the benchmark exits nonzero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
NAMED = {
    "clip_l_edit": {"setup_s", "edit_iters_per_s", "edit_s_p50", "eval_prompts_per_s",
                    "archive_load_s", "archive_save_s", "revert_s", "peak_rss_mb",
                    "failed_frac", "run_s", "desk_edit_iters_per_s", "seq_edit_s",
                    "edit_iters_total", "converged_frac", "desk_eval_prompts_per_s",
                    "gender_s", "desk_revert_s"},
    "eval_read": {"setup_s", "eval_prompts_per_s", "peak_rss_mb", "failed_frac", "run_s"},
}


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(got: dict, want: list[dict], where: str) -> None:
    for m in want:
        assert m["name"] in got, f"{where}: {m['name']} not printed"
        assert got[m["name"]]["unit"] == m["unit"], f"{where}: {m['name']} unit"
        assert isinstance(got[m["name"]]["value"], (int, float)), f"{where}: {m['name']} value"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(NAMED)
    for workload in NAMED:
        digests = []
        for trace in (0, 0, 1):
            rc, lines = run(ROOT, workload, trace)
            where = f"{workload} trace={trace}"
            assert rc == 0, f"{where}: exit {rc}"
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, f"{where}: {details['failures']}"
            assert result["attempted"] >= 1, where
            check_metrics(result["metrics"], bench["per_layer" if trace else "end_to_end"], where)
            assert NAMED[workload] <= set(details["metrics"]), f"{where}: named metrics"
            digests.append(details["digest"])
        assert len(set(digests)) == 1, f"{workload}: digests differ {digests}"
        print(f"ok {workload} digest {digests[0]}")

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        rc, lines = run(bare, "eval_read", 0)
    finally:
        shutil.rmtree(bare)
    assert rc != 0 and not any(line.startswith("{") for line in lines), "bare checkout ran"
    print("ok bare checkout exits", rc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
