"""Run one workload on several seeds and report the spread of every metric.

    python3 perfbench/spread.py --workload eval_read --seeds 1-10

Each seed runs untraced in its own process, one after another, for the
run_seconds that BENCHMARK.json sets. For every metric the table gives the
median over the seeds and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
bound BENCHMARK.json sets, if any. Raw result lines are appended
to .perfbench/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = ROOT / ".perfbench" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = run.stdout.splitlines()
        if run.returncode != 0 or len(lines) < 2:
            failed += 1
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}", file=sys.stderr)
            continue
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps({"details": details, "result": result}) + "\n")
        for name, m in {**details["metrics"], **result["metrics"]}.items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: digest {details['digest']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
    print(f"{'metric':<22}{'median':>12}{'iqr/median':>12}{'bound':>8}")
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        print(f"{name:<22}{med:>12.5g}{spread:>12.4f}{bounds.get(name, ''):>8}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
