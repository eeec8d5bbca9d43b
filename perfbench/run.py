"""Run one embedit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload clip_l_edit --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Every line but the last is for people: a table of the workload's end-to-end
metrics, then one JSON line with those metrics, the checks, the output digest
and the environment. The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 its metrics are the end-to-end metrics that every workload
measures (the ones BENCHMARK.json bounds); with --trace 1 they are the
per-layer metrics of a traced pass, taken after an untraced pass of the same
work so that the tracing overhead can be reported. The exit code is 1 when
any operation or output check fails, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
# The end-to-end metrics every workload reports; the others are per workload.
GATED = ("setup_s", "peak_rss_mb", "eval_prompts_per_s", "run_s")
_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["clip_l_edit", "eval_read"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small stand-in for the CLIP-L shape, for the smoke test")
    return p.parse_args(argv)


def blas_threads():
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        so = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def l3_bytes():
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        size = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def environment(state) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "wte_bytes": state["wte_bytes"],
        "archive_bytes": state["archive_bytes"],
        "l3_bytes": l3_bytes(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_line(checks, metrics: dict) -> str:
    return json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "embedit" / "__init__.py").is_file():
        print(f"perfbench: no embedit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = workloads.Ctx(workdir, args.seed, args.seconds, args.tiny)
    wl = workloads.WORKLOADS[args.workload](ctx)
    checks = workloads.Checks()
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace}
    try:
        setup_s, state = [], None
        for _ in range(1 if args.trace else workloads.SETUP_REPS):
            state = None  # free the previous set-up before making the next
            state, dt = workloads.timed(wl.set_up, checks)
            setup_s.append(dt)
        details["env"] = environment(state)
        measured = wl.measure(state, checks)
        out_digest = workloads.digest(measured.digest.encode(), wl.fingerprint(state))
        if args.trace:
            tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
            tracer.install()
            try:
                traced = wl.measure(state, checks)
            finally:
                tracer.uninstall()
            checks.check("traced and untraced outputs match",
                         workloads.digest(traced.digest.encode(), wl.fingerprint(state))
                         == out_digest)
            result = tracer.metrics(traced.wall, measured.wall)
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
            details["missing"] = tracer.missing
        state = None
    except Exception:  # noqa: BLE001 - any failed operation is reported, then exit 1
        traceback.print_exc()
        checks.op()
        checks.check("workload ran to the end", False)
        print(result_line(checks, {}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # run_s is the measured phase's wall time unless the workload reports its own.
    named = {"run_s": (measured.wall, "s"), **measured.metrics}
    named.update({
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "failed_frac": (checks.failed / checks.attempted, "1"),
    })
    for name, (value, unit) in sorted(named.items()):
        print(f"{name:<20} {value:>14.6g} {unit}")
    details.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                   digest=out_digest, failures=checks.failures,
                   samples={"setup_s": setup_s, **measured.samples})
    print(json.dumps(details))
    if not args.trace:
        result = {k: named[k] for k in GATED}
    print(result_line(checks, result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
