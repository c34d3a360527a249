"""Benchmark of the picard-lod command line on seeded problem files.

    python3 perfbench/run.py --workload burgers-1d --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is loaded from ``src``.
Each workload runs in a fresh child process with the BLAS/OpenMP pools
pinned to one thread.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
WORK = HERE / "_work"

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PICARD_LOD_THREADS": "1",
}


def child(args: list[str], timeout: float) -> dict:
    """Run worker.py with pinned thread pools; return its last JSON line."""
    env = {**os.environ, **PINNED}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = [str(p) for p in workloads.BUILDERS[name](seed).write_problems(work / "problems")]
    setup = [] if trace else [child(["setup", *files], 60)["setup_s"] for _ in range(SETUP_PROBES)]
    res = child(
        ["run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--dir", str(work)],
        CHILD_TIMEOUT_S,
    )
    for err in res["errors"]:
        print(f"{name}: {err}", file=sys.stderr)
    q1, q2, q3 = statistics.quantiles(res["op_s"], n=4)
    print(f"{name}: seed {seed}, {res['attempted']} ops, first pass {res['first_op_s']:.3f} s, "
          f"op quartiles {q1:.3f} / {q2:.3f} / {q3:.3f} s, ops/s {len(res['op_s']) / sum(res['op_s']):.4f}",
          file=sys.stderr)
    if trace:
        units = tracing.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["layers"].items()}
    else:
        metrics = {
            "op_p50_ref": {"value": statistics.median(res["op_ref"]), "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check rejects a perturbed output")
    args = parser.parse_args()

    if not (ROOT / "src" / "picard_lod" / "cli.py").is_file():
        print(f"error: no picard_lod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        shutil.rmtree(WORK / "selftest", ignore_errors=True)
        res = child(["selftest", "--dir", str(WORK / "selftest")], 600)
        for line in res["lines"]:
            print(line)
        print(json.dumps({"self_test_passed": res["passed"]}))
        return 0 if res["passed"] else 1

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        out = results[names[0]]
    else:
        for n, r in results.items():
            print(json.dumps({"workload": n, **r}))
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
