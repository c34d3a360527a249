"""Child process of the benchmark: one set-up probe, one workload run, or the self-test.

    python3 perfbench/worker.py setup FILE...
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1 --dir DIR
    python3 perfbench/worker.py selftest --dir DIR

The parent (``run.py``) pins the BLAS/OpenMP pools to one thread in this
process's environment, so they are fixed before numpy loads.  The last line
of standard output is a JSON object for the parent.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up probes time from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

MIN_OPS = 3


def reference_s() -> float:
    """Wall time of a fixed numpy/Python computation that does not use picard_lod.

    It mixes many small-array calls with a few large contractions, like the
    workloads do.  Timed next to every operation, it measures how fast the
    host runs at that moment; see README, "Host speed and the reference".
    """
    import numpy as np
    from numpy.polynomial import chebyshev as cheb

    rng = np.random.default_rng(12345)
    small, nodes = rng.standard_normal((1, 3, 17)), np.linspace(-1.0, 1.0, 17)
    mat, big = rng.standard_normal((70, 64)), rng.standard_normal((64, 64, 64))
    t0 = time.perf_counter()
    for _ in range(150):
        cheb.chebder(small, m=1, axis=2)
        cheb.chebvander(nodes, 16)
    for _ in range(5):
        np.tensordot(mat, big, axes=(1, 0))
    return time.perf_counter() - t0


def setup_probe(files: list[str]) -> dict:
    """Import the package and load and validate the problem files."""
    import picard_lod.cli as cli

    for f in files:
        cli.load_problem(Path(f))
    return {"setup_s": time.perf_counter() - T_START}


def run_workload(args) -> dict:
    import workloads

    work = Path(args.dir)
    wl = workloads.build(args.workload, args.seed, work / "problems", work / "reports")
    import picard_lod.cli as cli

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()

    # untimed warm-up: lazy imports and first-call costs are paid here
    t0 = time.perf_counter()
    codes, log = workloads.run_commands(cli, wl)
    first_op_s = time.perf_counter() - t0
    crashed, mismatched, reference = workloads.check_outputs(wl, codes, log, None)
    errors = crashed + mismatched

    op_s, op_ref, per_op = [], [], []
    attempted = failed = 0
    ref_before = reference_s()
    t_begin = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - t_begin < args.seconds:
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        codes, log = workloads.run_commands(cli, wl)
        op_s.append(time.perf_counter() - t0)
        if tracer is not None:
            per_op.append(tracer.end_op())
        ref_after = reference_s()
        op_ref.append(op_s[-1] / ((ref_before + ref_after) / 2.0))
        ref_before = ref_after
        attempted += 1
        crashed, wrong, _ = workloads.check_outputs(wl, codes, log, reference)
        failed += bool(crashed or wrong)
        mismatched += wrong
        errors += crashed + wrong
    result = {
        # a wrong output is counted as a failed operation and also makes the run incorrect
        "correct": not mismatched,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "op_s": op_s,
        "op_ref": op_ref,
        "first_op_s": first_op_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracing.summarize(per_op)
        trace_file = work / "trace.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "per_op": per_op,
            "last_op_spans": [
                {"layer": l, "start": s, "end": e, "parent": p}
                for l, s, e, p in tracer.spans
            ],
        }) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("files", nargs="+")
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("selftest")
    p.add_argument("--dir", required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        result = setup_probe(args.files)
    elif args.mode == "run":
        result = run_workload(args)
    else:
        import selftest

        result = selftest.run(Path(args.dir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
