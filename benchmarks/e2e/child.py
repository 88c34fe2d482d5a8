"""Child process of ``run.py``: one mode of one workload, one JSON line out.

Every cold start, every measurement and the host probes get a fresh
process each, so a cold start really is cold (glibc has nothing to
recycle) and ``ru_maxrss`` belongs to one workload.  The last line of
stdout is the result as JSON; anything else is progress for humans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("cold", "measure", "trace", "probe"))
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    for var in THREAD_VARS:
        if os.environ.get(var) != "1":
            parser.error(f"{var} must be 1 before numpy loads (run.py sets it)")
    if not (SOURCE_ROOT / "repro").is_dir():
        print(f"error: no repro package under {SOURCE_ROOT}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SOURCE_ROOT))

    process_start = time.perf_counter()
    import repro  # noqa: F401  (timed: not part of any end-to-end metric)
    import engine_runs
    import hostprobe
    import service_runs
    from workloads import ENGINE_WORKLOADS, SERVICE_WORKLOAD

    import_s = time.perf_counter() - process_start

    if args.mode == "probe":
        result = hostprobe.run_probe()
    else:
        engine = ENGINE_WORKLOADS.get(args.workload)
        if engine is None and args.workload != SERVICE_WORKLOAD:
            parser.error(f"unknown workload {args.workload!r}")
        trace_path = HERE / "out" / f"trace_{args.workload}.json"
        trace_path.parent.mkdir(exist_ok=True)
        if args.mode == "cold":
            result = (
                engine_runs.run_cold(engine, args.seed)
                if engine
                else service_runs.run_cold(args.seed)
            )
        elif args.mode == "measure":
            result = (
                engine_runs.run_measure(engine, args.seed, args.seconds, peak_rss_mib)
                if engine
                else service_runs.run_measure(args.seed, args.seconds, peak_rss_mib)
            )
        else:
            result = (
                engine_runs.run_trace(engine, args.seed, trace_path)
                if engine
                else service_runs.run_trace(args.seed, trace_path)
            )
            result["trace_file"] = str(trace_path.relative_to(HERE.parents[1]))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        mode=args.mode,
        workload=args.workload,
        seed=args.seed,
        host=hostprobe.host_block(),
        harness={
            "import_s": import_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "total_s": time.perf_counter() - process_start,
            "child_peak_rss_mib": peak_rss_mib(),
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
