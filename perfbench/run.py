#!/usr/bin/env python3
"""Benchmark of pibox: a seeded, closed-loop stream of user jobs.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each was chosen): lattice_spectra and
roots_and_outcomes.  Run from the root of a source checkout; the package is
imported from ./src.

--trace 0 measures the end-to-end metrics with tracing off: setup_s (a
fresh interpreter importing pibox, median of SETUP_REPEATS), the median and
90th-percentile job latency, jobs per second of job time, and peak RSS;
error_rate is printed with them.  --trace 1 runs every job of half a run
twice, once untraced and once with spans around every layer call, and
reports each layer's self time and work counts plus the tracing overhead.

Every job's answer is checked outside the timer, and a negative control
checks that a spoiled answer of every job kind is rejected.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Run
records and spans go to perfbench/out/.
"""

import argparse
import ctypes
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
WORKLOADS = ("lattice_spectra", "roots_and_outcomes")

E2E_UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_p90_s": "s", "jobs_per_s": "1/s",
             "peak_rss_mb": "MB"}
UNITS = {"self_s": "s", "per_s": "1/s", "over_bound": "ratio", "defect": "fraction",
         "bytes_out": "bytes", "per_outcome": "ratio", "overhead_frac": "fraction"}


def unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pibox" / "__init__.py").is_file():
        print(f"perfbench: no pibox sources under {SRC}", file=sys.stderr)
        return 2
    # one client, no added threads: pin the BLAS pool before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # glibc raises its mmap threshold as large arrays are freed and then keeps
    # freed heap, so peak RSS would grow with the number of jobs a run fits
    # in; a fixed threshold keeps peak_rss_mb the live peak of the largest job,
    # as one pibox invocation sees it
    mmap_threshold = None
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt") and libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1:
        mmap_threshold = 128 * 1024
    sys.path.insert(0, str(SRC))
    import harness
    import pibox
    import pibox.cli  # noqa: F401
    import spans
    import workloads

    harness.run_stream(pibox, args.workload, args.seed, 0, 0, min_jobs=0,
                       replay=workloads.warmup_block(args.workload))
    # wall-time cap (checks included), so a run whose checks cost as much as
    # its jobs still ends well inside the time a run may take
    cap_s = 2 * args.seconds + 10
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        run, untraced = spans.paired(tracer, spans.pibox_targets(pibox), harness.execute)
        stream = harness.run_stream(pibox, args.workload, args.seed, args.seconds / 2, cap_s,
                                    min_jobs=harness.MIN_JOBS // 2, run=run)
        metrics = spans.layer_metrics(tracer.spans, stream.bytes_out)
        metrics["trace.overhead_frac"] = stream.busy_s / sum(untraced) - 1.0
    else:
        setup = statistics.median(harness.setup_seconds(str(SRC), SETUP_REPEATS))
        stream = harness.run_stream(pibox, args.workload, args.seed, args.seconds, cap_s)
        try:
            p50, p90 = harness.latency_summary(stream.latencies)
        except harness.TooFewJobs as exc:
            print(f"perfbench: refused: {exc}", file=sys.stderr)
            return 3
        metrics = {
            "setup_s": setup,
            "latency_p50_s": p50,
            "latency_p90_s": p90,
            "jobs_per_s": len(stream.jobs) / stream.busy_s,
            "peak_rss_mb": harness.peak_rss_mb(),
        }

    attempted, failed = len(stream.jobs), len(stream.failures)
    escaped = harness.negative_control(stream.samples)
    env = harness.environment(pibox, args.seed, stream)
    env["malloc_mmap_threshold"] = mmap_threshold
    result = {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()}

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "env": env, "attempted": attempted, "failed": failed,
              "failures": stream.failures[:20],
              "negative_control_escaped": escaped, "metrics": result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{tag}.spans.jsonl")

    print(f"pibox benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env))
    print(f"{env['jobs']} jobs, digest {env['jobs_digest']}, {stream.busy_s:.2f} s of job time")
    for name, m in result.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'error_rate':<42} {failed / attempted:.6g} fraction")
    for index, reason in stream.failures[:5]:
        print(f"perfbench: job {index} ({stream.jobs[index].describe()}) failed: {reason}", file=sys.stderr)
    if escaped:
        print(f"perfbench: negative control not rejected for {escaped}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not escaped, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
