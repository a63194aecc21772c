#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload roots_and_outcomes --seeds 1-10 --seconds 45 [--save FILE]

Prints, per metric, the median, the quartiles and the quartile spread as a
share of the median (statistics.quantiles(values, n=4)); --save writes the
same summary, with every run's values, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--save")
    args = p.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": values}
        print(f"{name:<42} median {med:.6g} {m['unit']}  quartiles {q1:.6g}..{q3:.6g}  "
              f"spread {summary[name]['spread']:.3f}")
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                               "seeds": args.seeds,
                                               "all_correct": all(r["correct"] for r in runs),
                                               "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
