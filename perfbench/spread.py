"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload codes --seeds 1 2 3 4 5 --seconds 20

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric its values, median, quartiles and spread, the distance between
the quartiles as a share of the median (``statistics.quantiles(n=4)``).
A workload's metric is steady when its spread stays below a third of the
bound in BENCHMARK.json.  The last stdout line is the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = {}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=HERE.parent, stdout=subprocess.PIPE,
                text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"{workload:13s} {name:12s} median {s['median']:12.5g}"
                  f"  spread {s['spread']:.4f}  bound {bounds[name]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
