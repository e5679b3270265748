"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads closure --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --trace-seed 1 --out perfbench/trajectory/NAME.json

Runs are sequential, with the command and run length of BENCHMARK.json,
from the root of the checkout. For each end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median. With
--trace-seed it adds one traced run per workload. With --out it writes
all of this, with each run's conditions, as one JSON file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["conditions"] = json.loads(lines[-2])["conditions"]
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report: dict = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(bench, workload, seed, 0) for seed in args.seeds]
        entry: dict = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "conditions": [r["conditions"] for r in runs],
        }
        print(f"{workload}: {entry['failed']} of {entry['attempted']} operations failed")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = {"unit": metric["unit"], **stats}
            flag = "" if stats["spread"] < metric["bound"] / 3 else "  (spread >= bound/3)"
            print(
                f"  {name:14s} median {stats['median']:10.4f} {metric['unit']:4s}"
                f" q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f}"
                f" spread {stats['spread']:.4f} bound {metric['bound']}{flag}"
            )
        if args.trace_seed is not None:
            traced = run_once(bench, workload, args.trace_seed, 1)
            entry["traced"] = {
                "seed": args.trace_seed,
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "metrics": traced["metrics"],
                "conditions": traced["conditions"],
            }
            print(f"  traced run: {traced['failed']} of {traced['attempted']} operations failed")
        report["workloads"][workload] = entry
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
