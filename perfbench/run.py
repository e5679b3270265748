"""Benchmark of qsymgraph: one workload, one seed, one run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; it imports the package from `src/`.
The run is a closed loop with one client in this process: each operation
starts when the previous one ends. A few small warm-up operations
(workloads.warmup) run first and are not timed, so that no timed
operation pays for the process's first calls. Then the workload's
operations run in turn, over and over, until the next one would end
after --seconds, judged by its previous time; every operation runs at
least once. Before each operation the package's lru caches are cleared,
so every operation starts as cold as a fresh `qsymgraph` command would.

--trace 0 prints the end-to-end metrics:
  wall_s        time of one pass over the workload's operations: the sum
                over operations of each one's mean time over the run. On a
                shared 2-vCPU host, speed swung by 10-30% for tens of
                seconds at a time, so the mean over the whole run is
                steadier than a median or minimum of the few samples a
                long operation gets.
  setup_s       median over SETUP_PROBES fresh processes of the time from
                process start to the inputs being built (interpreter,
                `import qsymgraph` with numpy, relabelled input files)
  peak_rss_mib  peak resident memory of this process over the warm-up
                and the first pass. Later passes grow the heap by a few MiB
                each, so the peak at the end of the run would depend on how
                many passes fit in it.

and, outside the result line (see UNGATED), slowest_op_s, the largest
of the operation means, and ops_failed_frac, failed over attempted.

--trace 1 alternates untraced and traced passes for as long as another
pair fits in --seconds (at least one pair), and prints the per-layer
metrics, each per pass: calls and self time of every traced function,
the ClosureResult sizes, the number of graphs `regular_graph_reps`
returned, the traced pass time split into span self times and the
remainder outside any span, slowest_op_s and ops_failed_frac. The spans
are written to .perfbench/ in the checkout.

Every output is checked, the warm-up's too. An operation fails if it
raises, exits non-zero or gives an output its check rejects; failures are
counted, never skipped. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it holds the run conditions.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads  # first: puts the checkout's src/ on sys.path
import spans

SETUP_PROBES = 5
# Printed by an untraced run but left out of its result line, whose metrics
# each carry a regression bound; the traced run reports them. An end-to-end
# metric must never be 0, which ops_failed_frac is on a correct run. The
# slowest operation gets only a few samples in a run, and single operations
# varied by up to 30% between identical runs on a shared 2-vCPU host, which
# no allowed bound (at most 25%) would absorb.
UNGATED = ("slowest_op_s", "ops_failed_frac")
WORK = workloads.ROOT / ".perfbench"


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times)


def clear_caches() -> None:
    for module in spans.package_modules():
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear") and getattr(value, "__module__", "").startswith("qsymgraph"):
                value.cache_clear()


def run_op(op: workloads.Op, tracer: spans.Tracer | None = None) -> tuple[float, bool]:
    """Runs and checks one operation; returns its time and whether it
    succeeded. Only the `run` call is timed."""
    clear_caches()
    if tracer is not None:
        tracer.run += 1
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"operation {op.name} raised:", file=sys.stderr)
        traceback.print_exc()
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        problem = op.check(output)
    except Exception as exc:
        problem = f"check raised {exc!r}"
    if problem is not None:
        print(f"operation {op.name} is wrong: {problem}", file=sys.stderr)
    return elapsed, problem is None


def run_pass(ops: list[workloads.Op], tracer: spans.Tracer | None = None) -> Pass:
    """One pass in order."""
    p = Pass()
    for op in ops:
        elapsed, ok = run_op(op, tracer)
        p.times.append(elapsed)
        p.failed += not ok
    return p


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(ops: list[workloads.Op], seconds: float) -> tuple[list[list[float]], int, float]:
    """Runs the operations in turn until the next one would end after
    `seconds`, judged by its previous time; each runs at least once.
    Returns every operation's times, the number of failures and the peak
    resident memory in MiB at the end of the first pass."""
    samples: list[list[float]] = [[] for _ in ops]
    failed = 0
    first_pass_rss = 0.0
    start = time.perf_counter()
    for i in itertools.count():
        k = i % len(ops)
        if samples[k] and time.perf_counter() - start + samples[k][-1] > seconds:
            break
        elapsed, ok = run_op(ops[k])
        samples[k].append(elapsed)
        failed += not ok
        if i == len(ops) - 1:
            first_pass_rss = peak_rss_mib()
    return samples, failed, first_pass_rss


def measure(ops: list[workloads.Op], seconds: float, trace: bool):
    """Warms up, then measures for `seconds`; returns (metrics without
    setup_s, attempted, failed, tracer or None)."""
    warm = run_pass(workloads.warmup())
    attempted = len(warm.times)
    failed = warm.failed
    if not trace:
        samples, loop_failed, rss = timed_loop(ops, seconds)
        op_means = [statistics.fmean(s) for s in samples]
        metrics = {
            "wall_s": (sum(op_means), "s"),
            "peak_rss_mib": (rss, "MiB"),
            "slowest_op_s": (max(op_means), "s"),
        }
        attempted += sum(len(s) for s in samples)
        failed += loop_failed
        metrics["ops_failed_frac"] = (failed / attempted, "ratio")
        return metrics, attempted, failed, None
    tracer = spans.Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(ops))
        with tracer:
            traced.append(run_pass(ops, tracer))
        pair = untraced[-1].wall + traced[-1].wall
        if time.perf_counter() - start + pair > seconds:
            break
    attempted += sum(len(p.times) for p in untraced + traced)
    failed += sum(p.failed for p in untraced + traced)
    metrics = layer_metrics(tracer, untraced, traced)
    op_medians = [statistics.median(samples) for samples in zip(*(p.times for p in untraced))]
    metrics["slowest_op_s"] = (max(op_medians), "s")
    metrics["ops_failed_frac"] = (failed / attempted, "ratio")
    return metrics, attempted, failed, tracer


def layer_metrics(tracer: spans.Tracer, untraced: list[Pass], traced: list[Pass]) -> dict:
    k = len(traced)
    traced_wall = sum(p.wall for p in traced) / k
    out: dict[str, tuple[float, str]] = {}
    for name, (calls, self_s) in tracer.self_times().items():
        out[f"{name}.calls"] = (calls / k, "count")
        out[f"{name}.self_s"] = (self_s / k, "s")
    c = tracer.closure
    out["closure.orbits"] = (c.orbits / k, "count")
    out["closure.rank"] = (c.rank / k, "count")
    out["closure.letters"] = (c.letters / k, "count")
    out["closure.top_orbits"] = (c.top_orbits, "count")
    out["closure.basis_bytes"] = (c.basis_bytes / k, "B-computed")
    out["classify.regular_graph_reps.graphs"] = (tracer.graphs_returned / k, "count")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.remainder_s"] = (traced_wall - tracer.covered() / k, "s")
    out["trace.overhead_s"] = (traced_wall - sum(p.wall for p in untraced) / len(untraced), "s")
    return out


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its inputs being built."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1]) - start


def git_commit() -> str | None:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Identifies the program where the checkout has no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((workloads.ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def conditions(seed: int, workload: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seed_note": "the census has no input to vary" if workload == "census" else None,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "nproc": os.cpu_count(),
        "threads_env": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg_start": loadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix="inputs-"))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(time.monotonic())
            return 0
        record = conditions(args.seed, args.workload)
        setup = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics, attempted, failed, tracer = measure(ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics["setup_s"] = (statistics.median(setup), "s")
    else:
        path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        record["spans"] = str(path.relative_to(workloads.ROOT))
    record["loadavg_end"] = loadavg()
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6f} {unit}")
    print(json.dumps({"conditions": record}, sort_keys=True))
    reported = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
        if tracer is not None or name not in UNGATED
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
