"""Benchmark of thermoshift: one command, four workloads.

    python3 perfbench/run.py --workload {warm,cold,ray,cli} --seed N \
        [--seconds 15] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src``
of that checkout.  With ``--trace 0`` the last line of stdout is the
JSON result with every end-to-end metric, with ``--trace 1`` with every
per-layer metric.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("warm", "cold", "ray", "cli")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "import.total_ms": "ms", "import.scipy_ms": "ms", "config.parse_ms": "ms",
    "sft.build_ms": "ms", "sft.entropy_calls": "count", "sft.entropy_ms": "ms",
    "potentials.combine_calls": "count", "potentials.combine_ms": "ms",
    "edgegraph.build_calls": "count", "edgegraph.build_ms": "ms",
    "perron.solves": "count", "perron.iterations": "count",
    "perron.iterations_max": "count", "perron.ms": "ms", "perron.failed": "count",
    "maxplus.analyze_calls": "count", "maxplus.analyze_ms": "ms",
    "maxplus.states_max": "count", "transfer.equilibria": "count",
    "transfer.self_ms": "ms", "transfer.integrate_ms": "ms", "ergopt.self_ms": "ms",
    "paths.solves": "count", "paths.probes": "count", "paths.self_ms": "ms",
    "cli.run_command_ms": "ms", "cli.startup_ms": "ms",
    "trace.overhead_ms": "ms", "trace.traced_pass_ms": "ms", "trace.untraced_pass_ms": "ms",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def isolate():
    """For this process and every process it starts: one CPU, since the
    vCPUs of a shared host change speed independently and the speed probe
    must run where the measured code runs (a cli child included); one
    BLAS/OpenMP thread; the checkout's own sources."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[name] = "1"


def worker(mode, args, timeout):
    command = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker exceeded {timeout} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{mode} worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thermoshift" / "__init__.py").is_file():
        fail(f"no thermoshift sources under {ROOT / 'src'}")
    isolate()

    raw = {}
    if args.trace:
        result = worker("trace", args, WORKER_TIMEOUT_S)
        metrics, units = result["metrics"], PER_LAYER_UNITS
    else:
        result = worker("run", args, WORKER_TIMEOUT_S)
        # after the run, so that compiled bytecode is in place for every probe
        setups, scaled = [], []
        for _ in range(SETUP_PROBES):
            setups.append(worker("setup", args, PROBE_TIMEOUT_S)["setup_s"])
            scaled.append(setups[-1] * speed.CHILD_REFERENCE_S / speed.child_probe())
        metrics = dict(result["metrics"], setup_s=statistics.median(scaled))
        raw = dict(result["raw"], setup_s=statistics.median(setups))
        units = END_TO_END_UNITS
        print(f"{args.workload} seed {args.seed}: {result['passes']} passes, "
              f"{result['samples']} latency samples (op_tail_ms has 10 beyond it); "
              f"speed probe median {result['probe_ms']:.4f} ms")

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {not result['problems']}")
    for name, unit in units.items():
        unscaled = f"   (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:26s} {metrics[name]:14.6g} {unit}{unscaled}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
