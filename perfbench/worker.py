"""One measured process of the benchmark; started by ``run.py``.

Modes:

``--mode setup``
    Time ``import thermoshift`` plus building the workload's inputs in
    this fresh interpreter, print ``{"setup_s": ...}`` and exit.
``--mode run``
    Build the inputs, replay one untimed warm-up pass, then the measured
    passes, check every output and print one JSON line of results.
``--mode trace``
    Warm-up pass, one untraced and one traced pass; print the per-layer
    figures and write the spans under ``perfbench/out``.

The last line printed is always one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import speed

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def import_program():
    names = ("sft", "potentials", "transfer", "ergopt", "paths", "cli", "errors")
    importlib.import_module("thermoshift")
    return SimpleNamespace(**{n: importlib.import_module(f"thermoshift.{n}") for n in names})


def probe_for(ops):
    """The speed probe matching where the ops run, and its reference."""
    if ops and ops[0].argv is not None and not ops[0].in_process:
        return speed.child_probe, speed.CHILD_REFERENCE_S
    return speed.probe, speed.REFERENCE_S


def run_pass(ops, latencies=None, probes=None):
    """Run every op once, in order; returns outputs (an exception object
    stands for a failed op) and the pass wall time.  With ``latencies``,
    each op's time is appended there and a host speed probe taken just
    before it to ``probes``."""
    outputs = []
    probe = probe_for(ops)[0]
    start = time.perf_counter()
    for op in ops:
        if latencies is not None:
            probes.append(probe())
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, time.perf_counter() - start


def check_outputs(ops, passes):
    """Check the first output of each op against the references and every
    later output for exact equality with it.  Returns (problems, failed
    counts per pass)."""
    problems = []
    failed = [sum(isinstance(out, Exception) for out in outs) for outs in passes]
    for k, op in enumerate(ops):
        outs = [outs[k] for outs in passes]
        done = [out for out in outs if not isinstance(out, Exception)]
        if len(done) not in (0, len(outs)):
            problems.append(f"{op.name}: failed in some passes only")
        if not done:
            print(f"failed: {op.name}: {type(outs[0]).__name__}: {outs[0]}", file=sys.stderr)
            continue
        try:
            problems += [f"{op.name}: {p}" for p in op.check(done[0])]
        except Exception:
            problems.append(f"{op.name}: check raised\n{traceback.format_exc()}")
        if any(out != done[0] for out in done[1:]):
            problems.append(f"{op.name}: output differs between passes")
    return problems, failed


def tail(samples):
    """The highest order statistic with at least ten samples beyond it."""
    ordered = sorted(samples)
    return ordered[max(0, len(ordered) - 11)]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def latency_figures(latencies, completed):
    """ops_per_s (median over passes), op_p50_ms and op_tail_ms from the
    latencies of whole passes; ``completed`` counts the ops of each pass
    that did not fail."""
    n = len(latencies) // len(completed)
    rates = [done / sum(latencies[k * n:(k + 1) * n]) for k, done in enumerate(completed)]
    return {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail(latencies) * 1e3,
    }


def measured_run(workload, ops, seconds):
    import workloads

    warm, _ = run_pass(ops)  # untimed warm-up; its outputs are checked too
    passes, latencies, probes = [warm], [], []
    for _ in range(workloads.passes_for(workload, seconds)):
        outs, _ = run_pass(ops, latencies, probes)
        passes.append(outs)
    rss = peak_rss_mb(workload)  # before the checker allocates anything
    problems, failed = check_outputs(ops, passes)
    completed = [len(ops) - f for f in failed[1:]]
    metrics = latency_figures(speed.scale(latencies, probes, probe_for(ops)[1]), completed)
    metrics["peak_rss_mb"] = rss
    return {
        "problems": problems,
        "attempted": len(ops) * (len(passes) - 1),
        "failed": sum(failed[1:]),
        "passes": len(passes) - 1,
        "samples": len(latencies),
        "metrics": metrics,
        "raw": latency_figures(latencies, completed),
        "probe_ms": statistics.median(probes) * 1e3,
    }


def timed_pass(ops):
    """One pass with a speed probe before each op; returns the outputs,
    the time of its ops scaled to the reference speed, and the scale
    factor of the pass (the per-layer times of a pass use the same one)."""
    latencies, probes = [], []
    outputs, _ = run_pass(ops, latencies, probes)
    factor = probe_for(ops)[1] / statistics.median(probes)
    return outputs, sum(latencies) * factor, factor


def in_process(lib, ops):
    """The cli ops as calls of ``cli.run_command`` in this process."""
    import workloads

    def command(argv):
        args = lib.cli.build_parser().parse_args(argv)

        def run():
            payload, code = lib.cli.run_command(args)
            return code, payload.encode()
        return run
    return [workloads.Op(op.name, command(op.argv), op.check, op.argv, in_process=True)
            for op in ops]


def traced_run(workload, seed, lib, ops, tracer):
    """One untraced and one traced pass, both scaled to the reference
    speed.  A cli child cannot be traced from here, so the cli workload
    replays the same argv in process, after one pass of children that
    gives the start-up figure."""
    run_pass(ops)  # warm-up
    replay, problems = ops, []
    if workload == "cli":
        children, children_s, _ = timed_pass(ops)
        replay = in_process(lib, ops)
        run_pass(replay)  # warm-up
    untraced, untraced_s, _ = timed_pass(replay)
    uninstall = tracer.install()
    try:
        traced, traced_s, factor = timed_pass(replay)
    finally:
        uninstall()
    if workload == "cli":
        problems += [f"{op.name}: in-process output differs from the child's"
                     for op, mine, child in zip(ops, untraced, children) if mine != child]
        passes = [children, traced]
    else:
        passes = [untraced, traced]
    found, failed = check_outputs(ops, passes)
    figures = {k: v * factor if k.endswith("_ms") else v for k, v in tracer.metrics().items()}
    figures.update(import_figures())
    figures["cli.run_command_ms"] = untraced_s * 1e3 if workload == "cli" else 0.0
    figures["cli.startup_ms"] = (children_s - untraced_s) * 1e3 if workload == "cli" else 0.0
    figures["trace.traced_pass_ms"] = traced_s * 1e3
    figures["trace.untraced_pass_ms"] = untraced_s * 1e3
    figures["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.json",
                {"workload": workload, "seed": seed, "metrics": figures,
                 "span_time_scale": factor})
    return {"problems": problems + found, "attempted": len(ops) * len(passes),
            "failed": sum(failed), "metrics": figures}


IMPORT_PROBES = 3


def import_figures():
    """Median over fresh interpreters of ``-X importtime`` for thermoshift
    and for the scipy modules it pulls in, scaled to the reference speed."""
    totals, scipys = [], []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import thermoshift"],
                              capture_output=True, text=True, check=True)
        factor = speed.CHILD_REFERENCE_S / speed.child_probe()
        total, scipy = parse_importtime(done.stderr)
        totals.append(total * factor)
        scipys.append(scipy * factor)
    return {"import.total_ms": statistics.median(totals),
            "import.scipy_ms": statistics.median(scipys)}


def parse_importtime(text):
    """(thermoshift, scipy) cumulative milliseconds from ``-X importtime``.

    Lines come in post-order (a module after everything it imports), with
    the depth given by the indentation of the name; scipy's share is the
    sum over scipy modules whose importer is not itself a scipy module.
    """
    rows = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total = scipy = 0
    for k, (depth, name, cumulative) in enumerate(rows):
        if name == "thermoshift":
            total = cumulative
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r[1] for r in rows[k + 1:] if r[0] < depth), "")
        if parent.split(".")[0] != "scipy":
            scipy += cumulative
    return total / 1e3, scipy / 1e3


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        start = time.perf_counter()
        lib = import_program()
        import tracing
        import workloads

        tracer = tracing.Tracer()
        uninstall = tracer.install() if args.mode == "trace" else (lambda: None)
        try:
            ops = workloads.build(args.workload, args.seed, lib, workdir)
        finally:
            uninstall()
        setup_s = time.perf_counter() - start
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        elif args.mode == "run":
            result = measured_run(args.workload, ops, args.seconds)
        else:
            result = traced_run(args.workload, args.seed, lib, ops, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
