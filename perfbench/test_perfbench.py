"""Self-test of the benchmark: a minimal run completes, and every check
rejects outputs perturbed away from the program's.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.environ["PYTHONPATH"] = str(ROOT / "src")  # for the cli children

import checks as C  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def lib():
    return worker.import_program()


def _run(*args):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_minimal_run_reports_every_end_to_end_metric():
    result = _run("--workload", "warm", "--seed", str(SEED), "--seconds", "1", "--trace", "0")
    assert result["correct"] is True
    assert result["attempted"] == len(workloads.build("warm", SEED, worker.import_program(),
                                                      None))
    assert result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _run("--workload", "warm", "--seed", str(SEED), "--seconds", "1", "--trace", "1")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] is True
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["maxplus.analyze_calls"] == 0
    assert metrics["paths.probes"] == 0
    assert metrics["perron.solves"] > 0 and metrics["sft.entropy_calls"] > 0
    assert (HERE / "out" / f"trace-warm-seed{SEED}.json").is_file()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "warm", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_parse_importtime_attributes_nested_scipy_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        700 |   scipy.special",
        "import time:        50 |        750 | thermoshift",
    ])
    assert worker.parse_importtime(text) == (0.75, 0.7)


# --- every check rejects a perturbed output -------------------------------

DELTA = 1e-6


def _bump(record, k, delta=DELTA):
    out = list(record)
    out[k] += delta
    return tuple(out)


def _ops(lib, name, keep):
    return [op for op in workloads.build(name, SEED, lib, None) if keep(op.name)]


def _assert_rejects(op, out):
    assert op.check(out), f"{op.name} accepted a perturbed output {out!r}"


def test_warm_checks_reject_perturbed_outputs(lib):
    ops = _ops(lib, "warm", lambda n: any(s in n for s in ("golden", "full2,", "full5,m3", "rand5")))
    assert len(ops) == 16
    for op in ops:
        out = op.run()
        assert op.check(out) == [], op.name
        for k in range(len(out)):  # pressure, residual, entropy, integral
            _assert_rejects(op, _bump(out, k))


def test_cold_checks_reject_perturbed_outputs(lib):
    ops = _ops(lib, "cold", lambda n: any(s in n for s in ("golden", "full3,m2", "full4,m3")))
    assert len(ops) == 12
    for op in ops:  # the maximization comes first, so each reference is ready
        out = op.run()
        assert op.check(out) == [], op.name
        if op.name.startswith("maximize"):
            _assert_rejects(op, _bump(out, 0))  # beta
            if out[4]:  # unique: the ground entropy must be 0
                _assert_rejects(op, _bump(out, 3))
        elif op.name.startswith("ground-bound"):
            _assert_rejects(op, out + DELTA)
        else:
            for k in range(len(out)):
                _assert_rejects(op, _bump(out, k))


def test_ray_checks_reject_perturbed_outputs(lib):
    ops = _ops(lib, "ray", lambda n: "bernoulli" in n or "pin0" in n or "full3" in n)
    assert len(ops) == 13
    for op in ops:
        out = op.run()
        assert op.check(out) == [], op.name
        if op.name.startswith("sweep"):
            rows = list(out)
            for k in range(1, 5):  # pressure, entropy, phi_avg, psi_pressure
                if k == 2 and "full3" in op.name:
                    continue  # with psi != 0 the entropy is not reported separately
                rows[3] = _bump(out[3], k)
                _assert_rejects(op, tuple(rows))
        else:
            _assert_rejects(op, _bump(out, 0, 1e-3 * out[0]))  # t_found
            _assert_rejects(op, _bump(out, 1))  # achieved
            _assert_rejects(op, _bump(out, 2))  # residual


def test_lazy_phase_sample_check_rejects_a_perturbed_pressure(lib):
    op = _ops(lib, "ray", lambda n: n.startswith("sample[lazy"))[0]
    out = op.run()
    assert op.check(out) == []
    for k in range(1, 5):
        _assert_rejects(op, _bump(out, k))


def test_stall_reproducer_fails_with_convergence_error(lib):
    op = _ops(lib, "ray", lambda n: n.startswith("sample[stall"))[0]
    with pytest.raises(lib.errors.ConvergenceError):
        op.run()


def _perturb_json(stdout, path, delta=DELTA):
    data = json.loads(stdout)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = (not node[path[-1]]) if isinstance(node[path[-1]], bool) \
        else node[path[-1]] + delta
    return json.dumps(data).encode()


CLI_PERTURBATIONS = {
    "entropy": [("entropy_nats",)],
    "pressure": [("pressure_nats",)],
    "equilibrium": [("pressure_nats",), ("entropy_nats",), ("stationary", 0), ("kernel", 0, 0)],
    "maximize": [("beta",)],
    "solve-entropy": [("achieved",), ("residual",)],
    "solve-pressure": [("achieved",), ("residual",)],
    "check": [("ok",)],
}


def test_cli_checks_reject_perturbed_outputs(tmp_path, lib):
    ops = workloads.build("cli", SEED, lib, tmp_path)
    assert len({op.argv[0] for op in ops}) == 8
    for op in ops:
        code, stdout = op.run()
        assert op.check((code, stdout)) == [], op.name
        _assert_rejects(op, (1, stdout))
        command = op.argv[0]
        if command == "path":
            lines = stdout.splitlines()
            _assert_rejects(op, (0, b"\n".join([b"t,P,h,a,b"] + lines[1:])))
            row = [float(x) for x in lines[5].split(b",")]
            row[1] += DELTA
            lines[5] = ",".join(repr(x) for x in row).encode()
            _assert_rejects(op, (0, b"\n".join(lines)))
            continue
        for path in CLI_PERTURBATIONS[command]:
            _assert_rejects(op, (0, _perturb_json(stdout, path)))
        if command.startswith("solve"):
            t_found = json.loads(stdout)["t_found"]
            _assert_rejects(op, (0, _perturb_json(stdout, ("t_found",), 1e-3 * t_found)))


def test_outputs_that_differ_between_passes_are_rejected():
    op = workloads.Op("constant", lambda: (1.0,), lambda out: [])
    problems, failed = worker.check_outputs([op], [[(1.0,)], [(1.0 + DELTA,)]])
    assert problems and failed == [0, 0]


def test_closed_forms():
    assert C.check_closed_form(C.GOLDEN_ENTROPY, C.topological_entropy(workloads.GOLDEN), "h") == []
    t = C.bernoulli_t_for_entropy(C.bernoulli_entropy(C.bernoulli_q(3.0)))
    assert abs(t - 3.0) < 1e-9
    ray = C.Ray([[1, 1], [1, 1]], {(0,): 0.3, (1,): -0.7}, 1)
    assert abs(ray.pressure(2.0) - C.full_shift_memory1_pressure([0.3, -0.7], 2.0)) < 1e-12
