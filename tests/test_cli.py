import json
import math
import pathlib
import subprocess
import sys

import pytest

import thermoshift as ts
from thermoshift import transfer
from thermoshift.cli import CSV_HEADER, main
from thermoshift.config import config_from_dict
from thermoshift.errors import CheckFailedError, ConvergenceError, ValidationError

GOLDEN_CONFIG = {
    "alphabet": 2,
    "transitions": [[1, 1], [1, 0]],
    "potentials": {
        "pin0": {"memory": 2, "values": {"00": 0.0, "01": -1.0, "10": -1.0}},
        "lin": {"memory": 1, "values": {"0": 0.0, "1": 1.0}},
    },
}

FULL2_CONFIG = {
    "alphabet": 2,
    "transitions": [[1, 1], [1, 1]],
    "potentials": {
        "pin0": {
            "memory": 2,
            "values": {"00": 0.0, "01": -1.0, "10": -1.0, "11": -1.0},
        },
        "lin": {"memory": 1, "values": {"0": 0.0, "1": 1.0}},
    },
}


def write_config(tmp_path, payload, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "thermoshift", *args],
        capture_output=True,
        text=True,
    )


def test_entropy_golden_mean(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    proc = run_cli("entropy", path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["entropy_nats"] == pytest.approx(0.4812118250596035, abs=1e-10)


def test_bits_conversion(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    proc = run_cli("entropy", path, "--bits")
    payload = json.loads(proc.stdout)
    assert payload["entropy_bits"] == pytest.approx(
        0.4812118250596035 / math.log(2), abs=1e-10
    )


def test_usage_error_exit_code(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    assert run_cli("entropy", path, "--no-such-flag").returncode == 2
    assert run_cli("frobnicate", path).returncode == 2
    assert run_cli("solve-entropy", path, "--phi", "pin0").returncode == 2  # no target
    assert run_cli("pressure", path, "--phi", "nope").returncode == 2


def test_validation_error_exit_code(tmp_path):
    bad = {
        "alphabet": 2,
        "transitions": [[1, 1], [1, 0]],
        "potentials": {
            "bad": {"memory": 2, "values": {"00": 0.0, "01": 0.0, "10": 0.0, "11": 1.0}}
        },
    }
    path = write_config(tmp_path, bad)
    proc = run_cli("entropy", path)
    assert proc.returncode == 3
    assert "11" in proc.stderr

    missing = {
        "alphabet": 2,
        "transitions": [[1, 1], [1, 0]],
        "potentials": {"bad": {"memory": 2, "values": {"00": 0.0, "01": 0.0}}},
    }
    proc = run_cli("entropy", write_config(tmp_path, missing, "m.json"))
    assert proc.returncode == 3
    assert "10" in proc.stderr

    unknown_key = dict(GOLDEN_CONFIG)
    unknown_key["extra"] = 1
    proc = run_cli("entropy", write_config(tmp_path, unknown_key, "u.json"))
    assert proc.returncode == 3

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    assert run_cli("entropy", str(not_json)).returncode == 3
    assert run_cli("entropy", str(tmp_path / "absent.json")).returncode == 3


@pytest.mark.parametrize(
    "change, message",
    [
        ({"potentials": []}, "potentials: must be an object"),
        (
            {"potentials": {"p": {"memory": 1, "values": [1, 2]}}},
            "potentials.p.values: must be an object",
        ),
        ({"transitions": [[1, 1], [1]]}, "rows differ in length"),
    ],
    ids=["potentials-list", "values-list", "ragged-transitions"],
)
def test_malformed_config_is_a_configuration_error(tmp_path, change, message):
    path = write_config(tmp_path, {**GOLDEN_CONFIG, **change})
    proc = run_cli("entropy", path)
    assert proc.returncode == 3
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def with_potential(entry):
    return {**GOLDEN_CONFIG, "potentials": {"p": entry}}


@pytest.mark.parametrize(
    "raw, message",
    [
        ([GOLDEN_CONFIG], "config root must be an object"),
        ({"alphabet": 2}, "config: missing key(s) ['transitions']"),
        ({**GOLDEN_CONFIG, "alphabet": 0}, "alphabet: must be a positive integer"),
        ({**GOLDEN_CONFIG, "alphabet": True}, "alphabet: must be a positive integer"),
        (with_potential(3), "potentials.p: must be an object"),
        (with_potential({"values": {}}), "potentials.p: missing key(s) ['memory']"),
        (with_potential({"memory": 0, "values": {}}),
         "potentials.p.memory: must be a positive integer"),
        (with_potential({"memory": 1, "values": {"x": 0.0}}),
         "potentials.p.values: block key 'x' is not a symbol string"),
        (with_potential({"memory": 1, "values": {"": 0.0}}),
         "potentials.p.values: empty block key"),
        (with_potential({"memory": 1, "values": {"2": 0.0}}),
         "potentials.p.values: block '2' uses symbols outside the alphabet"),
        (with_potential({"memory": 2, "values": {"0": 0.0}}),
         "potentials.p.values: block '0' has length 1, expected memory 2"),
        (with_potential({"memory": 1, "values": {"0": "1.0"}}),
         "potentials.p.values: value for '0' is not a number"),
        (with_potential({"memory": 1, "values": {"0": False}}),
         "potentials.p.values: value for '0' is not a number"),
    ],
    ids=["root-list", "missing-transitions", "alphabet-zero", "alphabet-bool",
         "entry-number", "missing-memory", "memory-zero", "key-not-symbols",
         "key-empty", "key-outside-alphabet", "key-wrong-length", "value-string",
         "value-bool"],
)
def test_config_from_dict_refuses_with_the_cause(raw, message):
    with pytest.raises(ValidationError) as refused:
        config_from_dict(raw)
    assert str(refused.value) == message


@pytest.mark.parametrize("error, stderr", [
    (ConvergenceError("stalled"), "convergence failure: stalled\n"),
    (CheckFailedError("gap too wide"), "consistency check failed: gap too wide\n"),
])
def test_convergence_and_check_failures_exit_5(monkeypatch, capsys, error, stderr):
    def failing(sft, phi):
        raise error

    monkeypatch.setattr(transfer, "pressure", failing)
    config = str(pathlib.Path(__file__).parent / "data" / "golden.json")
    assert main(["pressure", config, "--phi", "phi"]) == 5
    assert capsys.readouterr() == ("", stderr)


@pytest.mark.parametrize(
    "args",
    [
        ("solve-entropy", "--phi", "pin0", "--target", "nan"),
        ("solve-pressure", "--phi", "pin0", "--target", "nan"),
        ("solve-entropy", "--phi", "pin0", "--target", "0.3", "--tol", "nan"),
        ("solve-entropy", "--phi", "pin0", "--target", "0.3", "--tol", "-1"),
        ("solve-pressure", "--phi", "pin0", "--target", "0.3", "--tol", "0"),
        ("path", "--phi", "pin0", "--t-max", "nan"),
        ("path", "--phi", "pin0", "--t-max", "inf"),
        ("check", "--t-max", "nan"),
        ("check", "--steps", "0"),
    ],
)
def test_bad_numeric_flags_are_usage_errors(tmp_path, capsys, args):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    assert main([args[0], path, *args[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err and "Traceback" not in captured.err


def test_solver_error_exit_code(tmp_path):
    path = write_config(tmp_path, FULL2_CONFIG)
    proc = run_cli("solve-entropy", path, "--phi", "pin0", "--target", "0.8")
    assert proc.returncode == 4
    assert "TargetOutOfRange" in proc.stderr


def test_solve_entropy_payload(tmp_path):
    path = write_config(tmp_path, FULL2_CONFIG)
    proc = run_cli("solve-entropy", path, "--phi", "pin0", "--target", "0.346574")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["residual"] <= 1e-8
    assert abs(payload["achieved"] - 0.346574) <= 1e-8
    assert payload["trace"]
    lo, hi = payload["bracket"]
    assert lo <= payload["t_found"] <= hi


def test_determinism_byte_identical(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    for args in (
        ["equilibrium", path, "--phi", "pin0"],
        ["path", path, "--phi", "pin0", "--t-max", "3", "--steps", "7", "--csv"],
        ["solve-entropy", path, "--phi", "pin0", "--target", "0.3"],
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_csv_schema(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    proc = run_cli(
        "path", path, "--phi", "pin0", "--t-max", "2", "--steps", "9", "--csv"
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        for field in fields:
            float(field)  # parses as full-precision float
    # 17 significant digits survive a round trip
    t_values = [float(line.split(",")[0]) for line in lines[1:]]
    assert t_values[-1] == 2.0
    entry = lines[3].split(",")[1]
    assert float(entry) == float(f"{float(entry):.17g}")


def test_path_json_matches_csv(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    as_json = json.loads(
        run_cli("path", path, "--phi", "pin0", "--t-max", "1", "--steps", "3").stdout
    )
    as_csv = run_cli(
        "path", path, "--phi", "pin0", "--t-max", "1", "--steps", "3", "--csv"
    ).stdout.splitlines()[1:]
    for sample, line in zip(as_json["samples"], as_csv):
        fields = [float(x) for x in line.split(",")]
        assert fields == [
            sample["t"],
            sample["pressure"],
            sample["entropy"],
            sample["phi_avg"],
            sample["psi_pressure"],
        ]


def test_equilibrium_roundtrip(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    payload = json.loads(run_cli("equilibrium", path, "--phi", "pin0").stdout)
    sft = ts.golden_mean_shift()
    mu = ts.MarkovMeasure(
        sft, payload["order"], payload["stationary"], payload["kernel"]
    )
    assert [str(b[0]) for b in mu.states] == payload["states"]
    assert mu.entropy == pytest.approx(payload["entropy_nats"], abs=1e-12)


def test_maximize_payload(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    payload = json.loads(run_cli("maximize", path, "--phi", "pin0").stdout)
    assert payload["beta"] == 0.0
    assert payload["unique"] is True
    assert payload["witness_cycle"] == ["0"]
    assert payload["critical_edges"] == [["0", "0"]]
    assert payload["ground_entropy_nats"] == 0.0


def test_solve_pressure_cli(tmp_path):
    path = write_config(tmp_path, FULL2_CONFIG)
    proc = run_cli(
        "solve-pressure", path, "--phi", "pin0", "--psi", "lin", "--target", "0.9"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["residual"] <= 1e-8


def test_bits_preserves_row_identities(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    nats = run_cli("path", path, "--phi", "pin0", "--t-max", "1", "--steps", "3", "--csv")
    bits = run_cli(
        "path", path, "--phi", "pin0", "--t-max", "1", "--steps", "3", "--csv", "--bits"
    )
    for line_n, line_b in zip(nats.stdout.splitlines()[1:], bits.stdout.splitlines()[1:]):
        row_n = [float(x) for x in line_n.split(",")]
        row_b = [float(x) for x in line_b.split(",")]
        assert row_b[0] == row_n[0]  # the parameter t is unitless
        for n_val, b_val in zip(row_n[1:], row_b[1:]):
            assert b_val == pytest.approx(n_val / math.log(2), abs=1e-12)


def test_large_alphabet_comma_blocks(tmp_path):
    size = 12
    config = {
        "alphabet": size,
        "transitions": [[1] * size for _ in range(size)],
        "potentials": {
            "one": {
                "memory": 1,
                "values": {str(s): float(s == 11) for s in range(size)},
            },
            "two": {
                "memory": 2,
                "values": {
                    f"{a},{b}": 0.0 for a in range(size) for b in range(size)
                },
            },
        },
    }
    path = write_config(tmp_path, config, "wide.json")
    proc = run_cli("pressure", path, "--phi", "one")
    assert proc.returncode == 0
    value = json.loads(proc.stdout)["pressure_nats"]
    assert value == pytest.approx(math.log(11 + math.e), abs=1e-10)
    assert run_cli("pressure", path, "--phi", "two").returncode == 0


def test_check_command(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    proc = run_cli("check", path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert any(name.startswith("variational-identity") for name in names)
    assert any(name.startswith("pressure-lipschitz") for name in names)
    assert any(name.startswith("entropy-monotone") for name in names)


def test_oversized_config_is_a_configuration_error(tmp_path, capsys, no_block_listing):
    config = {
        "alphabet": 40,
        "transitions": [[1] * 40] * 40,
        "potentials": {"big": {"memory": 6, "values": {}}},
    }
    assert main(["entropy", write_config(tmp_path, config)]) == 3
    assert "potentials.big: at least" in capsys.readouterr().err


def test_check_reports_a_failed_library_check(monkeypatch, capsys):
    def failing(sft, phi, psi):
        raise CheckFailedError("pressure gap exceeds the sup-norm bound")

    monkeypatch.setattr(transfer, "lipschitz_check", failing)
    config = str(pathlib.Path(__file__).parent / "data" / "golden.json")
    assert main(["check", config, "--t-max", "2", "--steps", "5"]) == 5
    payload = json.loads(capsys.readouterr().out)  # one JSON object
    assert payload["ok"] is False
    lipschitz = [c for c in payload["checks"] if c["name"].startswith("pressure-lipschitz")]
    assert len(lipschitz) == 3
    for entry in lipschitz:
        assert entry == {
            "name": entry["name"],
            "ok": False,
            "detail": "pressure gap exceeds the sup-norm bound",
        }
    assert all(c["ok"] for c in payload["checks"] if c not in lipschitz)


def test_results_only_on_stdout(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    proc = run_cli("entropy", path)
    assert proc.stderr == ""
    json.loads(proc.stdout)


# Stdout recorded before the Perron solver moved to a float max-plus frame
# and a linear-domain iteration, a move that changes the last digits of
# every eigensolve; the configs sit next to the recordings.  The two solver
# recordings were taken again when the solvers' probe sequence changed.
DATA = pathlib.Path(__file__).parent / "data"
RECORDED = json.loads((DATA / "cli_stdout.json").read_text())


def assert_numbers_close(got, want, where, tol=1e-13, probe_tol=1e-13):
    """Same structure, equal non-floats, floats within ``tol``; the probe
    points ``t`` and ``t_found`` within ``probe_tol``."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            key_tol = probe_tol if key in ("t", "t_found") else tol
            assert_numbers_close(got[key], want[key], f"{where}.{key}", key_tol, probe_tol)
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_numbers_close(g, w, f"{where}[{k}]", tol, probe_tol)
    elif isinstance(want, float):
        assert abs(got - want) <= tol, (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize("case", RECORDED, ids=lambda case: case["stdout"])
def test_stdout_close_to_recording(case, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    assert main(case["argv"]) == 0
    got = capsys.readouterr().out
    want = (DATA / case["stdout"]).read_text()
    command = case["argv"][0]
    if command == "maximize":
        assert got == want  # exact max-plus data: no eigensolve
    elif command == "path":
        got_lines, want_lines = got.splitlines(), want.splitlines()
        assert got_lines[0] == want_lines[0] == CSV_HEADER
        assert len(got_lines) == len(want_lines)
        for g, w in zip(got_lines[1:], want_lines[1:]):
            assert_numbers_close(
                [float(x) for x in g.split(",")], [float(x) for x in w.split(",")], w
            )
    else:
        got, want = json.loads(got), json.loads(want)
        if command == "pressure":  # the Perron iteration count is not pinned
            assert isinstance(got.pop("iterations"), int)
            want.pop("iterations")
        # A solver's probe points move by a value change over the slope of
        # the solved function: each Perron value is certified only to
        # within tol/2 of the truth, and slopes near 0.03 occur.
        probe_tol = 1e-11 if command.startswith("solve-") else 1e-13
        assert_numbers_close(got, want, command, probe_tol=probe_tol)


def test_maximize_prints_the_canonical_witness(capsys, monkeypatch):
    # The critical subgraph is the 2-cycle 1 <-> 2; the witness starts at
    # its smallest vertex whatever route found the maximum.  Exact data, so
    # the bytes do not depend on the platform.
    monkeypatch.chdir(DATA)
    assert main(["maximize", "witness.json", "--phi", "phi"]) == 0
    assert capsys.readouterr().out == (DATA / "11-maximize.out").read_text()


# What each command may load beyond the standard library and numpy: the
# package modules, and `fractions`, which only the exact max-plus
# analysis needs.  The eight commands are the first recording of each.
_BASE = {"cli", "config", "errors", "potentials", "sft", "_perron"}
_RAY = _BASE | {"transfer", "_edgegraph", "paths"}
_EVERYTHING = _RAY | {"ergopt", "maxplus", "fractions"}
MAY_LOAD = {
    "entropy": _BASE,
    "pressure": _BASE | {"transfer", "_edgegraph"},
    "equilibrium": _BASE | {"transfer", "_edgegraph"},
    "maximize": _BASE | {"ergopt", "_edgegraph", "maxplus", "fractions"},
    "path": _RAY,
    "check": _RAY,
    "solve-entropy": _EVERYTHING,
    "solve-pressure": _EVERYTHING,
}
FIRST_RECORDING = {}
for _case in RECORDED:
    FIRST_RECORDING.setdefault(_case["argv"][0], _case["argv"])

LOAD_PROBE = """
import contextlib, io, json, sys
from thermoshift import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def child_report(code, *args):
    """The JSON that a child interpreter running ``code`` prints last."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", sorted(MAY_LOAD))
def test_a_command_loads_only_the_layers_it_runs(command):
    argv = FIRST_RECORDING[command]
    code, modules = child_report(LOAD_PROBE, command, str(DATA / argv[1]), *argv[2:])
    assert code == 0
    ours = {m.split(".", 1)[1] for m in modules if m.startswith("thermoshift.")}
    ours |= {"fractions"} & set(modules)
    assert ours <= MAY_LOAD[command], sorted(ours - MAY_LOAD[command])
    assert "cli" in ours and "_perron" in ours


NAMESPACE_PROBE = """
import json, pkgutil, sys
import thermoshift as ts
first = sorted(m for m in sys.modules if m.startswith("thermoshift"))
names = [m.name for m in pkgutil.iter_modules(ts.__path__) if m.name != "__main__"]
unbound = [m for m in names if getattr(ts, m) is not sys.modules["thermoshift." + m]]
modules = [getattr(ts, m) for m in names]
unresolved = [name for name in ts.__all__ if name not in names
              and not any(getattr(m, name, None) is getattr(ts, name) for m in modules)]
unlisted = sorted(set(ts.__all__) - set(dir(ts)))
print(json.dumps([first, names, unbound, unresolved, unlisted]))
"""


def test_import_loads_only_errors_and_every_name_resolves():
    first, submodules, unbound, unresolved, unlisted = child_report(NAMESPACE_PROBE)
    assert first == ["thermoshift", "thermoshift.errors"]
    assert {"cli", "paths", "sft", "transfer", "_perron"} <= set(submodules)
    assert unbound == []  # every submodule resolves as an attribute
    assert unresolved == []  # every name in __all__ is its module's object
    assert unlisted == []  # dir() lists __all__
