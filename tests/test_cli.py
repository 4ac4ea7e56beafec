import json
import math
import subprocess
import sys

import pytest

import thermoshift as ts
from thermoshift.cli import CSV_HEADER, main

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


def test_results_only_on_stdout(tmp_path):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    proc = run_cli("entropy", path)
    assert proc.stderr == ""
    json.loads(proc.stdout)
