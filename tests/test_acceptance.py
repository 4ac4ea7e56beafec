"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; the expected values come from closed
forms or from the independent oracles in ``oracles.py``.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import thermoshift as ts
from thermoshift.cli import CSV_HEADER

import oracles

LN2 = math.log(2)


def report(number, label):
    print(f"[criterion {number:2d}] {label}: PASS")


def ray(sft, phi, t):
    return ts.combine(ts.zero_potential(sft), phi, t)


def test_criterion_1_closed_form_pressure():
    start = time.perf_counter()
    full2 = ts.full_shift(2)
    for c in (-2.0, -1.0, 1.0):
        phi = ts.Potential(full2, 1, {(0,): 0.0, (1,): c})
        for t in (0.0, 0.5, 1.0, 5.0, 50.0, 500.0):
            value = ts.pressure(full2, ray(full2, phi, t)).value
            expected = float(np.logaddexp(0.0, t * c))
            assert abs(value - expected) <= 1e-10, (c, t, value, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"closed-form pressure to 1e-10 incl. t=500 ({elapsed:.2f}s)")


def test_criterion_2_variational_principle():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = oracles.random_primitive_transitions(rng, max_alphabet=6)
        sft = ts.build_sft(len(m), m)
        memory = int(rng.integers(1, 4))
        phi = ts.Potential(sft, memory, oracles.random_values(rng, m, memory))
        result, mu = ts.pressure_and_equilibrium(sft, phi)
        gap = abs(result.value - (mu.entropy + ts.integrate(mu, phi)))
        assert gap <= 1e-9, gap
        order = max(memory - 1, 1)
        for _ in range(20):
            _, kernel, pi = oracles.random_stochastic_kernel(rng, m, order)
            nu = ts.MarkovMeasure(sft, order, pi, kernel)
            assert nu.entropy + ts.integrate(nu, phi) <= result.value + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(2, f"variational identity + dominance on 100 instances ({elapsed:.1f}s)")


def test_criterion_3_lipschitz_pressure():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = oracles.random_primitive_transitions(rng, max_alphabet=6)
        sft = ts.build_sft(len(m), m)
        k_phi = int(rng.integers(1, 4))
        k_psi = int(rng.integers(1, 4))
        phi = ts.Potential(sft, k_phi, oracles.random_values(rng, m, k_phi))
        psi = ts.Potential(sft, k_psi, oracles.random_values(rng, m, k_psi))
        gap = abs(ts.pressure(sft, phi).value - ts.pressure(sft, psi).value)
        bound = ts.sup_norm(ts.combine(phi, psi, -1.0))
        assert gap <= bound + 1e-12
    report(3, "pressure is 1-Lipschitz on 100 random pairs")


def test_criterion_4_zero_temperature():
    t_list = [1.0, 10.0, 100.0, 1000.0]
    for sft in (ts.full_shift(2), ts.golden_mean_shift()):
        phi = ts.fixed_point_potential(sft, 0)
        rows = ts.zero_temperature_diagnostics(sft, phi, t_list)
        h_top = ts.topological_entropy(sft)
        defects = [row.defect for row in rows]
        # strictly positive where floats can represent the defect; the
        # t=1000 value (~e^-2000) underflows to exactly 0.0
        assert all(d > 0.0 for d in defects[:3])
        assert defects[3] >= 0.0
        assert all(b <= a for a, b in zip(defects, defects[1:]))
        for row in rows:
            assert row.defect <= h_top / row.t
        assert rows[-1].entropy <= 1e-3
    report(4, "cooling defects positive, non-increasing, <= h(f)/t; h(1000) <= 1e-3")


def test_criterion_5_karp_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = oracles.random_primitive_transitions(rng, max_alphabet=8)
        sft = ts.build_sft(len(m), m)
        phi = ts.Potential(sft, 2, oracles.random_values(rng, m, 2))
        beta = ts.max_ergodic_average(sft, phi).beta
        states, _, edges = oracles.dense_edge_table(m, 2, phi.values)
        oracle = oracles.max_cycle_mean_enumeration(len(states), edges)
        assert beta == float(oracle)
    report(5, "max_ergodic_average equals exhaustive cycle enumeration exactly on 50 graphs")


def test_criterion_6_intermediate_entropy():
    start = time.perf_counter()
    full2 = ts.full_shift(2)
    targets = [k * LN2 / 10 for k in range(1, 10)]

    # ground-state ray with the Bernoulli closed form (memory 1)
    bernoulli = ts.Potential(full2, 1, {(0,): 0.0, (1,): -1.0})
    for a in targets:
        rep = ts.solve_intermediate_entropy(full2, bernoulli, a)
        assert rep.residual <= 1e-8
        assert abs(rep.t_found - oracles.bernoulli_ray_parameter(a)) <= 1e-7

    # edge-pinned ground-state ray (memory 2), dense-eigensolver oracle
    pinned = ts.fixed_point_potential(full2, 0)
    for a in targets:
        rep = ts.solve_intermediate_entropy(full2, pinned, a)
        assert rep.residual <= 1e-8
        _, _, _, _, entropy = oracles.dense_gibbs(
            [[1, 1], [1, 1]], 2, dict(pinned.values), rep.t_found
        )
        assert abs(entropy - a) <= 1e-7

    golden = ts.golden_mean_shift()
    pinned_g = ts.fixed_point_potential(golden, 0)
    for a in (0.05, 0.18, 0.31, 0.44):
        rep = ts.solve_intermediate_entropy(golden, pinned_g, a)
        assert rep.residual <= 1e-8
        _, _, _, _, entropy = oracles.dense_gibbs(
            [[1, 1], [1, 0]], 2, dict(pinned_g.values), rep.t_found
        )
        assert abs(entropy - a) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(6, f"intermediate entropy: 9+9 full-shift and 4 golden targets ({elapsed:.1f}s)")


def test_criterion_7_intermediate_pressure():
    full2 = ts.full_shift(2)
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(full2, 0)
    alpha = ts.ground_state_pressure_bound(full2, psi, phi)
    assert alpha == 0.0
    top = float(np.logaddexp(0.0, 1.0))  # P(psi) = ln(1 + e)
    for target in np.linspace(0.01, top, 20):
        rep = ts.solve_intermediate_pressure(full2, psi, phi, float(target))
        assert rep.residual <= 1e-8
    report(7, "intermediate pressure: 20 targets in [0.01, ln(1+e)] to 1e-8")


def test_criterion_8_continuity_surrogates():
    cases = [
        (ts.full_shift(2), ts.fixed_point_potential(ts.full_shift(2), 0)),
        (ts.golden_mean_shift(), ts.fixed_point_potential(ts.golden_mean_shift(), 0)),
        (
            ts.full_shift(2),
            ts.Potential(ts.full_shift(2), 1, {(0,): 0.0, (1,): -1.0}),
        ),
    ]
    for sft, phi in cases:
        zero = ts.zero_potential(sft)
        coarse = ts.sweep(sft, zero, phi, np.linspace(0.0, 10.0, 81))
        fine = ts.sweep(sft, zero, phi, np.linspace(0.0, 10.0, 161))

        def max_jump(samples):
            hs = [s.entropy for s in samples]
            return max(abs(b - a) for a, b in zip(hs, hs[1:]))

        assert max_jump(coarse) / max_jump(fine) >= 2 / 1.2

        pressures = [s.pressure for s in fine]
        step = 10.0 / 160
        for i in range(1, len(pressures) - 1):
            assert (pressures[i - 1] - 2 * pressures[i] + pressures[i + 1]) / step**2 >= -1e-9
        assert ts.entropy_monotonicity_check(fine, slack=1e-9).ok
    report(8, "jump halving >= 2/1.2, convexity >= -1e-9, entropy non-increasing")


def test_criterion_9_equilibrium_continuity():
    full2 = ts.full_shift(2)
    phi = ts.fixed_point_potential(full2, 0)
    eta = ts.Potential(full2, 1, {(0,): 0.6, (1,): -0.9})
    rep = ts.equilibrium_continuity_check(full2, phi, eta, 1000)
    assert rep.n_values == (10, 100, 1000)
    d10, d100, d1000 = rep.kernel_distances
    assert d10 > d100 > d1000
    assert d1000 < 1e-3
    report(9, f"kernel distance {d1000:.2e} at n=1000, decreasing over n=10,100,1000")


def test_criterion_10_cli_contract(tmp_path):
    config = {
        "alphabet": 2,
        "transitions": [[1, 1], [1, 1]],
        "potentials": {
            "pin0": {
                "memory": 2,
                "values": {"00": 0.0, "01": -1.0, "10": -1.0, "11": -1.0},
            }
        },
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(config))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "thermoshift", *args],
            capture_output=True,
            text=True,
        )

    ok = run("entropy", str(path))
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["entropy_nats"] == pytest.approx(LN2, abs=1e-10)

    assert run("entropy", str(path), "--bogus").returncode == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet": 2, "transitions": [[1, 0], [0, 1]]}))
    assert run("entropy", str(bad)).returncode == 3

    assert (
        run("solve-entropy", str(path), "--phi", "pin0", "--target", "0.8").returncode
        == 4
    )

    csv_args = ("path", str(path), "--phi", "pin0", "--t-max", "2", "--steps", "9", "--csv")
    first = run(*csv_args)
    second = run(*csv_args)
    assert first.stdout == second.stdout and first.returncode == 0
    lines = first.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    for line in lines[1:]:
        assert len(line.split(",")) == 5
    equil_args = ("equilibrium", str(path), "--phi", "pin0")
    assert run(*equil_args).stdout == run(*equil_args).stdout
    report(10, "CLI determinism, exit codes 0/2/3/4, CSV schema")
