import dataclasses
import math

import numpy as np
import pytest

import thermoshift as ts
from thermoshift import paths
from thermoshift.errors import (
    AsymptoteUnreachableError,
    MonotonicityError,
    NonUniqueGroundStateError,
    TargetOutOfRangeError,
    ValidationError,
)
from thermoshift.transfer import _asymptotic_variance

import oracles

LN2 = math.log(2)
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def bernoulli_entropy(t):
    q = math.exp(-t) / (1 + math.exp(-t))
    return oracles.binary_entropy(q)


# --- sweeps -----------------------------------------------------------------


def test_sweep_starts_at_maximal_entropy(full2):
    phi = ts.fixed_point_potential(full2, 0)
    [sample] = ts.sweep(full2, ts.zero_potential(full2), phi, [0.0])
    assert sample.entropy == pytest.approx(LN2, abs=1e-12)
    assert sample.pressure == pytest.approx(LN2, abs=1e-12)


def test_sweep_bernoulli_closed_form(full2):
    phi = ts.Potential(full2, 1, {(0,): 0.0, (1,): -1.0})
    grid = [0.0, 0.5, 1.0, 2.0, 4.0]
    samples = ts.sweep(full2, ts.zero_potential(full2), phi, grid)
    for sample in samples:
        assert sample.entropy == pytest.approx(bernoulli_entropy(sample.t), abs=1e-11)
        assert sample.pressure == pytest.approx(
            float(np.logaddexp(0.0, -sample.t)), abs=1e-11
        )


def test_sweep_psi_equals_phi_identity(golden, rng):
    phi = ts.Potential(golden, 2, oracles.random_values(rng, golden.transitions, 2))
    samples = ts.sweep(golden, phi, phi, [0.0, 0.5, 1.0, 2.0])
    for s in samples:
        assert s.psi_pressure == pytest.approx(
            s.pressure - s.t * s.phi_avg, abs=1e-9
        )
    assert samples[0].psi_pressure == pytest.approx(samples[0].pressure, abs=1e-12)


def test_sweep_validates_grid(full2):
    phi = ts.fixed_point_potential(full2, 0)
    psi = ts.zero_potential(full2)
    with pytest.raises(ValidationError):
        ts.sweep(full2, psi, phi, [])
    with pytest.raises(ValidationError):
        ts.sweep(full2, psi, phi, [0.0, 0.0])
    with pytest.raises(ValidationError):
        ts.sweep(full2, psi, phi, [-1.0, 1.0])


def test_sample_invariants_along_sweep(golden, rng):
    psi = ts.Potential(golden, 1, oracles.random_values(rng, golden.transitions, 1))
    phi = ts.Potential(golden, 2, oracles.random_values(rng, golden.transitions, 2))
    grid = np.linspace(0.0, 6.0, 25)
    samples = ts.sweep(golden, psi, phi, grid)
    h_top = ts.topological_entropy(golden)
    for s in samples:
        # variational identity: pressure = entropy + integral(psi + t*phi)
        _, mu = ts.pressure_and_equilibrium(golden, ts.combine(psi, phi, s.t))
        combined_avg = ts.integrate(mu, ts.combine(psi, phi, s.t))
        assert abs(s.pressure - (s.entropy + combined_avg)) <= 1e-9
        assert -1e-12 <= s.entropy <= h_top + 1e-9
    # phi averages non-decreasing, psi-pressure non-increasing,
    # pressure convex, entropy non-increasing
    avgs = [s.phi_avg for s in samples]
    assert all(b >= a - 1e-9 for a, b in zip(avgs, avgs[1:]))
    refs = [s.psi_pressure for s in samples]
    assert all(b <= a + 1e-9 for a, b in zip(refs, refs[1:]))
    pressures = [s.pressure for s in samples]
    step = grid[1] - grid[0]
    second = [
        (pressures[i - 1] - 2 * pressures[i] + pressures[i + 1]) / step**2
        for i in range(1, len(pressures) - 1)
    ]
    assert all(v >= -1e-9 for v in second)
    ts.entropy_monotonicity_check(ts.sweep(golden, ts.zero_potential(golden), phi, grid))


# --- second derivative of the pressure ---------------------------------------------


def test_phi_var_bernoulli_closed_form(full2):
    phi = ts.Potential(full2, 1, {(0,): 0.0, (1,): -1.0})
    samples = ts.sweep(full2, ts.zero_potential(full2), phi, [0.0, 0.5, 1.0, 3.0, 10.0])
    for s in samples:
        q = 1.0 / (1.0 + math.exp(s.t))
        assert abs(s.phi_var - q * (1.0 - q)) <= 1e-12


def test_phi_var_matches_finite_differences(golden, full3, rng):
    step = 1e-4
    rays = [
        (golden, ts.zero_potential(golden), ts.fixed_point_potential(golden, 0)),
        (full3, ts.Potential(full3, 1, oracles.random_values(rng, full3.transitions, 1)),
         ts.Potential(full3, 2, oracles.random_values(rng, full3.transitions, 2))),
    ]
    for sft, psi, phi in rays:
        for t in (0.0, 0.5, 1.0, 2.0, 3.0):
            lo, mid, hi = ts.sweep(sft, psi, phi, [t, t + step, t + 2 * step])
            assert abs(mid.phi_var - (hi.phi_avg - lo.phi_avg) / (2 * step)) <= 1e-6


def test_phi_var_is_never_negative(full2, golden, full3, rng):
    rays = [
        (full2, ts.constant_potential(full2, 1.3)),
        (full2, ts.fixed_point_potential(full2, 0)),
        (golden, ts.fixed_point_potential(golden, 0)),
        (full3, ts.Potential(full3, 2, oracles.random_values(rng, full3.transitions, 2))),
    ]
    for sft, phi in rays:
        samples = ts.sweep(sft, ts.zero_potential(sft), phi, np.linspace(0.0, 40.0, 41))
        # unclamped, so only round-off may take it below zero
        assert all(math.isfinite(s.phi_var) and s.phi_var >= -1e-14 for s in samples)


def test_phi_var_is_nan_on_a_reducible_kernel(full2):
    two_loops = ts.Potential(
        full2, 2, {(0, 0): 0.0, (1, 1): 0.0, (0, 1): -1.0, (1, 0): -1.0}
    )
    # two disjoint loops: I - P + 1 pi is singular
    mu = ts.MarkovMeasure(full2, 1, np.array([0.5, 0.5]), np.eye(2))
    assert math.isnan(_asymptotic_variance(mu, two_loops))
    # far out on the ray the kernel between the loops underflows, and the
    # samples still come back
    samples = ts.sweep(full2, ts.zero_potential(full2), two_loops, [1000.0, 1e6])
    for s in samples:
        assert s.entropy == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(s.phi_var) or math.isfinite(s.phi_var)


# --- monotonicity checks -------------------------------------------------------


def test_monotonicity_constant_direction(full2):
    samples = ts.sweep(
        full2,
        ts.zero_potential(full2),
        ts.constant_potential(full2, 1.3),
        [0.0, 1.0, 2.0],
    )
    report = ts.entropy_monotonicity_check(samples)
    assert report.ok
    for s in samples:
        assert s.entropy == pytest.approx(LN2, abs=1e-12)


def test_monotonicity_strictly_decreasing(full2):
    phi = ts.fixed_point_potential(full2, 0)
    samples = ts.sweep(full2, ts.zero_potential(full2), phi, np.linspace(0, 5, 11))
    report = ts.entropy_monotonicity_check(samples)
    assert report.ok
    entropies = [s.entropy for s in samples]
    assert all(b < a for a, b in zip(entropies, entropies[1:]))


def test_monotonicity_single_sample_vacuous(full2):
    phi = ts.fixed_point_potential(full2, 0)
    samples = ts.sweep(full2, ts.zero_potential(full2), phi, [1.0])
    assert ts.entropy_monotonicity_check(samples).ok


def test_monotonicity_violation_raises(full2):
    bad = [
        ts.PathSample(t=0.0, pressure=1.0, entropy=0.2, phi_avg=0.0, psi_pressure=0.2),
        ts.PathSample(t=1.0, pressure=1.0, entropy=0.4, phi_avg=0.0, psi_pressure=0.4),
    ]
    with pytest.raises(MonotonicityError):
        ts.entropy_monotonicity_check(bad)


# --- intermediate entropy ----------------------------------------------------------


def test_solve_entropy_at_topological_entropy(full2):
    phi = ts.fixed_point_potential(full2, 0)
    report = ts.solve_intermediate_entropy(full2, phi, LN2)
    assert report.t_found == 0.0
    assert report.residual <= 1e-12
    assert report.bracket == (0.0, 0.0)


def test_solve_entropy_closed_form_inversion(full2):
    phi = ts.Potential(full2, 1, {(0,): 0.0, (1,): -1.0})
    a = 0.5 * LN2
    report = ts.solve_intermediate_entropy(full2, phi, a)
    assert report.residual <= 1e-8
    t_ref = oracles.bernoulli_ray_parameter(a)
    assert abs(report.t_found - t_ref) <= 1e-7


def test_solve_entropy_golden_mean_dense_verification(golden):
    phi = ts.fixed_point_potential(golden, 0)
    report = ts.solve_intermediate_entropy(golden, phi, 0.24)
    assert report.residual <= 1e-8
    _, _, _, _, entropy = oracles.dense_gibbs(
        [[1, 1], [1, 0]], 2, dict(phi.values), report.t_found
    )
    assert abs(entropy - 0.24) <= 1e-8


def test_solve_entropy_rejects_out_of_range(full2):
    phi = ts.fixed_point_potential(full2, 0)
    with pytest.raises(TargetOutOfRangeError):
        ts.solve_intermediate_entropy(full2, phi, 0.8)
    with pytest.raises(TargetOutOfRangeError):
        ts.solve_intermediate_entropy(full2, phi, -0.1)


def test_solvers_refuse_nan_target(full2):
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(full2, 0)
    with pytest.raises(TargetOutOfRangeError):
        ts.solve_intermediate_entropy(full2, phi, math.nan)
    with pytest.raises(TargetOutOfRangeError):
        ts.solve_intermediate_pressure(full2, psi, phi, math.nan)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_solvers_refuse_bad_tol(full2, tol):
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(full2, 0)
    with pytest.raises(ValidationError, match="tol"):
        ts.solve_intermediate_entropy(full2, phi, 0.5, tol=tol)
    with pytest.raises(ValidationError, match="tol"):
        ts.solve_intermediate_pressure(full2, psi, phi, 0.5, tol=tol)


def test_solve_entropy_zero_is_asymptotic(full2):
    phi = ts.fixed_point_potential(full2, 0)
    with pytest.raises(AsymptoteUnreachableError):
        ts.solve_intermediate_entropy(full2, phi, 0.0)


def test_solve_entropy_below_ground_entropy(full2):
    # constant direction never moves the equilibrium, so every a < h(f)
    # sits at the ground entropy and is unreachable
    with pytest.raises(AsymptoteUnreachableError):
        ts.solve_intermediate_entropy(
            full2, ts.constant_potential(full2, 1.0), 0.5 * LN2
        )


def test_solve_entropy_exhaustion_errors(full2):
    unique = ts.fixed_point_potential(full2, 0)
    with pytest.raises(AsymptoteUnreachableError):
        ts.solve_intermediate_entropy(full2, unique, 0.01, t_max=1.0)
    two_loops = ts.Potential(
        full2, 2, {(0, 0): 0.0, (1, 1): 0.0, (0, 1): -1.0, (1, 0): -1.0}
    )
    with pytest.raises(NonUniqueGroundStateError):
        ts.solve_intermediate_entropy(full2, two_loops, 0.3, t_max=1.0)


def test_solve_entropy_report_invariants(golden):
    phi = ts.fixed_point_potential(golden, 0)
    report = ts.solve_intermediate_entropy(golden, phi, 0.3)
    lo, hi = report.bracket
    assert lo <= report.t_found <= hi
    entropies = {s.t: s.entropy for s in report.trace}
    assert entropies[lo] >= report.target - 1e-8
    assert entropies[hi] <= report.target + 1e-8
    # the solved measure is the equilibrium state (sandwich identity)
    combined = ts.combine(
        ts.zero_potential(golden), phi, report.t_found
    )
    result, mu = ts.pressure_and_equilibrium(golden, combined)
    assert abs(result.value - (mu.entropy + ts.integrate(mu, combined))) <= 1e-9
    assert mu.has_strongly_connected_support()


def assert_newton_solve(report, value_of, bracket, max_probes):
    assert len(report.trace) <= max_probes
    assert report.bracket == bracket
    assert report.residual <= ts.paths.SOLVER_TOL
    above = max(s.t for s in report.trace if value_of(s) >= report.target)
    below = min(s.t for s in report.trace if value_of(s) < report.target)
    assert abs(below - above) <= 1e-10 * max(1.0, below)


def golden_entropy_solve(golden):
    phi = ts.fixed_point_potential(golden, 0)
    return ts.solve_intermediate_entropy(golden, phi, 0.24)


def full3_pressure_solve(full3, rng):
    psi = ts.Potential(full3, 1, oracles.random_values(rng, full3.transitions, 1))
    phi = ts.Potential(full3, 2, oracles.random_values(rng, full3.transitions, 2))
    target = ts.sample_at(full3, psi, phi, 2.3).psi_pressure
    return ts.solve_intermediate_pressure(full3, psi, phi, target)


def test_solve_entropy_newton_probe_count(golden):
    report = golden_entropy_solve(golden)
    assert_newton_solve(report, lambda s: s.entropy, (1.0, 2.0), 12)


def test_solve_pressure_newton_probe_count(full3, rng):
    report = full3_pressure_solve(full3, rng)
    assert_newton_solve(report, lambda s: s.psi_pressure, (2.0, 4.0), 14)


def test_newton_steps_leaving_the_bracket_fall_back_to_midpoints(
    golden, full3, rng, monkeypatch
):
    # a vanishing second derivative sends every Newton step out of the
    # bracket, so only midpoints are probed
    sample_at = paths.sample_at
    monkeypatch.setattr(
        paths, "sample_at",
        lambda *args: dataclasses.replace(sample_at(*args), phi_var=1e-300),
    )
    report = golden_entropy_solve(golden)
    assert_newton_solve(report, lambda s: s.entropy, (1.0, 2.0), 45)
    assert report.iterations > 30  # one probe per halving of the bracket
    report = full3_pressure_solve(full3, rng)
    assert_newton_solve(report, lambda s: s.psi_pressure, (2.0, 4.0), 45)
    assert report.iterations > 30


# --- intermediate pressure ----------------------------------------------------------


def test_solve_pressure_endpoint(full2):
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(full2, 0)
    target = ts.pressure(full2, psi).value
    assert target == pytest.approx(float(np.logaddexp(0.0, 1.0)), abs=1e-12)
    report = ts.solve_intermediate_pressure(full2, psi, phi, target)
    assert report.t_found == 0.0
    assert report.residual <= 1e-12


def test_solve_pressure_reduces_to_entropy_at_zero_reference(full2):
    phi = ts.fixed_point_potential(full2, 0)
    zero = ts.zero_potential(full2)
    report = ts.solve_intermediate_pressure(full2, zero, phi, LN2)
    assert report.t_found == 0.0
    a = 0.4
    by_pressure = ts.solve_intermediate_pressure(full2, zero, phi, a)
    by_entropy = ts.solve_intermediate_entropy(full2, phi, a)
    assert by_pressure.t_found == pytest.approx(by_entropy.t_found, abs=1e-7)


def test_solve_pressure_interior_targets(full2):
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(full2, 0)
    top = ts.pressure(full2, psi).value
    for target in np.linspace(0.05, top, 7):
        report = ts.solve_intermediate_pressure(full2, psi, phi, float(target))
        assert report.residual <= 1e-8
        sample = ts.sample_at(full2, psi, phi, report.t_found)
        assert sample.psi_pressure == pytest.approx(float(target), abs=2e-8)


def test_solve_pressure_alpha_is_asymptotic(full2):
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(full2, 0)
    assert ts.ground_state_pressure_bound(full2, psi, phi) == 0.0
    with pytest.raises(AsymptoteUnreachableError) as excinfo:
        ts.solve_intermediate_pressure(full2, psi, phi, 0.0, t_max=256.0)
    trace = excinfo.value.trace
    values = [s.psi_pressure for s in trace]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] <= 1e-3  # approaching the point-mass limit


def test_solve_pressure_out_of_range(full2):
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(full2, 0)
    top = ts.pressure(full2, psi).value
    with pytest.raises(TargetOutOfRangeError):
        ts.solve_intermediate_pressure(full2, psi, phi, top + 0.1)
    with pytest.raises(TargetOutOfRangeError):
        ts.solve_intermediate_pressure(full2, psi, phi, -0.5)


# --- grid continuity --------------------------------------------------------------


def test_halving_the_step_halves_entropy_jumps(full2, golden):
    cases = [
        (full2, ts.fixed_point_potential(full2, 0)),
        (golden, ts.fixed_point_potential(golden, 0)),
        (full2, ts.Potential(full2, 1, {(0,): 0.0, (1,): -1.0})),
    ]
    for sft, phi in cases:
        zero = ts.zero_potential(sft)
        coarse = ts.sweep(sft, zero, phi, np.linspace(0.0, 10.0, 81))
        fine = ts.sweep(sft, zero, phi, np.linspace(0.0, 10.0, 161))

        def max_jump(samples):
            hs = [s.entropy for s in samples]
            return max(abs(b - a) for a, b in zip(hs, hs[1:]))

        assert max_jump(coarse) / max_jump(fine) >= 2 / 1.2


# --- equilibrium continuity --------------------------------------------------------


def test_continuity_zero_perturbation(full2):
    phi = ts.fixed_point_potential(full2, 0)
    report = ts.equilibrium_continuity_check(
        full2, phi, ts.zero_potential(full2), 100
    )
    assert all(d == 0.0 for d in report.kernel_distances)
    assert all(d == 0.0 for d in report.stationary_distances)


def test_continuity_constant_perturbation(full2):
    phi = ts.fixed_point_potential(full2, 0)
    report = ts.equilibrium_continuity_check(
        full2, phi, ts.constant_potential(full2, 5.0), 100
    )
    assert all(d <= 1e-12 for d in report.kernel_distances)


def test_continuity_random_perturbation(full2, rng):
    phi = ts.fixed_point_potential(full2, 0)
    eta = ts.Potential(full2, 1, oracles.random_values(rng, full2.transitions, 1, 1.0))
    report = ts.equilibrium_continuity_check(full2, phi, eta, 1000, final_tol=1e-3)
    assert report.n_values == (10, 100, 1000)
    ds = report.kernel_distances
    assert ds[0] > ds[1] > ds[2]
    assert ds[2] <= 1e-3
    assert all(g <= 1e-9 for g in report.identity_gaps)


def test_continuity_final_threshold_enforced(full2, rng):
    from thermoshift.errors import CheckFailedError

    phi = ts.fixed_point_potential(full2, 0)
    eta = ts.Potential(full2, 1, oracles.random_values(rng, full2.transitions, 1, 1.0))
    with pytest.raises(CheckFailedError):
        ts.equilibrium_continuity_check(full2, phi, eta, 100, final_tol=1e-12)


def test_continuity_requires_n_max(full2):
    phi = ts.fixed_point_potential(full2, 0)
    with pytest.raises(ValidationError):
        ts.equilibrium_continuity_check(full2, phi, ts.zero_potential(full2), 1)
