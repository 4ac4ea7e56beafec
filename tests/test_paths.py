import dataclasses
import math

import numpy as np
import pytest

import thermoshift as ts
from thermoshift import paths, transfer
from thermoshift._edgegraph import edge_weights
from thermoshift.errors import (
    AsymptoteUnreachableError,
    ConvergenceError,
    MonotonicityError,
    NonUniqueGroundStateError,
    TargetOutOfRangeError,
    ThermoshiftError,
    ValidationError,
)

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


def test_sweep_validates_grid(full2, monkeypatch):
    def no_solve(*args):
        raise AssertionError("a grid point was solved")

    monkeypatch.setattr(paths, "_ray_samples", no_solve)
    phi = ts.fixed_point_potential(full2, 0)
    psi = ts.zero_potential(full2)
    with pytest.raises(ValidationError):
        ts.sweep(full2, psi, phi, [])
    with pytest.raises(ValidationError):
        ts.sweep(full2, psi, phi, [0.0, 0.0])
    with pytest.raises(ValidationError):
        ts.sweep(full2, psi, phi, [-1.0, 1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match=f"t_grid must be finite, got {bad}"):
            ts.sweep(full2, psi, phi, [0.0, 1.0, bad])


def test_a_sweep_raises_the_error_of_its_first_failing_point_across_stages(golden, monkeypatch):
    # In one chunk t = 1 fails its measure validation and the later t = 2
    # its eigensolve, which runs first: the sweep still raises what
    # sample_at raises at t = 1.
    phi = ts.Potential(golden, 1, {(0,): 1.0, (1,): 0.0})  # each row of t * phi peaks at t
    zero = ts.zero_potential(golden)
    solve_stack, validate = transfer.solve_stack, transfer._validate_measures
    stack = []

    def failing_at_2(n, src, dst, w):
        stack[:] = np.maximum.reduce(w, axis=1).tolist()
        if 2.0 in stack:
            raise ConvergenceError("the eigensolve fails at t = 2")
        return solve_stack(n, src, dst, w)

    def refusing_1(sft, order, pi, kernel):
        if 1.0 in stack:
            raise ValidationError("the measure at t = 1 is refused")
        return validate(sft, order, pi, kernel)

    monkeypatch.setattr(transfer, "solve_stack", failing_at_2)
    monkeypatch.setattr(transfer, "_validate_measures", refusing_1)
    ts.sample_at(golden, zero, phi, 0.5)
    with pytest.raises(ConvergenceError):
        ts.sample_at(golden, zero, phi, 2.0)
    with pytest.raises(ValidationError) as alone:
        ts.sample_at(golden, zero, phi, 1.0)
    with pytest.raises(ValidationError) as swept:
        ts.sweep(golden, zero, phi, [0.0, 0.5, 1.0, 2.0])
    assert str(swept.value) == str(alone.value) == "the measure at t = 1 is refused"
    with pytest.raises(ValidationError) as diagnosed:
        ts.zero_temperature_diagnostics(golden, phi, [0.5, 1.0, 2.0])
    assert str(diagnosed.value) == str(alone.value)


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


def test_a_singular_variance_system_is_nan_in_its_own_slice_only(full2):
    two_loops = ts.Potential(
        full2, 2, {(0, 0): 0.0, (1, 1): 0.0, (0, 1): -1.0, (1, 0): -1.0}
    )
    weights = edge_weights(two_loops, 1)
    pi = np.array([0.5, 0.5])
    mixing = np.array([[0.75, 0.25], [0.25, 0.75]])
    want = oracles.asymptotic_variance(ts.MarkovMeasure(full2, 1, pi, mixing), two_loops)
    assert math.isfinite(want)
    for kernels, singular in (([np.eye(2), mixing], 0), ([mixing, np.eye(2)], 1)):
        got = transfer._variances(full2, 1, np.array([pi, pi]), np.array(kernels), weights)
        assert math.isnan(got[singular])
        assert got[1 - singular].hex() == want.hex()


def test_phi_var_is_nan_on_a_reducible_kernel(full2):
    two_loops = ts.Potential(
        full2, 2, {(0, 0): 0.0, (1, 1): 0.0, (0, 1): -1.0, (1, 0): -1.0}
    )
    # two disjoint loops: I - P + 1 pi is singular
    mu = ts.MarkovMeasure(full2, 1, np.array([0.5, 0.5]), np.eye(2))
    assert math.isnan(oracles.asymptotic_variance(mu, two_loops))
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


@pytest.mark.parametrize("t_max", [math.nan, -1.0, 0.0, math.inf])
def test_solvers_refuse_bad_t_max(golden, monkeypatch, t_max):
    psi = ts.Potential(golden, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(golden, 0)
    target = 0.5 * (ts.ground_state_pressure_bound(golden, psi, phi) + ts.pressure(golden, psi).value)

    def no_probe(*args):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(paths, "_ray_samples", no_probe)
    with pytest.raises(ValidationError, match="t_max"):
        ts.solve_intermediate_entropy(golden, phi, 0.3, t_max=t_max)
    with pytest.raises(ValidationError, match="t_max"):
        ts.solve_intermediate_pressure(golden, psi, phi, target, t_max=t_max)


def test_short_scan_reports_the_target_unreached(golden):
    psi = ts.Potential(golden, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(golden, 0)
    target = 0.5 * (ts.ground_state_pressure_bound(golden, psi, phi) + ts.pressure(golden, psi).value)
    with pytest.raises(AsymptoteUnreachableError, match="scan reached t = 0.2 with entropy"):
        ts.solve_intermediate_entropy(golden, phi, 0.3, t_max=0.2)
    with pytest.raises(AsymptoteUnreachableError, match="scan reached t = 0.2 with psi-pressure"):
        ts.solve_intermediate_pressure(golden, psi, phi, target, t_max=0.2)


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
    assert_newton_solve(report, lambda s: s.entropy, (2**0.25, 2**0.5), 20)


def test_solve_pressure_newton_probe_count(full3, rng):
    report = full3_pressure_solve(full3, rng)
    assert_newton_solve(report, lambda s: s.psi_pressure, (2.0, 2**1.25), 25)


def test_newton_steps_leaving_the_bracket_fall_back_to_midpoints(
    golden, full3, rng, monkeypatch
):
    # a vanishing second derivative sends every Newton step out of the
    # bracket, and the Hermite roots of flat ends still close it; without
    # a second derivative there is neither, so only midpoints are probed
    samples = paths._ray_samples
    for phi_var, probes in ((1e-300, range(20)), (math.nan, range(31, 45))):
        with monkeypatch.context() as m:
            m.setattr(
                paths, "_ray_samples",
                lambda *args: [dataclasses.replace(s, phi_var=phi_var) for s in samples(*args)],
            )
            report = golden_entropy_solve(golden)
            assert_newton_solve(report, lambda s: s.entropy, (2**0.25, 2**0.5), 60)
            assert report.iterations in probes  # midpoints: one per halving of the bracket
            report = full3_pressure_solve(full3, rng)
            assert_newton_solve(report, lambda s: s.psi_pressure, (2.0, 2**1.25), 60)
            assert report.iterations in probes


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


def test_solve_pressure_alpha_below_the_first_scan_step(full2):
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(full2, 0)
    with pytest.raises(AsymptoteUnreachableError, match="t_max = 0.1") as excinfo:
        ts.solve_intermediate_pressure(full2, psi, phi, 0.0, t_max=0.1)
    assert excinfo.value.trace == ()


def test_solve_pressure_out_of_range(full2):
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(full2, 0)
    top = ts.pressure(full2, psi).value
    with pytest.raises(TargetOutOfRangeError):
        ts.solve_intermediate_pressure(full2, psi, phi, top + 0.1)
    with pytest.raises(TargetOutOfRangeError):
        ts.solve_intermediate_pressure(full2, psi, phi, -0.5)


# --- look-ahead scan --------------------------------------------------------------


def sample_bits(s):
    return tuple(float(x).hex() for x in (s.t, s.pressure, s.entropy, s.phi_avg,
                                          s.psi_pressure, s.phi_var))


def solve_outcome(solve):
    """Every field of the report bit for bit, or the type, message and
    trace of the error raised."""
    try:
        r = solve()
    except ThermoshiftError as exc:
        trace = getattr(exc, "trace", ())
        return type(exc), str(exc), [sample_bits(s) for s in trace]
    return (
        tuple(float(x).hex() for x in (r.target, r.t_found, r.achieved, r.residual, *r.bracket)),
        r.iterations,
        [sample_bits(s) for s in r.trace],
    )


def recorded_stacks(monkeypatch):
    """Record every stack of points the solvers evaluate."""
    stacks = []
    samples = paths._ray_samples

    def recorded(sft, psi, phi, ts_):
        stacks.append(list(ts_))
        return samples(sft, psi, phi, ts_)

    monkeypatch.setattr(paths, "_ray_samples", recorded)
    return stacks


def ray_family_solves(full2, golden, full3, rng):
    """(label, look-ahead ray, solve) for the ray families: Bernoulli and
    golden fixed-point entropy, full_shift(3) pressure, and seeded small
    random systems; among them t = 0 endpoints, scans cut short by t_max
    and the refusing scan of a target at alpha."""
    zero2, zero_g = ts.zero_potential(full2), ts.zero_potential(golden)
    bern = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    for t in (0.0, 0.7, 3.7, 9.0):
        a = bernoulli_entropy(t) if t else LN2
        yield f"bernoulli a={a}", (full2, zero2, bern), (
            lambda a=a: ts.solve_intermediate_entropy(full2, bern, a))
    yield "bernoulli short", (full2, zero2, bern), (
        lambda: ts.solve_intermediate_entropy(full2, bern, 0.1, t_max=0.3))
    pin0 = ts.fixed_point_potential(golden, 0)
    for a in (math.log(GOLDEN_RATIO), 0.45, 0.3, 0.24, 1e-3):
        yield f"golden a={a}", (golden, zero_g, pin0), (
            lambda a=a: ts.solve_intermediate_entropy(golden, pin0, a))
    psi3 = ts.Potential(full3, 1, oracles.random_values(rng, full3.transitions, 1))
    phi3 = ts.Potential(full3, 2, oracles.random_values(rng, full3.transitions, 2))
    alpha = ts.ground_state_pressure_bound(full3, psi3, phi3)
    targets = [ts.pressure(full3, psi3).value, alpha, 0.5 * (alpha + ts.pressure(full3, psi3).value)]
    targets += [ts.sample_at(full3, psi3, phi3, t).psi_pressure for t in (0.3, 2.3, 3.1, 40.0)]
    for b in targets:
        yield f"full3 b={b}", (full3, psi3, phi3), (
            lambda b=b: ts.solve_intermediate_pressure(full3, psi3, phi3, b))
    yield "full3 short", (full3, psi3, phi3), (
        lambda: ts.solve_intermediate_pressure(full3, psi3, phi3, targets[-1], t_max=5.0))
    for trial in range(8):
        m = oracles.random_primitive_transitions(rng, max_alphabet=4)
        sft = ts.build_sft(len(m), m)
        zero = ts.zero_potential(sft)
        psi = ts.Potential(sft, 1, oracles.random_values(rng, m, 1))
        phi = ts.Potential(sft, 2, oracles.random_values(rng, m, 2))
        t = float(rng.uniform(0.2, 20.0))
        a = ts.sample_at(sft, zero, phi, t).entropy
        yield f"random {trial} a={a}", (sft, zero, phi), (
            lambda sft=sft, phi=phi, a=a: ts.solve_intermediate_entropy(sft, phi, a))
        b = ts.sample_at(sft, psi, phi, t).psi_pressure
        yield f"random {trial} b={b}", (sft, psi, phi), (
            lambda sft=sft, psi=psi, phi=phi, b=b: ts.solve_intermediate_pressure(sft, psi, phi, b))


def test_the_look_ahead_leaves_no_trace_in_the_results(full2, golden, full3, rng, monkeypatch):
    cases = endpoints = 0
    for label, ray, solve in ray_family_solves(full2, golden, full3, rng):
        assert paths._look_ahead(*ray) == paths._LOOK_AHEAD == 26, label
        with monkeypatch.context() as m:
            stacks = recorded_stacks(m)
            ahead = solve_outcome(solve)
        # a target at the value at t = 0 solves the start alone
        endpoint = isinstance(ahead[0], tuple) and float.fromhex(ahead[0][1]) == 0.0
        if endpoint:
            assert stacks == [[0.0]], label
        else:
            assert max(map(len, stacks)) > 1, label
        endpoints += endpoint
        with monkeypatch.context() as m:
            m.setattr(paths, "_LOOK_AHEAD", 1)
            stacks = recorded_stacks(m)
            one_at_a_time = solve_outcome(solve)
        assert max(map(len, stacks)) == 1, label
        assert ahead == one_at_a_time, label
        cases += 1
    assert (cases, endpoints) == (34, 3)


def test_a_plateau_on_the_target_is_crossed_in_few_calls(full2, golden, full3, rng, monkeypatch):
    # The psi-pressure of "random 7 b" rounds to its target exactly from
    # t = 9.24172129228745 to at least 9.24172129828745, six widths of the
    # closing bracket: probes on the target push on by doubling steps,
    # where midpoints from the far end of the bracket took 41 calls.
    (solve,) = [solve for label, _, solve in ray_family_solves(full2, golden, full3, rng)
                if label.startswith("random 7 b=")]
    stacks = recorded_stacks(monkeypatch)
    report = solve()
    assert len(stacks) <= 20
    assert report.residual == 0.0
    assert_newton_solve(report, lambda s: s.psi_pressure, (8.0, 2**3.25), len(report.trace))


def test_the_look_ahead_is_one_above_32_block_states(full2):
    # memory m puts the ray on the 2^(m-1) blocks of length m - 1
    zero = ts.zero_potential(full2)
    assert paths._look_ahead(full2, zero, ts.zero_potential(full2, 6)) == 26
    assert paths._look_ahead(full2, ts.zero_potential(full2, 7), zero) == 1


def test_a_scan_stack_ends_past_the_root_of_the_newton_tangent(golden, monkeypatch):
    stacks = recorded_stacks(monkeypatch)
    phi = ts.fixed_point_potential(golden, 0)
    report = ts.solve_intermediate_entropy(golden, phi, 1e-9)
    scan = [0.125 * 2 ** (k / 4) for k in range(28)]
    assert report.bracket == (scan[26], scan[27])
    # the tangent at t = 8 meets the target short of the next scan point,
    # so the second stack stops there instead of running on to 2048, and
    # so does each next one
    assert stacks[:4] == [[0.0] + scan[:25], [scan[25]], [scan[26]], [scan[27]]]
    # then one point per probe, or up to three where the bracket closes
    assert {len(s) for s in stacks[4:]} == {1, 2, 3}


def test_every_solver_probe_equals_sample_at_its_point(full2, golden, full3, rng):
    cases = 0
    for label, ray, solve in ray_family_solves(full2, golden, full3, rng):
        trace = solve_outcome(solve)[2]
        at_t = [sample_bits(ts.sample_at(*ray, float.fromhex(bits[0]))) for bits in trace]
        assert trace == at_t, label
        cases += 1
    assert cases == 34


def sixty_four_state_solves(full2, rng):
    """(ray, solve) for an entropy and a pressure solve on rays of 64
    block states (memory 7), each with its target at t = 2.3."""
    psi = ts.Potential(full2, 1, oracles.random_values(rng, full2.transitions, 1))
    phi = ts.Potential(full2, 7, oracles.random_values(rng, full2.transitions, 7, scale=0.5))
    zero = ts.zero_potential(full2)
    a = ts.sample_at(full2, zero, phi, 2.3).entropy
    b = ts.sample_at(full2, psi, phi, 2.3).psi_pressure
    return [
        ((full2, zero, phi), lambda: ts.solve_intermediate_entropy(full2, phi, a)),
        ((full2, psi, phi), lambda: ts.solve_intermediate_pressure(full2, psi, phi, b)),
    ]


def test_the_stacked_route_above_32_block_states_has_the_same_outcome(full2, rng, monkeypatch):
    # the scan on 64 block states takes one point per octave, four where
    # stacks are used, so the stacked route is compared with one point at
    # a time on the same grid
    for ray, solve in sixty_four_state_solves(full2, rng):
        assert paths._look_ahead(*ray) == 1
        with monkeypatch.context() as m:
            stacks = recorded_stacks(m)
            alone = solve_outcome(solve)
        assert max(map(len, stacks)) == 1
        assert isinstance(alone[0], tuple) and float.fromhex(alone[0][-1]) == 4.0  # t = 2 * 2
        with monkeypatch.context() as m:
            m.setattr(paths, "_LOOK_AHEAD_STATES", 64)
            assert paths._look_ahead(*ray) == 26
            stacks = recorded_stacks(m)
            stacked = solve_outcome(solve)
            m.setattr(paths, "_LOOK_AHEAD", 1)
            one_at_a_time = solve_outcome(solve)
        assert max(map(len, stacks)) == 26
        assert float.fromhex(stacked[0][-1]) == 2**1.25
        assert isinstance(stacked[0], tuple) and stacked == one_at_a_time


def test_a_short_newton_step_closes_the_bracket_in_one_stack(full2, monkeypatch):
    # On the Bernoulli ray the bracket (8, 2**3.25) closes in three calls
    # after the scan: a Hermite and a Newton probe, then the Newton point
    # within a width of the root and the two points half a width on
    # either side of it, as one stack.
    phi = ts.Potential(full2, 1, {(0,): 0.0, (1,): -1.0})
    a = ts.sample_at(full2, ts.zero_potential(full2), phi, 8.6734643762763).entropy
    stacks = recorded_stacks(monkeypatch)
    report = ts.solve_intermediate_entropy(full2, phi, a)
    assert report.bracket == (8.0, 2**3.25)
    assert_newton_solve(report, lambda s: s.entropy, report.bracket, len(report.trace))
    assert [len(s) for s in stacks[:2]] == [26, 1]  # the scan
    closing = stacks[2:]
    assert len(closing) <= 3 and len(closing[-1]) == 3
    t, beyond, short = closing[-1]
    assert beyond - t == pytest.approx(t - short, rel=1e-6)
    assert abs(beyond - t) <= 1e-10 * report.t_found


def test_the_ray_family_solves_keep_their_call_budget(full2, golden, full3, rng, monkeypatch):
    calls = 0
    for label, ray, solve in ray_family_solves(full2, golden, full3, rng):
        with monkeypatch.context() as m:
            stacks = recorded_stacks(m)
            solve_outcome(solve)
        points = [t for stack in stacks for t in stack]
        assert len(points) == len(set(points)), label  # no point is solved twice
        calls += len(stacks)
    assert calls <= 150  # 140 on x86-64 with numpy 2.4; 160 without the Hermite probe


def test_the_64_state_solves_keep_their_call_budget(full2, rng, monkeypatch):
    phi = ts.Potential(full2, 7, dict(zip(
        ts.admissible_blocks(full2, 7), np.random.default_rng(7).uniform(-0.5, 0.5, size=128).tolist())))
    a = ts.sample_at(full2, ts.zero_potential(full2), phi, 2.3).entropy
    solves = [lambda: ts.solve_intermediate_entropy(full2, phi, a)]
    solves += [solve for _, solve in sixty_four_state_solves(full2, rng)]
    for solve, budget in zip(solves, (11, 11, 12)):
        with monkeypatch.context() as m:
            stacks = recorded_stacks(m)
            assert solve().residual <= ts.paths.SOLVER_TOL
        assert len(stacks) <= budget


def test_a_failing_sweep_finds_its_first_failing_point_by_halves(golden, monkeypatch):
    # the last of 1,001 points is not finite: the grid is solved again by
    # halves, each first half as a stack, not one point at a time
    phi = ts.Potential(golden, 1, {(0,): 0.0, (1,): 1e150})
    zero = ts.zero_potential(golden)
    grid = [*np.linspace(0.0, 30.0, 1000), 1e200]
    with pytest.raises(ValidationError) as alone:
        ts.sample_at(golden, zero, phi, 1e200)
    stacks = recorded_stacks(monkeypatch)
    with pytest.raises(ValidationError) as swept:
        ts.sweep(golden, zero, phi, grid)
    assert str(swept.value) == str(alone.value) == "psi + t * phi has a non-finite value at t = 1e+200"
    assert len(stacks) <= 2 * math.ceil(math.log2(1001)) + 2


@pytest.mark.parametrize("error", [ConvergenceError, ValidationError])
def test_a_stack_failing_past_the_bracket_leaves_the_report_unchanged(golden, monkeypatch, error):
    # the bracket of this solve is (2**0.75, 2); the first stack
    # [0, ..., 8] fails, as would the point 4 alone, which a scan one point
    # at a time never probes: its halves [0, ..., 2**-0.25] and
    # [1, ..., 8], then the half [1, ..., 2**1.25] of the second, are solved
    phi = ts.fixed_point_potential(golden, 0)
    solve = lambda: ts.solve_intermediate_entropy(golden, phi, 0.1)  # noqa: E731
    expected = solve_outcome(solve)
    assert expected[0][-2:] == ((2**0.75).hex(), 2.0.hex())
    failed = []
    samples = paths._ray_samples

    def failing_past_the_bracket(sft, psi, phi, ts_):
        if 4.0 in ts_:
            failed.append(ts_)
            raise error("past the bracket")
        return samples(sft, psi, phi, ts_)

    monkeypatch.setattr(paths, "_ray_samples", failing_past_the_bracket)
    assert solve_outcome(solve) == expected
    scan = [0.125 * 2 ** (k / 4) for k in range(25)]
    assert failed == [[0.0] + scan, scan[12:]]


@pytest.mark.parametrize("a, skipped", [(0.3, 1), (0.24, 2), (0.35, 1)])
def test_a_closing_stack_failing_on_a_skipped_point_leaves_the_report_unchanged(
    golden, monkeypatch, a, skipped
):
    # the closing stack [t, t + w/2, t - w/2] of the target 0.3 skips its
    # second point, which lies outside the bracket once t is probed, and
    # that of 0.24, [t, t + w/2, t - w/2, t + w, t - w], its second and
    # fourth; that of 0.35 drops its third, as the second point closes the
    # bracket
    phi = ts.fixed_point_potential(golden, 0)
    solve = lambda: ts.solve_intermediate_entropy(golden, phi, a)  # noqa: E731
    with monkeypatch.context() as m:
        stacks = recorded_stacks(m)
        expected = solve_outcome(solve)
    closing = stacks[-1]
    probed = [t.hex() in {bits[0] for bits in expected[2]} for t in closing]
    assert probed == {0.3: [1, 0, 1], 0.24: [1, 0, 1, 0, 1], 0.35: [1, 1, 0]}[a]
    assert probed.count(False) == skipped
    last_skipped = closing[max(i for i, p in enumerate(probed) if not p)]
    failed = []
    samples = paths._ray_samples

    def failing_on_the_skipped_point(sft, psi, phi, ts_):
        if last_skipped in ts_:
            failed.append(ts_)
            raise ConvergenceError("skipped point")
        return samples(sft, psi, phi, ts_)

    monkeypatch.setattr(paths, "_ray_samples", failing_on_the_skipped_point)
    assert solve_outcome(solve) == expected
    assert failed == [closing]


def test_a_failing_scan_raises_the_error_of_its_first_failing_point(golden, monkeypatch):
    samples = paths._ray_samples

    def failing_at_4(sft, psi, phi, ts_):
        if 4.0 in ts_:
            raise ConvergenceError(f"failed on {ts_}")
        return samples(sft, psi, phi, ts_)

    monkeypatch.setattr(paths, "_ray_samples", failing_at_4)
    phi = ts.fixed_point_potential(golden, 0)
    solve = lambda: ts.solve_intermediate_entropy(golden, phi, 1e-3)  # noqa: E731
    ahead = solve_outcome(solve)
    monkeypatch.setattr(paths, "_LOOK_AHEAD", 1)
    assert ahead == solve_outcome(solve) == (ConvergenceError, "failed on [4.0]", [])


def test_a_refusing_scan_raises_the_error_of_its_first_failing_point(full2, monkeypatch):
    # the scan of a target at alpha runs on to t_max in one stack; where
    # the eigensolve fails from t = 4096 on, it is solved again by halves
    # down to that point alone
    samples = paths._ray_samples

    def failing_from_4096(sft, psi, phi, ts_):
        if max(ts_) >= 4096.0:
            raise ConvergenceError(f"failed on {ts_}")
        return samples(sft, psi, phi, ts_)

    monkeypatch.setattr(paths, "_ray_samples", failing_from_4096)
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    phi = ts.fixed_point_potential(full2, 0)
    assert ts.ground_state_pressure_bound(full2, psi, phi) == 0.0
    solve = lambda: ts.solve_intermediate_pressure(full2, psi, phi, 0.0)  # noqa: E731
    stacks = recorded_stacks(monkeypatch)
    ahead = solve_outcome(solve)
    scan = [0.125 * 2**k for k in range(21)]  # one point per octave, out to t_max
    assert scan[15] == 4096.0
    assert stacks == [scan[i:j] for i, j in ((0, 21), (0, 10), (10, 21), (10, 15), (15, 21),
                                             (15, 18), (15, 16))]
    monkeypatch.setattr(paths, "_LOOK_AHEAD", 1)
    assert ahead == solve_outcome(solve) == (ConvergenceError, "failed on [4096.0]", [])


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
