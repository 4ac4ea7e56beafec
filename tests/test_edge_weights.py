"""Cached edge weights, the ray route built on them, and the pins that
show the route keeps every bit of the ``combine`` route it replaced."""

import json
import math
import pathlib
import platform
import sys

import numpy as np
import pytest

import thermoshift as ts
from thermoshift import _edgegraph, _perron, ergopt, paths, potentials, transfer
from thermoshift._edgegraph import edge_weights
from thermoshift.cli import main
from thermoshift.errors import ValidationError

import oracles

RAY_TEMPERATURES = (0.0, 0.5, 1.0, 10.0, 1e4)


def bits(*values):
    """Exact float identity, ``nan`` equal to ``nan``."""
    return tuple(float(v).hex() for v in values)


def random_potential(rng, sft, transitions, memory):
    words = oracles.admissible_words(transitions, memory)
    return ts.Potential(sft, memory, dict(zip(words, rng.normal(size=len(words)).tolist())))


def dense_logw(sft, phi, order):
    """The potential's dense edge table, one admissible word at a time."""
    states = ts.admissible_blocks(sft, order)
    index = {b: i for i, b in enumerate(states)}
    logw = np.full((len(states), len(states)), -np.inf)
    for word in ts.admissible_blocks(sft, order + 1):
        logw[index[word[:-1]], index[word[1:]]] = phi.values[word[: phi.memory]]
    return logw


def dense_integral(mu, phi):
    """``integrate`` as computed on the dense table."""
    weight = mu.stationary[:, None] * mu.kernel
    charged = weight > 0
    logw = dense_logw(mu.sft, phi, mu.order)
    return math.fsum((weight[charged] * logw[charged]).tolist())


def dense_variance(mu, phi):
    """``oracles.asymptotic_variance`` as computed on the dense table."""
    kernel, pi = mu.kernel, mu.stationary
    f = np.where(kernel > 0, dense_logw(mu.sft, phi, mu.order), 0.0)
    weighted = kernel * f
    g = weighted.sum(axis=1)
    m = pi @ g
    try:
        h = np.linalg.solve(np.eye(len(pi)) - kernel + pi[None, :], g - m)
    except np.linalg.LinAlgError:
        return math.nan
    spread = pi @ (kernel * (f - m) ** 2).sum(axis=1)
    return float(spread + 2.0 * pi @ (weighted @ h))


def test_sample_at_matches_the_combine_route_bit_for_bit():
    rng = np.random.default_rng(9)
    for trial in range(50):
        m = oracles.random_primitive_transitions(rng, max_alphabet=5)
        sft = ts.build_sft(len(m), m)
        psi_memory, phi_memory = rng.choice([1, 2, 3], size=2, replace=False).tolist()
        psi = random_potential(rng, sft, m, psi_memory)
        phi = random_potential(rng, sft, m, phi_memory)
        swept = ts.sweep(sft, psi, phi, RAY_TEMPERATURES)
        for t, stacked in zip(RAY_TEMPERATURES, swept):
            sample = ts.sample_at(sft, psi, phi, t)
            result, mu = ts.pressure_and_equilibrium(sft, ts.combine(psi, phi, t))
            entropy = mu.entropy
            phi_avg = ts.integrate(mu, phi)
            want = (t, result.value, entropy, phi_avg,
                    entropy + ts.integrate(mu, psi), oracles.asymptotic_variance(mu, phi))
            assert sample_bits(sample) == bits(*want), (trial, t)
            assert sample_bits(stacked) == bits(*want), (trial, t)
            assert bits(phi_avg, oracles.asymptotic_variance(mu, phi)) == bits(
                dense_integral(mu, phi), dense_variance(mu, phi)
            ), (trial, t)


def sample_bits(sample):
    return bits(sample.t, sample.pressure, sample.entropy, sample.phi_avg,
                sample.psi_pressure, sample.phi_var)


def assert_sweep_is_pointwise(sft, psi, phi, grid):
    """One stacked sweep equals a sample_at call per point, bit for bit."""
    swept = [sample_bits(s) for s in ts.sweep(sft, psi, phi, grid)]
    assert swept == [sample_bits(ts.sample_at(sft, psi, phi, t)) for t in grid]


def record_phases(monkeypatch):
    """Record, for each slice of each Perron stack, whether it certified
    in Noda's phase."""
    phases = []
    perron_stack = _perron.perron_stack

    def recorded(e):
        out = perron_stack(e)
        phases.extend(out[4].tolist())
        return out

    monkeypatch.setattr(_perron, "perron_stack", recorded)
    return phases


LAZY_CASE = {(0, 0): 0.500, (0, 1): 1.589, (1, 0): 1.103, (1, 1): -1.099}
NEAR_TIED = {(0, 0): 0.0, (0, 1): -1.0, (1, 0): -1.0, (1, 1): 0.0}


@pytest.mark.parametrize("values, grid", [
    # t = 10 leaves the plain phase for Noda's (test_perron), the other
    # points certify in the plain phase
    (LAZY_CASE, (0.0, 1.0, 10.0, 12.0)),
    # t = 100 needs Noda's phase (test_perron); t = 0 certifies plain
    (NEAR_TIED, (0.0, 1.0, 30.0, 100.0)),
    # the two tied loops far out on the ray
    ({(0, 0): 0.0, (1, 1): 0.0, (0, 1): -1.0, (1, 0): -1.0}, (0.0, 1.0, 1000.0, 1e6)),
])
def test_a_sweep_with_escalating_slices_is_pointwise(full2, monkeypatch, values, grid):
    phi = ts.Potential(full2, 2, values)
    phases = record_phases(monkeypatch)
    ts.sweep(full2, ts.zero_potential(full2, 2), phi, grid)
    assert any(phases)  # some slice finished in Noda's phase
    assert not all(phases)  # and some certified in the plain one
    assert_sweep_is_pointwise(full2, ts.zero_potential(full2, 2), phi, grid)


@pytest.mark.parametrize("samples_per_chunk", [1, 3])
def test_a_sweep_across_chunks_equals_one_chunk(golden, rng, monkeypatch, samples_per_chunk):
    full2 = ts.full_shift(2)
    blocks = ts.admissible_blocks(full2, 7)
    inputs = [
        (golden, ts.Potential(golden, 1, oracles.random_values(rng, golden.transitions, 1)),
         ts.Potential(golden, 3, oracles.random_values(rng, golden.transitions, 3))),
        # 64 states, where the frame tries Howard first: the tied psi alone
        # (t = 0) falls back to Karp, and every other point certifies
        (full2, ts.Potential(full2, 7, dict(zip(blocks, rng.choice([-0.5, 0.0, 0.25], size=len(blocks)).tolist()))),
         ts.Potential(full2, 7, dict(zip(blocks, rng.normal(size=len(blocks)).tolist())))),
    ]
    grid = np.linspace(0.0, 13.0, 14)
    certified = []
    howard = _perron._howard

    def recorded(*args):
        out = howard(*args)
        certified.extend(out[0].tolist())
        return out

    monkeypatch.setattr(_perron, "_howard", recorded)
    solve_stack = transfer.solve_stack
    for sft, psi, phi in inputs:
        whole = [sample_bits(s) for s in ts.sweep(sft, psi, phi, grid)]
        n = len(ts.admissible_blocks(sft, _edgegraph.graph_order(psi.memory, phi.memory)))
        solves = []

        def counted(n, src, dst, w):
            solves.append(len(w))
            return solve_stack(n, src, dst, w)

        with monkeypatch.context() as chunked:
            chunked.setattr(transfer, "_STACK_ENTRIES", 2 * n * n * samples_per_chunk)
            chunked.setattr(transfer, "solve_stack", counted)
            assert [sample_bits(s) for s in ts.sweep(sft, psi, phi, grid)] == whole
        assert max(solves) == samples_per_chunk and sum(solves) == len(grid)
    # certified rows were stacked beside rows that fell back to Karp
    assert certified[:len(grid)] == [False] + [True] * (len(grid) - 1)


def test_a_sweep_raises_the_error_of_its_first_failing_point(golden):
    psi = ts.zero_potential(golden)
    phi = ts.Potential(golden, 1, {(0,): 0.0, (1,): 1e150})
    grid = [0.0, 1.0, 1e200, 1e300]  # t * phi overflows from the third point on
    ts.sweep(golden, psi, phi, grid[:2])
    with pytest.raises(ValidationError) as alone:
        ts.sample_at(golden, psi, phi, 1e200)
    with pytest.raises(ValidationError) as swept:
        ts.sweep(golden, psi, phi, grid)
    assert str(swept.value) == str(alone.value)
    assert "non-finite value at t = 1e+200" in str(swept.value)
    with pytest.raises(ValidationError) as diagnosed:
        ts.zero_temperature_diagnostics(golden, phi, [1.0, 2.0, 1e200, 1e300])
    assert str(diagnosed.value) == str(alone.value)


def test_a_sweep_combines_nothing_and_builds_each_edge_vector_once(golden, monkeypatch):
    def no_combine(*args):
        raise AssertionError("combine was called")

    for module in (potentials, paths, transfer, ergopt):
        monkeypatch.setattr(module, "combine", no_combine, raising=False)
    builds = []
    build = _edgegraph._build_edge_weights

    def counted(phi, order):
        builds.append((id(phi), order))
        return build(phi, order)

    monkeypatch.setattr(_edgegraph, "_build_edge_weights", counted)
    psi = ts.Potential(golden, 1, {(0,): 0.25, (1,): -0.5})
    phi = ts.Potential(golden, 3, {b: float(i) for i, b in enumerate(ts.admissible_blocks(golden, 3))})
    samples = ts.sweep(golden, psi, phi, np.linspace(0.0, 13.0, 14))
    assert len(samples) == 14
    assert sorted(builds) == sorted([(id(psi), 2), (id(phi), 2)])


def test_cached_edge_weights_are_read_only(golden):
    phi = ts.fixed_point_potential(golden, 0)
    weights = edge_weights(phi, 2)
    assert edge_weights(phi, 2) is weights
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 1.0
    _, src, dst = ts.sft.block_graph(golden, 2)
    assert weights.shape == src.shape == dst.shape


def test_edge_weights_refuse_an_order_too_short_for_the_memory(golden):
    with pytest.raises(ValueError, match="cannot carry"):
        edge_weights(ts.zero_potential(golden, 3), 1)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_a_non_finite_ray_point_is_refused(golden, t):
    phi = ts.fixed_point_potential(golden, 0)
    with pytest.raises(ValidationError, match="non-finite"):
        ts.sample_at(golden, ts.zero_potential(golden), phi, t)


def combine_route_rows(sft, phi, t_list):
    """``zero_temperature_diagnostics`` rows by way of ``combine``."""
    beta = ts.max_ergodic_average(sft, phi).beta
    h_top = ts.topological_entropy(sft)
    zero = ts.zero_potential(sft)
    rows = []
    for t in t_list:
        _, mu = ts.pressure_and_equilibrium(sft, ts.combine(zero, phi, t))
        avg = ts.integrate(mu, phi)
        rows.append(bits(t, avg, mu.entropy, beta - avg, h_top / t))
    return rows


@pytest.mark.parametrize("memory", [1, 2, 3])
@pytest.mark.parametrize("system", ["golden", "full3"])
def test_zero_temperature_rows_match_the_combine_route(system, memory, rng):
    sft = ts.golden_mean_shift() if system == "golden" else ts.full_shift(3)
    blocks = ts.admissible_blocks(sft, memory)
    phi = ts.Potential(sft, memory, dict(zip(blocks, rng.normal(size=len(blocks)).tolist())))
    t_list = [0.5, 1.0, 10.0, 100.0, 1e4]
    rows = ts.zero_temperature_diagnostics(sft, phi, t_list)
    got = [bits(r.t, r.phi_average, r.entropy, r.defect, r.bound) for r in rows]
    assert got == combine_route_rows(sft, phi, t_list)


def test_sft_equals_itself_without_comparing_matrices(monkeypatch):
    sft = ts.full_shift(4)

    def no_compare(*args):
        raise AssertionError("transition matrices were compared")

    monkeypatch.setattr(np, "array_equal", no_compare)
    assert sft == sft
    assert not sft != sft


def test_variational_identity_check_reports_the_gap(golden, monkeypatch):
    phi = ts.fixed_point_potential(golden, 0)
    report = ts.variational_identity_check(golden, phi)
    assert report.ok and 0.0 <= report.gap <= 1e-9
    monkeypatch.setattr(transfer, "_IDENTITY_TOL", -1.0)
    failed = ts.variational_identity_check(golden, phi)
    assert not failed.ok and failed.gap == report.gap


DATA = pathlib.Path(__file__).parent / "data"
RECORDED = json.loads((DATA / "cli_stdout.json").read_text())


BYTES = DATA / "bytes"


def simd_targets():
    """The SIMD targets numpy dispatches to on this host."""
    from numpy._core import _multiarray_umath as umath

    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]


def recording_environment_differs():
    """Why this host may not reproduce the recorded bytes, or ``None``.

    The last digits of a float depend on numpy's exp and log and on the
    BLAS kernels, which vary with the numpy version and the CPU; the
    in-process route comparisons above hold on any host."""
    want = json.loads((BYTES / "recorded_with.json").read_text())
    have = {"python": "%d.%d" % sys.version_info[:2], "numpy": np.__version__,
            "machine": platform.machine()}
    for key, value in have.items():
        if value != want[key]:
            return f"bytes recorded with {key} {want[key]}, running {value}"
    if simd_targets() != want["simd"]:
        return f"bytes recorded with numpy SIMD targets {want['simd']}, running {simd_targets()}"
    return None


@pytest.mark.parametrize("case", RECORDED, ids=lambda case: case["stdout"])
def test_stdout_matches_pinned_bytes(case, capsys, monkeypatch):
    # data/bytes holds the stdout of each recorded command, taken before
    # ray probes moved onto cached edge weights; pins 01, 02 and 04 to 07
    # were taken again when slow Perron slices moved to Noda's iteration,
    # pins 02, 04 to 07 and 10 when the equilibrium's stationary vector
    # lost its kernel-power polish, pins 01, 02, 04 to 07, 09 and 10
    # when plain Perron slices began to take the enclosure once per four
    # products, and pins 05 and 06 when the solvers' scan took four points
    # per octave and their closing probes became Hermite roots.
    reason = recording_environment_differs()
    if reason:
        pytest.skip(reason)
    monkeypatch.chdir(DATA)
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out.encode() == (BYTES / case["stdout"]).read_bytes()


def test_check_keeps_the_failing_identity_entry_shape(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    argv = ["check", "golden.json", "--t-max", "2", "--steps", "5"]
    assert main(argv) == 0
    want = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(transfer, "_IDENTITY_TOL", -1.0)
    assert main(argv) == 5
    got = json.loads(capsys.readouterr().out)
    identity = [c for c in want["checks"] if c["name"].startswith("variational-identity")]
    assert len(identity) == 3
    for entry in identity:
        entry["ok"] = False
    assert got["ok"] is False
    assert got["checks"] == identity + want["checks"][3:]
