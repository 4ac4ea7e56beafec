import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import thermoshift as ts
from thermoshift import _perron, transfer
from thermoshift._edgegraph import edge_weights, graph_order

import oracles
from test_corpus import census, corpus


def test_import_loads_no_scipy():
    code = "import sys, thermoshift; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def recorded_squarings(monkeypatch, iterates=None):
    """Record the slices that each call of `_squared_steps` squares, and
    the squared iterates it returns into the list ``iterates`` if given."""
    squared = []
    squared_steps = _perron._squared_steps

    def recorded(stack, rows, x):
        squared.append(rows.tolist())
        z = squared_steps(stack, rows, x)
        if iterates is not None:
            iterates.append(z.copy())
        return z

    monkeypatch.setattr(_perron, "_squared_steps", recorded)
    return squared


def test_slow_plain_contraction_escalates_early(monkeypatch):
    # Nearly periodic support at t = 10 (|lambda_2 / lambda_1| about
    # 0.9998): the squarings after step 1 leave it far from the tolerance
    # and the plain residual shrinks too slowly to reach it within the
    # budget, so Noda's phase must take over at the probe step, long
    # before the stall window ends.
    full2 = ts.full_shift(2)
    values = {(0, 0): 0.500, (0, 1): 1.589, (1, 0): 1.103, (1, 1): -1.099}
    phi = ts.combine(ts.zero_potential(full2, 2), ts.Potential(full2, 2, values), 10.0)
    squared = recorded_squarings(monkeypatch)
    solve = transfer._solve_potential(full2, phi)
    assert squared == [[0, 1]]  # both sides were squared after step 1
    assert solve.noda.all()  # and both still certify in Noda's phase
    assert solve.iterations.max() <= 20
    result = ts.pressure(full2, phi)
    _, W = oracles.dense_weighted_matrix([[1, 1], [1, 1]], 2, values, 10.0)
    lam, _, _ = oracles.perron_pair(W)
    assert abs(result.value - math.log(lam)) <= 1e-12


@pytest.mark.parametrize("k, memory, with_psi", [(3, 2, False), (3, 3, False), (4, 2, True)])
def test_moderate_temperature_slices_certify_in_few_steps(monkeypatch, k, memory, with_psi):
    # N(0, 1) potentials at t = 8 on which plain power iteration alone
    # took 995 to 1,931 steps a side: the probe hands them to Noda's
    # phase, which certifies within a few steps of it.
    sft = ts.full_shift(k)
    rng = np.random.default_rng(1000 * k + memory)
    blocks = ts.admissible_blocks(sft, memory)
    phi_values = dict(zip(blocks, rng.normal(size=len(blocks)).tolist()))
    psi_values = dict.fromkeys(ts.admissible_blocks(sft, 1), 0.0)
    if with_psi:
        psi_values = dict(zip(psi_values, rng.normal(size=len(psi_values)).tolist()))
    phi, psi = ts.Potential(sft, memory, phi_values), ts.Potential(sft, 1, psi_values)
    iterations = []
    perron_stack = _perron.perron_stack

    def recorded(e):
        out = perron_stack(e)
        iterations.extend(out[3].tolist())
        return out

    monkeypatch.setattr(_perron, "perron_stack", recorded)
    sample = ts.sample_at(sft, psi, phi, 8.0)
    assert max(iterations) <= 20, iterations
    combined = {b: psi_values[b[:1]] + 8.0 * v for b, v in phi_values.items()}
    _, W = oracles.dense_weighted_matrix(np.ones((k, k), dtype=int), memory, combined)
    lam, _, _ = oracles.perron_pair(W)
    assert abs(sample.pressure - math.log(lam)) <= 1e-12


def test_noda_batches_equal_one_batch_bit_for_bit(monkeypatch):
    # The full_shift(3) memory-2 potential above at t = 7, 8 and 9: all six
    # slices switch to Noda's phase together, and solved one slice per
    # batch they certify as in one batch, bit for bit.
    sft = ts.full_shift(3)
    rng = np.random.default_rng(3002)
    blocks = ts.admissible_blocks(sft, 2)
    phi = ts.Potential(sft, 2, dict(zip(blocks, rng.normal(size=len(blocks)).tolist())))
    states, src, dst = ts.sft.block_graph(sft, 1)
    w = np.array([7.0, 8.0, 9.0])[:, None] * edge_weights(phi, 1)
    whole = _perron.solve_stack(len(states), src, dst, w)
    assert whole.noda.all()
    batches = []
    noda_steps = _perron._noda_steps

    def recorded(stack, rows, x, ratio):
        batches.append(rows.size)
        return noda_steps(stack, rows, x, ratio)

    monkeypatch.setattr(_perron, "_noda_steps", recorded)
    monkeypatch.setattr(_perron, "_NODA_FLOATS", len(states) ** 2)
    split = _perron.solve_stack(len(states), src, dst, w)
    assert max(batches) == 6 and 1 in batches
    for name in ("value", "frame_right", "frame_left", "residuals", "iterations", "noda"):
        assert getattr(split, name).tobytes() == getattr(whole, name).tobytes(), name


def test_weights_near_the_float_limit():
    # Karp's walk sums of 1e307 * U(-1, 1) on 32 states pass the float
    # range: the exact analysis proposes its cycle on the weights scaled by
    # a power of two, and the eigensolve refuses the frame it cannot form,
    # with no warning on either route.
    full2 = ts.full_shift(2)
    blocks = ts.admissible_blocks(full2, 6)
    rng = np.random.default_rng(1)
    values = 1e307 * rng.uniform(-1.0, 1.0, size=len(blocks))
    phi = ts.Potential(full2, 6, dict(zip(blocks, values.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(ts.max_ergodic_average(full2, phi).beta) == 5.424063711574001e306
        with pytest.raises(ts.errors.ValidationError, match="max-plus frame is not finite"):
            ts.pressure(full2, phi)


@pytest.mark.parametrize("memory, scale", [(6, 1e306), (7, 1e307)], ids=["karp-32", "howard-64"])
def test_a_frame_that_lost_its_precision_is_refused(memory, scale):
    # The walk sums of these values stay finite (Karp's levels on 32
    # states, Howard's policy sums on 64), but their rounding leaves
    # conjugated weights far outside the range of exp: the row is refused
    # before any exp, with no warning.
    full2 = ts.full_shift(2)
    blocks = ts.admissible_blocks(full2, memory)
    values = scale * np.random.default_rng(1).uniform(-1.0, 1.0, size=len(blocks))
    phi = ts.Potential(full2, memory, dict(zip(blocks, values.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ts.errors.ValidationError, match="max-plus frame lost its precision"):
            ts.pressure(full2, phi)


@pytest.mark.parametrize("memory", [6, 7], ids=["karp-32", "howard-64"])
def test_a_product_that_underflows_is_refused_without_a_warning(memory):
    # 1e18 * U(-1, 1) values pass the frame's refusal, but the frame has
    # lost so much precision that a product of the Perron iteration
    # underflows to 0: its log is -inf without a warning, and the iterate
    # that holds the 0 is refused as out of the normal range.
    full2 = ts.full_shift(2)
    blocks = ts.admissible_blocks(full2, memory)
    values = 1e18 * np.random.default_rng(1).uniform(-1.0, 1.0, size=len(blocks))
    phi = ts.Potential(full2, memory, dict(zip(blocks, values.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ts.errors.ConvergenceError, match="left the normal float range"):
            ts.pressure(full2, phi)


def test_each_refusal_names_its_cause():
    # Vertex 0 leaves by the first two edges, vertex 1 by the third.
    conj = np.array([
        [0.0, -1.0, 0.0],  # a frame
        [0.0, -1.0, 710.0],  # exp overflows
        [0.0, 0.0, -709.0],  # no edge out of vertex 1 in the normal range
        [0.0, np.nan, 0.0],  # not finite
    ])
    assert _perron._refused(2, np.array([0, 0, 1]), conj).tolist() == [0, 1, 1, 2]


def test_one_refusal_pass_over_both_sides_keeps_each_sides_verdict():
    # As in solve_stack: a row's left weights leave the heads of its
    # edges, as the tails of a second copy of the vertices.  Every pair of
    # the rows above, on either side, reads the worse of the two verdicts.
    src, dst = np.array([0, 0, 1]), np.array([0, 1, 0])
    conj = np.array([[0.0, -1.0, 0.0], [0.0, -1.0, 710.0], [0.0, 0.0, -709.0], [0.0, np.nan, 0.0]])
    right, left = np.repeat(conj, 4, axis=0), np.tile(conj, (4, 1))
    both = _perron._refused(4, np.concatenate((src, dst + 2)), np.concatenate((right, left), axis=1))
    each = np.maximum(_perron._refused(2, src, right), _perron._refused(2, dst, left))
    assert both.tolist() == each.tolist()
    assert sorted(set(both.tolist())) == [0, 1, 2]


def test_a_frame_refused_in_a_stack_is_the_error_of_its_row(monkeypatch):
    # A row whose frame overflows is refused before any Perron step, so
    # its error comes out even where an earlier row would fail to converge.
    states, src, dst = ts.sft.block_graph(ts.full_shift(2), 5)
    rng = np.random.default_rng(1)
    huge = 1e307 * rng.uniform(-1.0, 1.0, size=len(src))
    fine = rng.normal(size=len(src))
    n = len(states)
    with pytest.raises(ts.errors.ValidationError, match="max-plus frame is not finite"):
        _perron.solve_stack(n, src, dst, np.array([fine, huge, fine]))

    def failing(frames):
        raise ts.errors.ConvergenceError("the first row fails")

    monkeypatch.setattr(_perron, "perron_stack", failing)
    for rows in ([fine, huge], [huge, fine]):
        with pytest.raises(ts.errors.ValidationError, match="max-plus frame is not finite"):
            _perron.solve_stack(n, src, dst, np.array(rows))


def ray(sft, phi, t):
    return ts.combine(ts.zero_potential(sft), phi, t)


def test_low_span_nearly_periodic_support_certifies():
    # Span under 30 and a nearly periodic support with a tiny Perron root:
    # without a max-plus frame the enclosure stalls above the noise floor.
    transitions = [[0, 1], [1, 1]]
    values = {(0, 1, 0): 18.62, (0, 1, 1): 5.52, (1, 0, 1): -7.36,
              (1, 1, 0): 2.86, (1, 1, 1): 0.29}
    sft = ts.build_sft(2, transitions)
    result, mu = ts.pressure_and_equilibrium(sft, ray(sft, ts.Potential(sft, 3, values), 1.0))
    _, W = oracles.dense_weighted_matrix(transitions, 3, values, 1.0)
    lam, _, _ = oracles.perron_pair(W)
    assert abs(result.value - math.log(lam)) <= 1e-12
    assert result.residual <= 1e-12


@pytest.mark.parametrize("detune", [0.0, 1e-9])
@pytest.mark.parametrize("t", [30.0, 100.0, 1000.0])
def test_near_tied_loops_certify_within_tolerance(full2, detune, t):
    # Two fixed-point loops of (nearly) equal weight joined by edges of
    # weight -t: in the frame the spectral gap is about e^-t or detune * t,
    # which plain steps cannot close within the budget; Noda's steps do.
    values = {(0, 0): 0.0, (0, 1): -1.0, (1, 0): -1.0, (1, 1): -detune}
    result = ts.pressure(full2, ray(full2, ts.Potential(full2, 2, values), t))
    assert abs(result.value - math.log1p(math.exp(-t))) <= 1e-13
    assert result.residual <= _perron.TOL / 2


@pytest.mark.parametrize("budget, accepted", [(20, False), (36, False), (42, False), (45, True)])
def test_a_budget_spent_is_accepted_only_at_the_noise_floor(full2, monkeypatch, budget, accepted):
    # The tied loops at t = 30 switch to Noda's phase at the probe and then
    # halve their spread with every step.  Without the squarings after
    # step 1 they certify at step 48; each of their steps takes the
    # enclosure and reads the budget, so a budget cut short ends them at
    # that step, at half-width 1.5e-5 (step 20), 2.3e-10 (step 36) or
    # 3.6e-12 (step 42), refused, or 4.5e-13 (step 45: within the floor).
    # The squarings start them four halvings nearer, so the budget is
    # tested without them.
    monkeypatch.setattr(_perron, "_SQUARE_STATES", 0)
    monkeypatch.setattr(_perron, "_BUDGET", budget)
    values = {(0, 0): 0.0, (0, 1): -1.0, (1, 0): -1.0, (1, 1): 0.0}
    phi = ray(full2, ts.Potential(full2, 2, values), 30.0)
    if not accepted:
        with pytest.raises(ts.errors.ConvergenceError, match=rf"stalled at half-width .*, {budget} iterations\)"):
            transfer._solve_potential(full2, phi)
        return
    solve = transfer._solve_potential(full2, phi)
    assert (solve.iterations == budget).all() and solve.noda.all()
    assert (_perron.TOL / 2 < solve.residuals).all()
    assert (solve.residuals <= _perron._NOISE_FLOOR_ACCEPT).all()


def test_a_singular_slice_fails_only_its_own_solve():
    # np.linalg.solve raises for a whole stack when one slice is singular;
    # the others still get their lone solves, bit for bit, and the
    # singular one gets nan, which sends its slice back to plain steps.
    a = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], [[4.0, 0.5], [0.25, 1.0]]])
    b = np.ones((3, 2, 1))
    got = _perron._solved(a, b)
    assert np.isnan(got[1]).all()
    for k in (0, 2):
        assert got[k].tobytes() == np.linalg.solve(a[k], b[k]).tobytes()


def test_iterate_below_normal_range_is_a_typed_failure():
    # An unconditioned matrix whose Perron vector spans e^-720: the first
    # update leaves a subnormal entry, which is refused, not iterated on.
    logw = np.array([[0.0, 0.0], [-720.0, -720.0]])
    with pytest.raises(ts.errors.ConvergenceError, match="normal float range"):
        _perron.perron_stack(np.exp(logw)[None])


def test_a_stack_solves_each_slice_as_if_alone():
    # Two plain slices around one that leaves the plain phase early (the
    # nearly periodic support above): each slice comes back as its lone
    # solve, certifying phase included.  Slices whose first update leaves
    # the normal range fail the stack with the lone solve's error of the
    # first of them, whatever the slices around them do.
    values = {(0, 0): 0.500, (0, 1): 1.589, (1, 0): 1.103, (1, 1): -1.099}
    _, slow = oracles.dense_weighted_matrix([[1, 1], [1, 1]], 2, values, 10.0)
    slow = np.log(slow) - np.log(slow).max(axis=1, keepdims=True)
    plain = np.log(np.array([[1.0, 1.0], [0.9, 1.0]]))  # |lambda_2 / lambda_1| about 0.026
    unconditioned = np.array([[0.0, 0.0], [-720.0, -720.0]])
    deeper = np.array([[0.0, 0.0], [-740.0, -740.0]])
    stack = np.array([plain, slow, plain.T])
    got = _perron.perron_stack(np.exp(stack))
    for k in range(len(stack)):
        alone = _perron.perron_stack(np.exp(stack[k])[None])
        for stacked, lone in zip(got, alone):
            assert stacked[k].tobytes() == lone[0].tobytes()
    assert got[4].tolist() == [False, True, False]  # Noda on the slow slice only

    errors = []
    for failing in (unconditioned, deeper):
        with pytest.raises(ts.errors.ConvergenceError) as alone:
            _perron.perron_stack(np.exp(failing)[None])
        errors.append(str(alone.value))
    assert errors[0] != errors[1]
    for mixed, first in (([plain, slow, unconditioned, plain.T, deeper], 0),
                         ([plain, deeper, slow, unconditioned], 1)):
        with pytest.raises(ts.errors.ConvergenceError) as stacked:
            _perron.perron_stack(np.exp(mixed))
        assert str(stacked.value) == errors[first]

    # On 16 states: a plain slice whose bare products run on beside a
    # slice in Noda's phase, and a slice that certifies at step 1.
    stack = mixed_phases()
    got = _perron.perron_stack(stack)
    for k in range(len(stack)):
        alone = _perron.perron_stack(stack[k][None])
        for stacked, lone in zip(got, alone):
            assert stacked[k].tobytes() == lone[0].tobytes()
    assert got[3][0] >= 12 and got[3][2] == 1 and got[4].tolist() == [False, True, False]


def squaring_stack(n, rng):
    """Slices of ``n`` states that step 1 does not certify but the
    squarings after it finish: contractions by 0.3, 0.6 and 0.75 a step,
    and two random dense slices whose rows peak at 1."""
    dense = rng.uniform(0.1, 1.0, (2, n, n))
    dense /= dense.max(axis=2, keepdims=True)
    return np.array([*(steady_contraction(n, rho) for rho in (0.3, 0.6, 0.75)), *dense])


def test_small_slices_that_miss_step_1_certify_at_step_4():
    # Up to 32 states, the squarings after step 1 put each slice so near
    # its Perron vector that its next check, at step 4, certifies it on a
    # true product E x, with no probe and no Noda step.  From 33 states
    # there are no squarings: the same contractions take plain steps or
    # Noda's phase.
    rng = np.random.default_rng(34)
    for n in (2, 3, 5, 8, 16, 23, 32):
        stack = squaring_stack(n, rng)
        got = _perron.perron_stack(stack)
        assert got[3].tolist() == [4] * len(stack) and not got[4].any(), n
        assert (got[2] <= _perron.TOL).all()
        assert_recertified(stack, *got)
    iterations = _perron.perron_stack(squaring_stack(33, rng))[3]
    assert (iterations > 4).all()


def test_every_small_slice_that_step_1_leaves_open_is_squared(monkeypatch):
    # An N(0, 1) potential on 16 states: every side that step 1 leaves open
    # is squared, at low temperature too, where the frame starts near its
    # Perron vector; at t = 500 the right side certifies at step 1 and only
    # the left is squared.  Each certifies by step 4, none in Noda's phase.
    squared = recorded_squarings(monkeypatch)
    full4 = ts.full_shift(4)
    blocks = ts.admissible_blocks(full4, 2)
    phi = ts.Potential(full4, 2, dict(zip(blocks, np.random.default_rng(42).normal(size=len(blocks)).tolist())))
    for t, want, steps in ((1.0, [[0, 1]], [4, 4]), (500.0, [[0]], [1, 4]), (1e4, [[0, 1]], [4, 4])):
        del squared[:]
        solve = transfer._solve_potential(full4, ray(full4, phi, t))
        assert squared == want and solve.iterations.tolist() == steps and not solve.noda.any(), t


def test_squared_slices_stacked_with_plain_and_noda_slices_equal_their_lone_solves(monkeypatch):
    # Slices that the squarings finish, beside one that they leave to 28
    # plain products, one they leave to Noda's phase and one that step 1
    # certifies, which is not squared: each comes back as its lone solve,
    # bit for bit.
    squared = recorded_squarings(monkeypatch)
    rng = np.random.default_rng(35)
    for n in (16, 32):
        stack = np.array([*squaring_stack(n, rng)[[0, 3]], steady_contraction(n, 0.83),
                          steady_contraction(n, 0.9), np.full((n, n), 0.5)])
        del squared[:]
        got = _perron.perron_stack(stack)
        assert squared == [[0, 1, 2, 3]]
        for k in range(len(stack)):
            alone = _perron.perron_stack(stack[k][None])
            for stacked, lone in zip(got, alone):
                assert stacked[k].tobytes() == lone[0].tobytes(), (n, k)
        assert got[3][:2].tolist() == [4, 4] and got[3][2] > 4 and got[3][4] == 1, n
        assert got[4].tolist() == [False, False, False, True, False], n


def test_squarings_at_the_state_cap_stay_finite(monkeypatch):
    # 32 states, the most that are squared, whose powers are not scaled
    # between squarings: a dense irregular primitive graph under the zero
    # potential (Perron root near 29, so P^128 is near 1e187, inside the
    # 2^640 bound) and the full 32-shift with N(0, 1) values at t = 1.
    # Both sides of each are squared to a finite iterate and certify at
    # step 4, each as its lone solve, bit for bit.
    rng = np.random.default_rng(37)
    m = (rng.random((32, 32)) < 0.9).astype(int)
    assert oracles.primitive_by_sequential_powers(m) and m.sum(axis=1).min() < m.sum(axis=1).max()
    dense, full32 = ts.build_sft(32, m.tolist()), ts.full_shift(32)
    blocks = ts.admissible_blocks(full32, 2)
    normal = ts.Potential(full32, 2, dict(zip(blocks, rng.normal(size=len(blocks)).tolist())))
    iterates, frames = [], []
    squared = recorded_squarings(monkeypatch, iterates)
    perron_stack = _perron.perron_stack

    def recorded(e):
        frames.append(e)
        return perron_stack(e)

    monkeypatch.setattr(_perron, "perron_stack", recorded)
    values = []
    for sft, phi in ((dense, ts.zero_potential(dense, 2)), (full32, ray(full32, normal, 1.0))):
        del squared[:], iterates[:], frames[:]
        solve = transfer._solve_potential(sft, phi)
        assert frames[0].shape == (2, 32, 32) and squared == [[0, 1]]
        assert np.isfinite(iterates[0]).all()
        assert solve.iterations.tolist() == [4, 4] and not solve.noda.any()
        got = perron_stack(frames[0])
        for k in range(2):
            alone = perron_stack(frames[0][k][None])
            for stacked, lone in zip(got, alone):
                assert stacked[k].tobytes() == lone[0].tobytes(), k
        values.append(solve.value[0])
    assert 128 * values[0] > math.log(1e185)


def test_only_an_all_zero_stack_skips_the_refusals(monkeypatch):
    # The zero frame of an all-zero stack has weights 0, which no refusal
    # can catch, so it runs none; one nonzero row sends the whole stack
    # down the general path, refusals included.
    states, src, dst = ts.sft.block_graph(ts.full_shift(2), 5)
    huge = 1e307 * np.random.default_rng(1).uniform(-1.0, 1.0, size=len(src))
    with pytest.raises(ts.errors.ValidationError, match="max-plus frame is not finite"):
        _perron.solve_stack(len(states), src, dst, np.array([np.zeros(len(src)), huge]))
    calls = []
    refused = _perron._refused

    def counted(*args):
        calls.append(args)
        return refused(*args)

    monkeypatch.setattr(_perron, "_refused", counted)
    golden = ts.golden_mean_shift()
    ts.pressure_and_equilibrium(golden, ts.zero_potential(golden))
    assert not calls
    ts.pressure_and_equilibrium(golden, ts.Potential(golden, 1, {(0,): 0.0, (1,): -1.0}))
    assert len(calls) == 1  # one pass over both sides of the general path


def test_a_squared_iterate_out_of_the_normal_range_is_dropped(monkeypatch):
    # A squared iterate that is not finite, positive and normal is not
    # taken: its slice keeps its plain update, and so runs as with no
    # squarings at all, bit for bit, while the others keep theirs.
    stack = squaring_stack(8, np.random.default_rng(36))
    squared = _perron.perron_stack(stack)
    with monkeypatch.context() as plain:
        plain.setattr(_perron, "_SQUARE_STATES", 0)
        unsquared = _perron.perron_stack(stack)
    squared_steps = _perron._squared_steps

    def spoiled(stack, rows, x):
        z = squared_steps(stack, rows, x)
        z[0, 0], z[1, 1], z[2, 2], z[3, 3] = np.nan, np.inf, 0.0, 1e-310
        return z

    monkeypatch.setattr(_perron, "_squared_steps", spoiled)
    got = _perron.perron_stack(stack)
    for k in range(len(stack)):
        want = unsquared if k < 4 else squared
        for field, expected in zip(got, want):
            assert field[k].tobytes() == expected[k].tobytes(), k


def test_a_step_1_update_out_of_the_normal_range_is_not_squared(monkeypatch):
    # The last row sums to below the smallest normal: the step-1 update
    # leaves the normal range, so the slice is not squared and is refused
    # as with no squarings at all (its squared iterate would be refused
    # with another smallest entry).
    e = np.array([[0.0, 0.5, 0.93], [0.0, 0.42, 0.65], [1.3e-308, 3.9e-309, 0.0]])[None]
    errors = []
    for states in (_perron._SQUARE_STATES, 0):
        monkeypatch.setattr(_perron, "_SQUARE_STATES", states)
        with pytest.raises(ts.errors.ConvergenceError, match="normal float range") as failed:
            _perron.perron_stack(e)
        errors.append(str(failed.value))
    assert errors[0] == errors[1]


def test_a_steady_contraction_stays_plain_past_the_stall_window():
    # diag(d)^-1 (J/4n + 3I/4) diag(d) on n = 256 states: every eigenvalue
    # but the Perron root is 3/4, so the residual shrinks by a steady
    # factor and the plain phase runs to the tolerance, well past the
    # _STALL steps the stall rule looks back over, alone and next to a
    # slice that certifies at once.  At this size the probe keeps it
    # plain, as its predicted steps cost less than Noda's solves.
    n = 256
    d = np.exp(np.linspace(0.0, -1.0, n))
    steady = (np.full((n, n), 0.25 / n) + 0.75 * np.eye(n)) * d / d[:, None]
    instant = np.full((n, n), 0.5)  # equal row sums
    iterations, noda = _perron.perron_stack(steady[None])[3:]
    assert iterations[0] > 2 * _perron._STALL and not noda[0]
    stacked = _perron.perron_stack(np.array([instant, steady, steady.T]))
    assert stacked[3][1] == iterations[0] and stacked[3][0] == 1
    assert not stacked[4].any()


def steady_contraction(n, rho):
    """``diag(d)^-1 ((1 - rho) J/n + rho I) diag(d)``: Perron root 1, every
    other eigenvalue ``rho``."""
    d = np.exp(np.linspace(0.0, -1.0, n))
    return (np.full((n, n), (1.0 - rho) / n) + rho * np.eye(n)) * d / d[:, None]


def mixed_phases():
    """Three 16-state slices that the squarings after step 1 do not
    finish: one that stays plain for 28 products, one that the probe sends
    to Noda's phase, and one of equal row sums, which step 1 certifies."""
    return np.array([steady_contraction(16, 0.83), steady_contraction(16, 0.9), np.full((16, 16), 0.5)])


def assert_recertified(e, values, log_vectors, residuals, iterations, noda, beta=0.0):
    """One product ``E x`` of each returned vector ``x`` gives bounds
    within the residual of the value less ``beta``, up to a few ulps, and
    every slice certified in the plain phase took the enclosure at step 1
    or at a multiple of the block.  Each log vector has max 0."""
    assert not log_vectors.max(axis=1).any()
    x = np.exp(log_vectors)
    d = np.log(np.matmul(e, x[:, :, None])[:, :, 0] / x)
    lam = values - beta
    ulps = 4 * np.finfo(float).eps * (len(x[0]) + np.abs(values) + np.abs(beta) + np.abs(log_vectors).max(axis=1))
    assert (d.max(axis=1) <= lam + residuals + ulps).all()
    assert (d.min(axis=1) >= lam - residuals - ulps).all()
    plain = iterations[~noda]
    assert ((plain == 1) | (plain % _perron._BLOCK == 0)).all(), plain


def test_returned_vectors_recertify():
    # A plain slice takes the enclosure only at some of its products: the
    # vector it returns must be the one whose product certified it.
    for trial, sft, phi in corpus():
        order = graph_order(phi.memory)
        states, src, dst = ts.sft.block_graph(sft, order)
        n = len(states)
        w = np.array([0.0, 1.0, 10.0])[:, None] * edge_weights(phi, order)
        solve = _perron.solve_stack(n, src, dst, w)
        beta = _perron._maxplus_frame(n, src, dst, w)[0]
        e = np.zeros((len(w), n, n))
        e[:, src, dst] = np.exp(solve.frame_w)
        assert_recertified(e, solve.value, solve.frame_right, solve.residuals[0::2],
                           solve.iterations[0::2], solve.noda[0::2], beta)
    stack = mixed_phases()
    assert_recertified(stack, *_perron.perron_stack(stack))


def test_a_tie_sent_back_from_noda_certifies():
    # The system of trial 128 of the stress corpus with values drawn from
    # {-0.5, 0, 0.25}, at t = 100 (16 states): both slices leave Noda's
    # phase on failed solves and come back; a slice sent back takes its
    # enclosure at every step, and certifies.
    sft = ts.build_sft(5, [[1, 0, 0, 1, 0], [1, 1, 1, 1, 1], [1, 1, 1, 1, 0], [0, 1, 0, 1, 1], [1, 0, 1, 0, 0]])
    tied = {"-": -0.5, "0": 0.0, "+": 0.25}
    draw = "000+-++--0++--00--+0+00-+--0--------0+-+-+-+0-0++++"
    phi = ts.Potential(sft, 3, dict(zip(ts.admissible_blocks(sft, 3), [tied[c] for c in draw])))
    phi_t = ray(sft, phi, 100.0)
    result, mu = ts.pressure_and_equilibrium(sft, phi_t)
    assert result.residual <= 1e-12
    assert abs(result.value - (mu.entropy + ts.integrate(mu, phi_t))) <= 1e-9


def test_two_loops_coupled_at_e_minus_60_stall():
    # The census's trial 58 with rounded values, at t = 10 (5 states): two
    # critical loops of mean 30, at states 0 and 3, coupled only through
    # edges of frame weight e^-60 and below.  The Perron vector sits on
    # state 3 and the frame's target is state 0; the enclosure stalls.
    phi = next(phi for trial, draw, _, phi in census() if (trial, draw) == (58, 1))
    message = "Perron enclosure stalled at half-width 1.03067e-09 (tolerance 1e-13, 2000 iterations)"
    with pytest.raises(ts.errors.ConvergenceError) as failed:
        transfer._solve_potential(phi.sft, ray(phi.sft, phi, 10.0))
    assert str(failed.value) == message


def test_a_nearly_periodic_corpus_slice_certifies_in_noda_phase():
    # Trial 1 of the corpus on its own values at t = 10 (5 states), with
    # lambda_2 about -1.00001 against lambda_1 about 1.00011: the
    # squarings after step 1 leave it far from the tolerance, and Noda's
    # phase certifies both sides at step 10.
    _, sft, phi = next(case for case in corpus() if case[0] == 1)
    solve = transfer._solve_potential(sft, ray(sft, phi, 10.0))
    assert solve.noda.tolist() == [True, True] and solve.iterations.tolist() == [10, 10]
    assert solve.residuals.tolist() == [1.1100874993535959e-16, 2.2201749987071917e-16]
    assert solve.value.tolist() == [8.968253398842355]


def test_large_graphs_switch_to_noda_only_when_they_stall():
    # A contraction by 0.97 a step needs about a thousand plain steps: at
    # n = 64 the probe switches it, while from n of about 500 Noda's solves
    # are counted as dearer than the budget, so it runs plain to the end.
    # A contraction by 0.999 would need some 30,000 plain steps; the stall
    # rule sends it to Noda's phase at any size.
    values, _, residuals, iterations, noda = _perron.perron_stack(steady_contraction(64, 0.97)[None])
    assert noda[0] and iterations[0] < 40
    values, _, residuals, iterations, noda = _perron.perron_stack(steady_contraction(512, 0.97)[None])
    assert not noda[0] and 500 < iterations[0] < _perron._BUDGET
    assert abs(values[0]) <= residuals[0] <= _perron.TOL
    values, _, residuals, iterations, noda = _perron.perron_stack(steady_contraction(512, 0.999)[None])
    assert noda[0] and _perron._STALL < iterations[0] < 2 * _perron._STALL
    assert abs(values[0]) <= residuals[0] <= _perron.TOL


def frame_graphs():
    """Strongly connected block graphs: the golden mean, full shifts on 2
    to 12 symbols and seeded random primitive systems, at orders 1 and 2."""
    systems = [ts.golden_mean_shift(), *(ts.full_shift(k) for k in range(2, 13))]
    rng = np.random.default_rng(17)
    for _ in range(8):
        m = oracles.random_primitive_transitions(rng)
        systems.append(ts.build_sft(len(m), m))
    for sft in systems:
        for order in (1, 2):
            yield ts.sft.block_graph(sft, order)


def test_all_zero_weights_take_the_closed_form_frame(monkeypatch):
    # Rows are independent in the flat layout, so a zero row stacked
    # beside a nonzero row runs Karp's levels and both Bellman passes and
    # must come out as the closed form of the zero row alone, bit for bit,
    # from +0.0 and -0.0 weights alike.
    rng = np.random.default_rng(5)
    for states, src, dst in frame_graphs():
        n, edges = len(states), len(src)
        for zero in (0.0, -0.0):
            zeros = np.full((1, edges), zero)
            closed = _perron._maxplus_frame(n, src, dst, zeros)
            assert [a.shape for a in closed] == [(1,), (1, n), (1, edges), (1, n)]
            mixed = np.concatenate([zeros, rng.normal(size=(1, edges))])
            general = _perron._maxplus_frame(n, src, dst, mixed)
            for c, g in zip(closed, general):
                assert c.tobytes() == g[:1].tobytes(), (n, zero)

    def no_pass(*args):
        raise AssertionError("an all-zero stack ran a Bellman pass")

    monkeypatch.setattr(_perron, "_longest_walks", no_pass)
    states, src, dst = ts.sft.block_graph(ts.full_shift(3), 2)
    beta, right, frame_w, left = _perron._maxplus_frame(len(states), src, dst, np.zeros((4, len(src))))
    assert beta.shape == (4,) and frame_w.shape == (4, len(src))
    assert not beta.any() and not right.any() and not frame_w.any() and not left.any()


def test_right_only_solve_equals_the_two_sided_value(monkeypatch):
    # A zero row takes the closed-form frame and random rows the general
    # one.  Every solve runs both sides: a Bellman pass for each side of a
    # nonzero stack and two Perron slices per row.  Its value, read alone
    # by the entropy and ground-state callers, is the right slices' solved
    # alone, bit for bit, so the left slices stacked beside them move no
    # value.
    rng = np.random.default_rng(23)
    systems = [ts.golden_mean_shift(), *(ts.full_shift(k) for k in range(1, 13))]
    for _ in range(60):
        m = oracles.random_primitive_transitions(rng)
        systems.append(ts.build_sft(len(m), m))
    graphs = [ts.sft.block_graph(sft, 1) for sft in systems]
    # the critical subgraph of period_two_critical_potential in
    # test_ergopt.py: one component on 0, 1, 2 that is not a simple cycle
    graphs.append(((0, 1, 2), np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1])))
    walks, slices = [], []
    longest_walks, perron_stack = _perron._longest_walks, _perron.perron_stack

    def counted_walks(*args):
        walks.append(args)
        return longest_walks(*args)

    def counted_slices(frames):
        slices.append(len(frames))
        return perron_stack(frames)

    monkeypatch.setattr(_perron, "_longest_walks", counted_walks)
    monkeypatch.setattr(_perron, "perron_stack", counted_slices)
    for states, src, dst in graphs:
        n, edges = len(states), len(src)
        for w in (np.zeros((1, edges)), rng.normal(size=(3, edges))):
            del walks[:], slices[:]
            both = _perron.solve_stack(n, src, dst, w)
            assert (len(walks), slices) == (2 if w.any() else 0, [2 * len(w)])
            assert both.frame_left.shape == (len(w), n)
            right = np.zeros((len(w), n, n))
            right[:, src, dst] = np.exp(both.frame_w)
            values, vectors, residuals, iterations, _ = perron_stack(right)
            beta = _perron._maxplus_frame(n, src, dst, w)[0]
            assert (values + beta).tobytes() == both.value.tobytes(), n
            assert vectors.tobytes() == both.frame_right.tobytes(), n
            assert residuals.tobytes() == both.residuals[0::2].tobytes()
            assert iterations.tobytes() == both.iterations[0::2].tobytes()
