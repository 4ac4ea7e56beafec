import math
import subprocess
import sys

import numpy as np
import pytest

import thermoshift as ts
from thermoshift import _perron

import oracles


def test_import_loads_no_scipy():
    code = "import sys, thermoshift; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_slow_plain_contraction_escalates_early():
    # Nearly periodic support at t = 10 (|lambda_2 / lambda_1| about
    # 0.9998): the plain residual shrinks too slowly to reach the
    # tolerance within the plain budget, so the lazy phase must take over
    # long before that budget is spent.
    full2 = ts.full_shift(2)
    values = {(0, 0): 0.500, (0, 1): 1.589, (1, 0): 1.103, (1, 1): -1.099}
    phi = ts.combine(ts.zero_potential(full2, 2), ts.Potential(full2, 2, values), 10.0)
    result = ts.pressure(full2, phi)
    assert result.iterations <= 300
    _, W = oracles.dense_weighted_matrix([[1, 1], [1, 1]], 2, values, 10.0)
    lam, _, _ = oracles.perron_pair(W)
    assert abs(result.value - math.log(lam)) <= 1e-12


def ray(sft, phi, t):
    return ts.combine(ts.zero_potential(sft), phi, t)


def test_low_span_nearly_periodic_support_certifies():
    # Span under 30 and a nearly periodic support with a tiny Perron root:
    # without a max-plus frame the lazy phase stalls above the noise floor.
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
    # which only the squaring ladder closes within the budgets.
    values = {(0, 0): 0.0, (0, 1): -1.0, (1, 0): -1.0, (1, 1): -detune}
    result = ts.pressure(full2, ray(full2, ts.Potential(full2, 2, values), t))
    assert abs(result.value - math.log1p(math.exp(-t))) <= 1e-13
    assert result.residual <= _perron.TOL / 2


def test_iterate_below_normal_range_is_a_typed_failure():
    # An unconditioned matrix whose Perron vector spans e^-720: the first
    # update leaves a subnormal entry, which is refused, not iterated on.
    logw = np.array([[0.0, 0.0], [-720.0, -720.0]])
    with pytest.raises(ts.errors.ConvergenceError, match="normal float range"):
        _perron.perron_stack(np.exp(logw)[None])


def test_a_stack_solves_each_slice_as_if_alone(monkeypatch):
    # Two plain slices around one that leaves the plain phase early (the
    # nearly periodic support above): each slice comes back as its lone
    # solve.  Slices whose first update leaves the normal range fail the
    # stack with the lone solve's error of the first of them, whatever
    # the slices around them do.
    values = {(0, 0): 0.500, (0, 1): 1.589, (1, 0): 1.103, (1, 1): -1.099}
    _, slow = oracles.dense_weighted_matrix([[1, 1], [1, 1]], 2, values, 10.0)
    lazy = np.log(slow) - np.log(slow).max(axis=1, keepdims=True)
    plain = np.log(np.array([[0.5, 0.25], [0.75, 1.0]]))
    unconditioned = np.array([[0.0, 0.0], [-720.0, -720.0]])
    deeper = np.array([[0.0, 0.0], [-740.0, -740.0]])
    stack = np.array([plain, lazy, plain.T])
    escalated = []
    escalate = _perron._escalate

    def recorded(e, *rest):
        escalated.append(np.array_equal(e, np.exp(lazy)))
        return escalate(e, *rest)

    monkeypatch.setattr(_perron, "_escalate", recorded)
    got = _perron.perron_stack(np.exp(stack))
    for k in range(len(stack)):
        alone = _perron.perron_stack(np.exp(stack[k])[None])
        for stacked, lone in zip(got, alone):
            assert stacked[k].tobytes() == lone[0].tobytes()
    assert escalated == [True, True]  # the lazy slice, stacked and alone

    errors = []
    for failing in (unconditioned, deeper):
        with pytest.raises(ts.errors.ConvergenceError) as alone:
            _perron.perron_stack(np.exp(failing)[None])
        errors.append(str(alone.value))
    assert errors[0] != errors[1]
    for mixed, first in (([plain, lazy, unconditioned, plain.T, deeper], 0),
                         ([plain, deeper, lazy, unconditioned], 1)):
        with pytest.raises(ts.errors.ConvergenceError) as stacked:
            _perron.perron_stack(np.exp(mixed))
        assert str(stacked.value) == errors[first]


def test_a_steady_contraction_stays_plain_past_the_stall_window(monkeypatch):
    # |lambda_2 / lambda_1| about 0.7: the residual shrinks by a steady
    # factor, so the plain phase runs to the tolerance, well past the
    # _PLAIN_STALL steps the escalation test looks back over, alone and
    # next to a slice that certifies at once.
    steady = np.log(np.array([[1.0, 0.3], [0.1, 1.0]]))
    instant = np.log(np.array([[0.5, 0.75], [0.25, 1.0]]))  # equal row sums

    def no_escalation(*args):
        raise AssertionError("a steadily contracting slice left the plain phase")

    monkeypatch.setattr(_perron, "_escalate", no_escalation)
    iterations = _perron.perron_stack(np.exp(steady)[None])[3][0]
    assert iterations > 2 * _perron._PLAIN_STALL
    stacked = _perron.perron_stack(np.exp([instant, steady, steady.T]))[3]
    assert stacked[1] == iterations and stacked[0] == 1


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
    # one; the right-only solve runs one Bellman pass and one Perron slice
    # per row, and every field it returns is the two-sided solve's.
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
            both = _perron.solve_stack(n, src, dst, w)
            del walks[:], slices[:]
            right = _perron.solve_stack(n, src, dst, w, left=False)
            assert (len(walks), slices) == (1 if w.any() else 0, [len(w)])
            assert right.value.tobytes() == both.value.tobytes(), n
            for name in ("maxplus_right", "frame_w", "frame_right"):
                assert getattr(right, name).tobytes() == getattr(both, name).tobytes(), name
            assert right.residuals.tobytes() == both.residuals[0::2].tobytes()
            assert right.iterations.tobytes() == both.iterations[0::2].tobytes()
            assert right.frame_left is None
