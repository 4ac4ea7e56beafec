import math

import numpy as np
import pytest

import thermoshift as ts
from thermoshift import transfer
from thermoshift.errors import MismatchedSystemError, ValidationError

import oracles

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
LN2 = math.log(2)


def ray(sft, phi, t):
    return ts.combine(ts.zero_potential(sft), phi, t)


# --- pressure ------------------------------------------------------------------


def test_pressure_zero_potential_is_entropy(full2, golden):
    assert ts.pressure(full2, ts.zero_potential(full2)).value == pytest.approx(
        LN2, abs=1e-12
    )
    assert ts.pressure(golden, ts.zero_potential(golden)).value == pytest.approx(
        math.log(GOLDEN_RATIO), abs=1e-12
    )


@pytest.mark.parametrize("c", [-2.0, -1.0, 1.0])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 5.0, 50.0, 500.0])
def test_pressure_full_shift_closed_form(full2, c, t):
    phi = ts.Potential(full2, 1, {(0,): 0.0, (1,): c})
    value = ts.pressure(full2, ray(full2, phi, t)).value
    assert value == pytest.approx(float(np.logaddexp(0.0, t * c)), abs=1e-10)


def test_pressure_requires_same_system(full2, golden):
    with pytest.raises(MismatchedSystemError):
        ts.pressure(full2, ts.zero_potential(golden))


def test_single_symbol_system_degenerates_cleanly():
    one = ts.full_shift(1)
    assert ts.topological_entropy(one) == 0.0
    phi = ts.Potential(one, 1, {(0,): 1.7})
    result, mu = ts.pressure_and_equilibrium(one, phi)
    assert result.value == pytest.approx(1.7, abs=1e-14)
    assert mu.entropy == 0.0
    assert mu.kernel[0, 0] == 1.0


def test_pressure_residual_within_tolerance(rng):
    for _ in range(5):
        m = oracles.random_primitive_transitions(rng)
        sft = ts.build_sft(len(m), m)
        phi = ts.Potential(sft, 2, oracles.random_values(rng, m, 2))
        result = ts.pressure(sft, phi)
        assert result.residual <= 1e-13


def test_pressure_matches_dense_oracle(rng):
    for _ in range(15):
        m = oracles.random_primitive_transitions(rng, max_alphabet=5)
        sft = ts.build_sft(len(m), m)
        memory = int(rng.integers(1, 4))
        values = oracles.random_values(rng, m, memory, scale=1.0)
        t = float(rng.uniform(0.0, 50.0))
        mine = ts.pressure(sft, ray(sft, ts.Potential(sft, memory, values), t)).value
        _, W = oracles.dense_weighted_matrix(m, memory, values, t)
        lam, _, _ = oracles.perron_pair(W)
        assert mine == pytest.approx(math.log(lam), abs=1e-9)


def test_pressure_additive_constant(rng, golden):
    phi = ts.Potential(golden, 2, oracles.random_values(rng, golden.transitions, 2))
    res = ts.pressure(golden, phi)
    mu = ts.equilibrium_state(golden, phi)
    for c in (-3.0, 0.5, 2.0):
        shifted = ts.combine(phi, ts.constant_potential(golden, c), 1.0)
        res_c = ts.pressure(golden, shifted)
        assert res_c.value == pytest.approx(res.value + c, abs=1e-12)
        mu_c = ts.equilibrium_state(golden, shifted)
        assert np.abs(mu_c.kernel - mu.kernel).max() <= 1e-12
        assert np.abs(mu_c.stationary - mu.stationary).max() <= 1e-12


def test_pressure_log_domain_stability(full2, golden):
    potentials = [
        (full2, ts.fixed_point_potential(full2, 0)),
        (golden, ts.fixed_point_potential(golden, 0)),
        (full2, ts.Potential(full2, 1, {(0,): 0.0, (1,): -1.0})),
    ]
    for sft, phi in potentials:
        for t in (100.0, 1000.0, 10000.0):
            result = ts.pressure(sft, ray(sft, phi, t))
            assert math.isfinite(result.value)
            assert result.residual <= 1e-12


def test_pressure_low_temperature_memory_three(rng):
    # larger state space (order-2 blocks) deep in the preconditioned regime
    m = oracles.random_primitive_transitions(rng, max_alphabet=4)
    sft = ts.build_sft(len(m), m)
    phi = ts.Potential(sft, 3, oracles.random_values(rng, m, 3))
    beta = ts.max_ergodic_average(sft, phi).beta
    for t in (200.0, 2000.0):
        result, mu = ts.pressure_and_equilibrium(sft, ray(sft, phi, t))
        assert result.residual <= 1e-12
        assert abs(result.value - (mu.entropy + t * ts.integrate(mu, phi))) <= 1e-9
        assert result.value >= t * beta - 1e-9  # point-mass lower bound


def test_pressure_of_recoded_potential_agrees(golden, rng):
    # a memory-3 potential becomes edge-indexed on the 2-block recoding
    values = oracles.random_values(rng, golden.transitions, 3)
    phi = ts.Potential(golden, 3, values)
    recoded, index = ts.recode_to_edge_shift(golden, 2)
    edge_values = {}
    for b, i in index.items():
        for c, j in index.items():
            if recoded.is_edge(i, j):
                edge_values[(i, j)] = values[(b + (c[-1],))[:3]]
    edge_phi = ts.Potential(recoded, 2, edge_values)
    assert ts.pressure(recoded, edge_phi).value == pytest.approx(
        ts.pressure(golden, phi).value, abs=1e-12
    )


# --- equilibrium states ----------------------------------------------------------


def test_equilibrium_full_shift_zero_is_uniform(full2):
    mu = ts.equilibrium_state(full2, ts.zero_potential(full2))
    assert np.abs(mu.kernel - 0.5).max() <= 1e-12
    assert np.abs(mu.stationary - 0.5).max() <= 1e-12
    assert mu.entropy == pytest.approx(LN2, abs=1e-12)


@pytest.mark.parametrize("c", [-1.0, 0.5, 2.0])
def test_equilibrium_full_shift_is_bernoulli(full2, c):
    phi = ts.Potential(full2, 1, {(0,): 0.0, (1,): c})
    mu = ts.equilibrium_state(full2, phi)
    p1 = math.exp(c) / (1 + math.exp(c))
    expected = np.array([[1 - p1, p1], [1 - p1, p1]])
    assert np.abs(mu.kernel - expected).max() <= 1e-12
    assert np.abs(mu.stationary - np.array([1 - p1, p1])).max() <= 1e-12


def test_equilibrium_golden_mean_is_parry(golden):
    mu = ts.equilibrium_state(golden, ts.zero_potential(golden))
    g = GOLDEN_RATIO
    assert mu.kernel[0, 0] == pytest.approx(1 / g, abs=1e-12)
    assert mu.kernel[0, 1] == pytest.approx(1 - 1 / g, abs=1e-12)
    assert mu.kernel[1, 0] == pytest.approx(1.0, abs=1e-12)
    assert mu.stationary[0] == pytest.approx((5 + math.sqrt(5)) / 10, abs=1e-12)
    assert mu.entropy == pytest.approx(math.log(g), abs=1e-12)


def test_variational_identity_random(rng):
    for _ in range(40):
        m = oracles.random_primitive_transitions(rng)
        sft = ts.build_sft(len(m), m)
        memory = int(rng.integers(1, 4))
        phi = ts.Potential(sft, memory, oracles.random_values(rng, m, memory))
        result, mu = ts.pressure_and_equilibrium(sft, phi)
        assert abs(result.value - (mu.entropy + ts.integrate(mu, phi))) <= 1e-9


def test_dominance_of_equilibrium(rng):
    for _ in range(10):
        m = oracles.random_primitive_transitions(rng)
        sft = ts.build_sft(len(m), m)
        memory = int(rng.integers(1, 4))
        phi = ts.Potential(sft, memory, oracles.random_values(rng, m, memory))
        value = ts.pressure(sft, phi).value
        order = max(memory - 1, 1)
        for _ in range(5):
            _, kernel, pi = oracles.random_stochastic_kernel(rng, m, order)
            nu = ts.MarkovMeasure(sft, order, pi, kernel)
            assert nu.entropy + ts.integrate(nu, phi) <= value + 1e-9


# --- measure entropy and integration ---------------------------------------------


def test_measure_entropy_examples(full2):
    uniform = ts.MarkovMeasure(full2, 1, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
    assert uniform.entropy == pytest.approx(LN2, abs=1e-15)

    point = ts.MarkovMeasure(full2, 1, [1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])
    assert point.entropy == 0.0

    skew = ts.MarkovMeasure(full2, 1, [0.1, 0.9], [[0.1, 0.9], [0.1, 0.9]])
    assert skew.entropy == pytest.approx(0.32508297339144825, abs=1e-12)


def test_integrate_constant_is_normalization(golden, rng):
    phi = ts.Potential(golden, 2, oracles.random_values(rng, golden.transitions, 2))
    mu = ts.equilibrium_state(golden, phi)
    const = ts.constant_potential(golden, 0.37, memory=2)
    assert ts.integrate(mu, const) == pytest.approx(0.37, abs=1e-14)


def test_integrate_fixed_point_against_uniform(full2):
    uniform = ts.MarkovMeasure(full2, 1, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
    phi = ts.fixed_point_potential(full2, 0)
    assert ts.integrate(uniform, phi) == pytest.approx(-0.75, abs=1e-15)


def test_integrate_fixed_point_against_point_mass(full2):
    point = ts.MarkovMeasure(full2, 1, [1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])
    phi = ts.fixed_point_potential(full2, 0)
    assert ts.integrate(point, phi) == 0.0


def test_integrate_requires_same_system(full2, golden):
    point = ts.MarkovMeasure(full2, 1, [1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(MismatchedSystemError):
        ts.integrate(point, ts.zero_potential(golden))


def test_integrate_is_linear(rng, golden):
    mu = ts.equilibrium_state(golden, ts.zero_potential(golden))
    a = ts.Potential(golden, 2, oracles.random_values(rng, golden.transitions, 2))
    b = ts.Potential(golden, 2, oracles.random_values(rng, golden.transitions, 2))
    lhs = ts.integrate(mu, ts.combine(a, b, 2.5))
    assert lhs == pytest.approx(
        ts.integrate(mu, a) + 2.5 * ts.integrate(mu, b), abs=1e-13
    )


# --- lifting ----------------------------------------------------------------------


def test_lift_preserves_entropy_and_integrals(rng, golden):
    phi = ts.Potential(golden, 2, oracles.random_values(rng, golden.transitions, 2))
    mu = ts.equilibrium_state(golden, phi)
    lifted = ts.lift_markov_measure(mu, 3)
    assert lifted.order == 3
    assert lifted.entropy == pytest.approx(mu.entropy, abs=1e-12)
    assert ts.integrate(lifted, phi) == pytest.approx(ts.integrate(mu, phi), abs=1e-13)


def test_integrate_auto_lifts_higher_memory(rng, golden):
    mu = ts.equilibrium_state(golden, ts.zero_potential(golden))
    psi = ts.Potential(golden, 3, oracles.random_values(rng, golden.transitions, 3))
    by_auto = ts.integrate(mu, psi)
    by_lift = ts.integrate(ts.lift_markov_measure(mu, 2), psi)
    assert by_auto == pytest.approx(by_lift, abs=1e-13)


@pytest.mark.parametrize("order", [1, 2])
def test_lift_matches_block_by_block_oracle(order):
    rng = np.random.default_rng(20261018 + order)
    m = oracles.random_primitive_transitions(rng, max_alphabet=4)
    sft = ts.build_sft(len(m), m)
    states, kernel, pi = oracles.random_stochastic_kernel(rng, m, order)
    mu = ts.MarkovMeasure(sft, order, pi, kernel)
    index = {b: i for i, b in enumerate(states)}

    def step(a, b):  # old kernel on the transition between two windows
        return kernel[index[a], index[b]]

    top = order + 2
    lifted = ts.lift_markov_measure(mu, top)
    blocks = oracles.admissible_words(m, top)
    assert list(lifted.states) == blocks
    masses = []
    for i, b in enumerate(blocks):
        mass = pi[index[b[:order]]]
        for w in range(top - order):
            mass *= step(b[w : w + order], b[w + 1 : w + 1 + order])
        assert lifted.stationary[i] == pytest.approx(mass, rel=1e-14)
        masses.append(mass)
    for i, b in enumerate(blocks):
        for j, c in enumerate(blocks):
            if b[1:] != c[:-1]:
                assert lifted.kernel[i, j] == 0.0
                continue
            tail = (b + c[-1:])[-order - 1 :]  # the edge's last window
            assert lifted.kernel[i, j] == step(tail[:-1], tail[1:])

    # a memory-(order+2) potential needs the lift to integrate
    values = oracles.random_values(rng, m, top)
    phi = ts.Potential(sft, top, values)
    brute = math.fsum(mass * values[w] for mass, w in zip(masses, blocks))
    assert ts.integrate(mu, phi) == pytest.approx(brute, abs=1e-14)


def test_lift_cannot_lower_order(golden):
    mu = ts.equilibrium_state(golden, ts.fixed_point_potential(golden, 0))
    with pytest.raises(ValidationError):
        ts.lift_markov_measure(mu, 0)


# --- validation --------------------------------------------------------------------


def test_markov_measure_validation(full2):
    with pytest.raises(ValidationError, match="rows"):
        ts.MarkovMeasure(full2, 1, [0.5, 0.5], [[0.6, 0.5], [0.5, 0.5]])
    with pytest.raises(ValidationError, match="invariant"):
        ts.MarkovMeasure(full2, 1, [0.9, 0.1], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValidationError, match="probability"):
        ts.MarkovMeasure(full2, 1, [0.7, 0.5], [[0.5, 0.5], [0.5, 0.5]])


def test_a_stack_of_measures_raises_the_error_of_its_first_failing_slice(full2):
    # edge kernels: the full 2-shift's edges are 0->0, 0->1, 1->0, 1->1
    pi = np.full((3, 2), 0.5)
    kernel = np.full((3, 4), 0.5)
    kernel[1] = [1.5, -0.5, 0.5, 0.5]  # rows still sum to 1
    pi[2] = [0.9, 0.1]  # moved to (0.5, 0.5) by the uniform kernel
    with pytest.raises(ValidationError, match="kernel has negative entries"):
        transfer._validate_measures(full2, 1, pi, kernel)
    kernel[1] = 0.5
    with pytest.raises(ValidationError, match="not invariant"):
        transfer._validate_measures(full2, 1, pi, kernel)
    pi[2] = 0.5
    assert transfer._validate_measures(full2, 1, pi, kernel) == [math.log(2)] * 3


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_markov_measure_refuses_a_non_finite_stationary_vector(full2, bad):
    with pytest.raises(ValidationError, match="stationary vector has a non-finite entry"):
        ts.MarkovMeasure(full2, 1, np.array([bad, bad]), np.full((2, 2), 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_markov_measure_refuses_a_non_finite_kernel(full2, bad):
    with pytest.raises(ValidationError, match="kernel has a non-finite entry"):
        ts.MarkovMeasure(full2, 1, np.array([0.5, 0.5]), np.array([[0.5, 0.5], [bad, bad]]))


def test_markov_measure_rejects_forbidden_support(golden):
    with pytest.raises(ValidationError, match="support"):
        ts.MarkovMeasure(
            golden, 1, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]
        )  # golden mean forbids the 1 -> 1 transition


@pytest.mark.parametrize("stationary, kernel, message", [
    # both vectors non-finite: the stationary vector's check comes first
    ([math.nan, 0.5], [[0.5, 0.5], [math.nan, 1.0]], "stationary vector has a non-finite entry"),
    # support off the transitions (1 -> 1) and one of the checks before it
    ([0.5, 0.5], [[0.5, 0.5], [1.0, math.nan]], "kernel has a non-finite entry"),
    ([0.7, 0.5], [[0.5, 0.5], [0.5, 0.5]], "stationary vector is not a probability vector"),
    ([0.5, 0.5], [[0.5, 0.5], [1.5, -0.5]], "kernel has negative entries"),
    # the row 1 sums to 1.1 over the whole table, to 0.5 over its edge
    ([0.5, 0.5], [[0.5, 0.5], [0.5, 0.6]], r"kernel rows sum to 1 only within 0\.1$"),
    # and one of the checks after it
    ([0.9, 0.1], [[0.5, 0.5], [0.5, 0.5]], "kernel is supported outside admissible transitions"),
    # on the edges alone: negative entries before the row sums
    ([0.5, 0.5], [[1.5, -0.6], [1.0, 0.0]], "kernel has negative entries"),
])
def test_markov_measure_raises_the_first_check_a_table_fails(golden, stationary, kernel, message):
    with pytest.raises(ValidationError, match=message):
        ts.MarkovMeasure(golden, 1, stationary, kernel)


def test_markov_measure_keeps_the_dense_kernel_it_was_given_bit_for_bit(golden, rng):
    # a signed zero off the transitions is no support
    given = np.array([[0.6, 0.4], [1.0, -0.0]])
    tables = [given, oracles.random_stochastic_kernel(rng, golden.transitions, 2)[1]]
    for order, kernel in enumerate(tables, start=1):
        pi = oracles.stationary_from_kernel(kernel)
        mu = ts.MarkovMeasure(golden, order, pi, kernel)
        assert mu.kernel is not kernel and not mu.kernel.flags.writeable
        assert mu.kernel.tobytes() == kernel.tobytes()


def test_an_assembled_measure_builds_its_dense_kernel_on_first_read(rng):
    sft = ts.full_shift(3)
    phi = ts.Potential(sft, 3, oracles.random_values(rng, sft.transitions, 3))
    _, mu = ts.pressure_and_equilibrium(sft, phi)
    ts.integrate(mu, phi)
    lifted = ts.lift_markov_measure(mu, 3)
    for measure in (mu, lifted):
        assert "kernel" not in vars(measure)
        _, src, dst = ts.sft.block_graph(sft, measure.order)
        kernel = measure.kernel
        assert not kernel.flags.writeable
        scattered = np.zeros(kernel.shape)
        scattered[src, dst] = measure._edge_kernel
        assert kernel.tobytes() == scattered.tobytes()
        assert measure.kernel is kernel


def test_equilibrium_support_strongly_connected(rng):
    m = oracles.random_primitive_transitions(rng)
    sft = ts.build_sft(len(m), m)
    phi = ts.Potential(sft, 2, oracles.random_values(rng, m, 2))
    mu = ts.equilibrium_state(sft, phi)
    assert mu.has_strongly_connected_support()


def test_support_of_two_fixed_points_is_not_strongly_connected(full2):
    identity = [[1.0, 0.0], [0.0, 1.0]]
    assert not ts.MarkovMeasure(full2, 1, [0.5, 0.5], identity).has_strongly_connected_support()
    assert ts.MarkovMeasure(full2, 1, [1.0, 0.0], identity).has_strongly_connected_support()


# --- Lipschitz continuity ------------------------------------------------------------


def test_lipschitz_identical_potentials(golden):
    phi = ts.fixed_point_potential(golden, 0)
    report = ts.lipschitz_check(golden, phi, phi)
    assert report.pressure_gap == 0.0
    assert report.sup_norm_bound == 0.0


def test_lipschitz_constant_shift_is_tight(golden):
    phi = ts.fixed_point_potential(golden, 0)
    shifted = ts.combine(phi, ts.constant_potential(golden, -1.75), 1.0)
    report = ts.lipschitz_check(golden, phi, shifted)
    assert report.pressure_gap == pytest.approx(1.75, abs=1e-12)
    assert report.sup_norm_bound == pytest.approx(1.75, abs=1e-12)


def test_lipschitz_random_pairs(rng):
    for _ in range(20):
        m = oracles.random_primitive_transitions(rng)
        sft = ts.build_sft(len(m), m)
        phi = ts.Potential(sft, 2, oracles.random_values(rng, m, 2))
        psi = ts.Potential(sft, 2, oracles.random_values(rng, m, 2))
        report = ts.lipschitz_check(sft, phi, psi)
        assert report.pressure_gap <= report.sup_norm_bound + 1e-12


def test_lipschitz_rejects_mismatched(full2, golden):
    with pytest.raises(MismatchedSystemError):
        ts.lipschitz_check(full2, ts.zero_potential(full2), ts.zero_potential(golden))


# --- edge-only transcendentals -------------------------------------------------

def dense_path_graphs():
    """The golden mean, the full shifts on 2 to 12 symbols (whose dense
    rows reach 8 and more entries) and seeded random primitive systems,
    each at orders 1 and 2."""
    systems = [ts.golden_mean_shift(), *(ts.full_shift(k) for k in range(2, 13))]
    rng = np.random.default_rng(29)
    for _ in range(8):
        m = oracles.random_primitive_transitions(rng)
        systems.append(ts.build_sft(len(m), m))
    for sft in systems:
        for order in (1, 2):
            yield sft, order


def test_edge_only_exp_and_log_equal_the_dense_tables_bit_for_bit(monkeypatch):
    # Stacks over t in {0, 1, 1e4}: at 1e4 kernel entries underflow to 0,
    # so p log p meets zeros on the edges.  Stacks of weights from
    # {0, -0.5, 0.25} at t in {1, 10} add tied stationary maxima.  The
    # Perron stack is compared as handed to perron_stack with the dense
    # tables, the stationary vectors as returned with the dense rows, and
    # the edge kernels and entropies with references that sum each row
    # over its out-edges in edge order.  Those sums group terms otherwise
    # than the dense rows that the kernels were summed over before they
    # moved onto the edges: on these stacks the edge kernels differ from
    # the dense ones by at most 2.2e-16 (5.7e-16 relative) and the
    # entropies by at most 4.4e-16.
    rng = np.random.default_rng(31)
    tie_rng = np.random.default_rng(37)
    perron_stack = ts._perron.perron_stack
    tables = []

    def recorded(e):
        tables.append(e)
        return perron_stack(e)

    monkeypatch.setattr(ts._perron, "perron_stack", recorded)
    underflow = all_tied = some_tied = 0
    for sft, order in dense_path_graphs():
        states, src, dst = ts.sft.block_graph(sft, order)
        n = len(states)
        w = np.array([0.0, 1.0, 1e4])[:, None] * rng.normal(size=len(src))
        tie_values = tie_rng.choice([0.0, -0.5, 0.25], size=len(src))
        tied = np.array([1.0, 10.0])[:, None] * tie_values
        del tables[:]
        solve = ts._perron.solve_stack(n, src, dst, w)
        _, _, frame_w, left_frame = ts._perron._maxplus_frame(n, src, dst, w)
        dense = oracles.dense_perron_tables(n, src, dst, frame_w, left_frame)
        assert len(tables) == 1 and tables[0].tobytes() == dense.tobytes(), n
        starts = ts.sft.out_edge_starts(sft, order)
        for solve in (solve, ts._perron.solve_stack(n, src, dst, tied)):
            pi, kernel = transfer._equilibria(sft, order, solve)
            ln_pi = solve.frame_left + solve.frame_right
            assert pi.tobytes() == oracles.dense_stationary(ln_pi).tobytes(), n
            assert kernel.tobytes() == oracles.edge_kernels(
                starts, src, dst, solve.frame_w, solve.frame_right).tobytes(), n
            entropy = transfer._validate_measures(sft, order, pi, kernel)
            edge_entropy = oracles.edge_entropies(pi, kernel, starts)
            assert np.array(entropy).tobytes() == np.array(edge_entropy).tobytes(), n
            underflow += np.count_nonzero(kernel == 0.0)
            ties = np.add.reduce(ln_pi == ln_pi.max(axis=1, keepdims=True), axis=1)
            all_tied += np.count_nonzero(ties == n)
            some_tied += np.count_nonzero((1 < ties) & (ties < n))
    assert underflow  # the zeros of p log p were met on the edges
    assert all_tied and some_tied  # and stationary rows with tied maxima
