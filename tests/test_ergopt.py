import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

import thermoshift as ts
from thermoshift import _perron, ergopt, maxplus, transfer
from thermoshift.errors import ValidationError

import oracles

LN2 = math.log(2)


def ray(sft, phi, t):
    return ts.combine(ts.zero_potential(sft), phi, t)


def exact_cycle_mean(phi, cycle_blocks):
    """Rational mean of a potential over one cycle of graph states."""
    total = Fraction(0)
    length = len(cycle_blocks)
    for m in range(length):
        word = cycle_blocks[m] + (cycle_blocks[(m + 1) % length][-1],)
        total += Fraction(phi.values[word[: phi.memory]])
    return total / length


# --- examples ----------------------------------------------------------------


def test_fixed_point_ground_state(full2):
    phi = ts.fixed_point_potential(full2, 0)
    result = ts.max_ergodic_average(full2, phi)
    assert result.beta == 0.0
    assert result.witness_cycle == ((0,),)
    assert result.critical_edges == (((0,), (0,)),)
    assert result.unique_flag
    assert result.ground_entropy == 0.0


def test_constant_potential_saturates_everything(full2):
    result = ts.max_ergodic_average(full2, ts.constant_potential(full2, 0.7))
    assert result.beta == 0.7
    assert len(result.critical_edges) == 4  # the whole edge graph
    assert not result.unique_flag
    assert result.ground_entropy == pytest.approx(LN2, abs=1e-12)


def test_two_cycle_witness(full2):
    phi = ts.Potential(
        full2, 2, {(0, 0): 0.0, (0, 1): 0.6, (1, 0): 0.6, (1, 1): 0.2}
    )
    result = ts.max_ergodic_average(full2, phi)
    assert result.beta == 0.6
    assert set(result.witness_cycle) == {(0,), (1,)}
    assert set(result.critical_edges) == {((0,), (1,)), ((1,), (0,))}
    assert result.unique_flag
    assert result.ground_entropy == 0.0


def test_non_unique_ground_state(full2):
    phi = ts.Potential(
        full2, 2, {(0, 0): 0.0, (1, 1): 0.0, (0, 1): -1.0, (1, 0): -1.0}
    )
    result = ts.max_ergodic_average(full2, phi)
    assert result.beta == 0.0
    assert not result.unique_flag
    assert result.ground_entropy == 0.0  # two disjoint loops
    assert set(result.critical_edges) == {((0,), (0,)), ((1,), (1,))}


# --- exactness against enumeration ---------------------------------------------


def test_karp_matches_enumeration_exactly(rng):
    for _ in range(50):
        m = oracles.random_primitive_transitions(rng, max_alphabet=8)
        sft = ts.build_sft(len(m), m)
        phi = ts.Potential(sft, 2, oracles.random_values(rng, m, 2))
        result = ts.max_ergodic_average(sft, phi)
        states, _, edges = oracles.dense_edge_table(m, 2, phi.values)
        oracle = oracles.max_cycle_mean_enumeration(len(states), edges)
        assert result.beta == float(oracle)


def random_strongly_connected_graph(rng, n, palette=None):
    """Edges ``(i, j, weight)`` of a random strongly connected digraph whose
    float weights mix magnitudes (so their dyadic denominators differ) and
    repeat values (so cycle means tie); the weights are drawn from
    ``palette`` when one is given."""
    while True:
        mask = rng.random((n, n)) < min(1.0, 3.0 / n)
        pairs = list(zip(*np.nonzero(mask)))
        label = maxplus.strongly_connected_components(n, pairs)
        if pairs and len(set(label)) == 1:
            break
    if palette is None:
        palette = rng.normal(size=4) * 10.0 ** rng.integers(-3, 4, size=4)
    return [(int(i), int(j), float(rng.choice(palette))) for i, j in pairs]


# Weights from 1e-300 to 1e300 with both signs, and the smallest subnormal,
# which puts the common denominator at 2**1074.
EXTREME_PALETTE = (5e-324, -1e-300, 2.5e-160, -0.1, 1.0, 3.0, -7e90, 1e150, -2e299, 1e300)


def test_integer_analysis_matches_fraction_reference(rng):
    graphs = []
    for _ in range(60):
        n = int(rng.integers(1, 9))
        graphs.append((n, random_strongly_connected_graph(rng, n)))
    for _ in range(40):
        n = int(rng.integers(1, 13))
        edges = random_strongly_connected_graph(rng, n, EXTREME_PALETTE)
        i, j, _ = edges[0]
        edges[0] = (i, j, 5e-324)
        graphs.append((n, edges))
    for _ in range(3):
        n = int(rng.integers(30, 65))
        graphs.append((n, random_strongly_connected_graph(rng, n)))
    sft = ts.full_shift(10)
    blocks = oracles.admissible_words(sft.transitions, 3)
    for values in (
        oracles.random_values(rng, sft.transitions, 3),
        {b: float(rng.choice([-0.5, 0.0, 0.25])) for b in blocks},  # ties
    ):
        states, _, edges = oracles.dense_edge_table(sft.transitions, 3, values)
        graphs.append((len(states), edges))
    assert graphs[-1][0] == 100
    for n, edges in graphs:
        data = maxplus.analyze(n, edges)
        beta, critical = oracles.analyze_fractions(n, edges)
        assert (data.beta, data.critical) == (beta, critical)
        assert data.witness == maxplus.canonical_witness(critical)


def zero_frame(n, src, dst, w):
    """A frame that ties every edge, so the proposal is the walk of
    smallest successors from vertex 0, whatever the weights."""
    return np.zeros(len(w)), np.zeros((len(w), n)), np.zeros(w.shape), np.zeros((len(w), n))


def overflowed_frame(n, src, dst, w):
    """The frame of weights whose walk sums overflow: nan throughout."""
    nan = np.full((len(w), n), np.nan)
    return np.full(len(w), np.nan), nan, np.full(w.shape, np.nan), nan


def reversed_frame(n, src, dst, w):
    """The frame of the negated weights, which proposes a cycle of
    smallest mean."""
    return _perron._maxplus_frame(n, src, dst, -w)


@pytest.mark.parametrize("frame", [zero_frame, overflowed_frame, reversed_frame])
def test_a_poor_proposal_is_corrected_by_exact_rounds(rng, monkeypatch, frame):
    monkeypatch.setattr(maxplus, "_maxplus_frame", frame)
    rounds = []
    bellman = maxplus.bellman_longest_to

    def counting(*args):
        rounds.append(args)
        return bellman(*args)

    monkeypatch.setattr(maxplus, "bellman_longest_to", counting)
    graphs = []
    for _ in range(40):
        n = int(rng.integers(1, 13))
        graphs.append((n, random_strongly_connected_graph(rng, n)))
        graphs.append((n, random_strongly_connected_graph(rng, n, EXTREME_PALETTE)))
        graphs.append((n, random_strongly_connected_graph(rng, n, (-0.5, 0.0, 0.25))))
    for _ in range(3):
        n = int(rng.integers(30, 65))
        graphs.append((n, random_strongly_connected_graph(rng, n)))
    corrected = 0
    for n, edges in graphs:
        rounds.clear()
        data = maxplus.analyze(n, edges)
        beta, critical = oracles.analyze_fractions(n, edges)
        assert (data.beta, data.critical) == (beta, critical)
        assert data.witness == maxplus.canonical_witness(critical)
        corrected += len(rounds) > 1
    assert corrected >= len(graphs) // 4, corrected


def test_bellman_rejects_a_positive_cycle():
    # no fixed point: the n-th pass still changes a value, and the parent
    # pointers close the positive cycle, listed along its edges
    assert maxplus.bellman_longest_to(2, [(0, 1, 1), (1, 0, 1)], 0)[1] == (1, 0)
    edges = [(0, 1, 0), (1, 2, 1), (2, 1, 1), (2, 0, -5)]  # the loop 1 <-> 2 is positive
    assert maxplus.bellman_longest_to(3, edges, 0)[1] == (1, 2)


@pytest.mark.parametrize(
    "n, edges",
    [
        (2, []),
        (2, [(0, 0, 1.0), (1, 1, 2.0)]),  # vertex 1 unreachable from 0
        (2, [(1, 0, 0.0), (0, 0, 0.0), (1, 1, 1.0)]),  # best cycle unreachable from 0
        (2, [(0, 1, 0.5)]),  # no cycle at all
        (3, [(0, 1, 0.0), (1, 1, 1.0), (0, 2, 0.0), (2, 2, 0.5)]),  # nothing returns to 0
    ],
)
def test_analyze_rejects_empty_or_not_strongly_connected_graphs(n, edges):
    with pytest.raises(ValueError):
        maxplus.analyze(n, edges)


def test_integer_karp_matches_fraction_recurrence_and_enumeration(rng):
    def check(n, edges):
        data = maxplus.analyze(n, [(i, j, Fraction(w)) for i, j, w in edges])
        assert data.beta == oracles.karp_fractions(n, edges)[0]
        critical = oracles.analyze_fractions(n, edges)[1]
        assert data.witness == maxplus.canonical_witness(critical)
        return data.beta

    for _ in range(60):
        n = int(rng.integers(1, 9))
        edges = random_strongly_connected_graph(rng, n)
        assert check(n, edges) == oracles.max_cycle_mean_enumeration(n, edges)
    for _ in range(5):  # beyond the reach of cycle enumeration
        n = int(rng.integers(30, 65))
        check(n, random_strongly_connected_graph(rng, n))


@pytest.mark.parametrize(
    "critical, witness",
    [
        ({(4, 4)}, (4,)),
        ({(0, 2), (2, 0), (2, 1), (1, 2)}, (0, 2)),
        ({(0, 2), (2, 1), (1, 2), (2, 3), (3, 0)}, (1, 2)),  # the walk from 0 closes at 2
        ({(3, 1), (1, 5), (5, 3), (5, 6), (6, 5)}, (1, 5, 3)),
    ],
)
def test_canonical_witness_follows_smallest_successors(critical, witness):
    assert maxplus.canonical_witness(critical) == witness


def test_analysis_does_not_depend_on_edge_order(rng):
    graphs = []
    for _ in range(40):
        n = int(rng.integers(1, 13))
        graphs.append((n, random_strongly_connected_graph(rng, n)))
        graphs.append((n, random_strongly_connected_graph(rng, n, EXTREME_PALETTE)))
        graphs.append((n, random_strongly_connected_graph(rng, n, (-0.5, 0.0, 0.25))))
    sft = ts.full_shift(4)
    blocks = oracles.admissible_words(sft.transitions, 3)
    for _ in range(5):
        ties = {b: float(rng.choice([-0.5, 0.0, 0.25])) for b in blocks}
        states, _, edges = oracles.dense_edge_table(sft.transitions, 3, ties)
        graphs.append((len(states), edges))
    for n, edges in graphs:
        expected = maxplus.analyze(n, sorted(edges))
        for _ in range(3):
            shuffled = [edges[k] for k in rng.permutation(len(edges))]
            assert maxplus.analyze(n, shuffled) == expected


def test_witness_cycle_mean_is_exactly_beta(rng):
    for _ in range(20):
        m = oracles.random_primitive_transitions(rng)
        sft = ts.build_sft(len(m), m)
        memory = int(rng.integers(1, 4))
        phi = ts.Potential(sft, memory, oracles.random_values(rng, m, memory))
        result = ts.max_ergodic_average(sft, phi)
        assert float(exact_cycle_mean(phi, result.witness_cycle)) == result.beta


def test_every_critical_cycle_attains_beta(rng):
    for _ in range(20):
        m = oracles.random_primitive_transitions(rng)
        sft = ts.build_sft(len(m), m)
        phi = ts.Potential(sft, 2, oracles.random_values(rng, m, 2))
        result = ts.max_ergodic_average(sft, phi)
        index = {b: i for i, b in enumerate(result.states)}
        graph = nx.DiGraph(
            (index[b], index[c]) for b, c in result.critical_edges
        )
        blocks = {i: b for b, i in index.items()}
        cycles = list(nx.simple_cycles(graph))
        assert cycles
        for cycle in cycles:
            mean = exact_cycle_mean(phi, [blocks[v] for v in cycle])
            assert float(mean) == result.beta


def test_ground_entropy_below_topological(rng):
    for _ in range(10):
        m = oracles.random_primitive_transitions(rng)
        sft = ts.build_sft(len(m), m)
        phi = ts.Potential(sft, 2, oracles.random_values(rng, m, 2))
        result = ts.max_ergodic_average(sft, phi)
        assert result.ground_entropy <= ts.topological_entropy(sft) + 1e-12
        if result.unique_flag:
            assert result.ground_entropy == 0.0


@pytest.mark.parametrize("memory", [1, 2, 3])
@pytest.mark.parametrize(
    "make",
    [ts.golden_mean_shift, lambda: ts.full_shift(2), lambda: ts.full_shift(5)],
    ids=["golden", "full2", "full5"],
)
def test_ground_entropy_of_constant_potential_is_topological_entropy(make, memory):
    # the whole edge graph is critical, so the ground entropy is h(f)
    sft = make()
    for c in (0.0, 0.7, -3.25):
        result = ts.max_ergodic_average(sft, ts.constant_potential(sft, c, memory))
        assert result.ground_entropy == ts.topological_entropy(sft)


def period_two_critical_potential(full3):
    """A potential on the full 3-shift whose critical subgraph is the
    period-2 component {01, 10, 12, 21}."""
    critical = {(0, 1), (1, 0), (1, 2), (2, 1)}
    table = {(i, j): 0.0 if (i, j) in critical else -1.0 for i in range(3) for j in range(3)}
    return ts.Potential(full3, 2, table)


def test_period_two_critical_component(full3):
    phi = period_two_critical_potential(full3)
    result = ts.max_ergodic_average(full3, phi)
    assert len(result.critical_edges) == 4
    # two closed 2-walks through 1 (1-0-1, 1-2-1), so lambda**2 = 2
    assert result.ground_entropy == pytest.approx(LN2 / 2, abs=1e-13)
    for a, b, c in ((0.3, -0.2, 1.1), (1.0, 2.0, 3.0), (-4.0, 0.5, -4.0)):
        psi = ts.Potential(full3, 1, {(0,): a, (1,): b, (2,): c})
        expected = (b + math.log(math.exp(a) + math.exp(c))) / 2
        alpha = ts.ground_state_pressure_bound(full3, psi, phi)
        assert alpha == pytest.approx(expected, abs=1e-13)


def test_bound_on_widely_spread_psi(full3):
    # exp(psi) spans 1e-391 to 1e347: a shift by the largest weight alone
    # underflows every other one
    phi = period_two_critical_potential(full3)
    psi = ts.Potential(full3, 1, {(0,): 0.0, (1,): -900.0, (2,): 800.0})
    alpha = ts.ground_state_pressure_bound(full3, psi, phi)
    assert alpha == pytest.approx(-50.0, abs=1e-12)


def test_ground_values_match_dense_eigensolve(rng):
    # integer values tie many cycles, so many critical subgraphs carry a
    # component that is not a simple cycle (27 of these 100 draws)
    def integer_values(m, memory):
        values = oracles.random_values(rng, m, memory, scale=1.0)
        return {b: float(round(v)) for b, v in values.items()}

    non_cycle = 0
    for _ in range(100):
        m = oracles.random_primitive_transitions(rng)
        sft = ts.build_sft(len(m), m)
        memory = int(rng.integers(2, 4))
        phi_values = integer_values(m, memory)
        psi_values = integer_values(m, memory)
        phi = ts.Potential(sft, memory, phi_values)
        psi = ts.Potential(sft, memory, psi_values)
        result = ts.max_ergodic_average(sft, phi)
        states, w_psi = oracles.dense_weighted_matrix(m, memory, psi_values)
        index = {b: i for i, b in enumerate(states)}
        critical = [(index[b], index[c]) for b, c in result.critical_edges]
        non_cycle += max(d for _, d in nx.DiGraph(critical).out_degree()) > 1
        assert result.unique_flag == oracles.has_one_simple_cycle(critical)
        ones = (w_psi > 0).astype(float)
        assert result.ground_entropy == pytest.approx(
            oracles.restricted_log_radius(ones, critical), abs=1e-12
        )
        assert ts.ground_state_pressure_bound(sft, psi, phi) == pytest.approx(
            oracles.restricted_log_radius(w_psi, critical), abs=1e-12
        )
    assert non_cycle >= 20


def tied_systems(rng, count):
    """``(sft, psi, phi)`` on ``count`` random primitive systems of 2 to 4
    symbols: ``phi`` of memory 1 to 3 with values from {-0.5, 0, 0.25}
    times ``10**k``, k from -2 to 3, so that cycle means tie and critical
    classes that are not simple cycles are common, and ``psi`` of the
    same memory with values uniform in [-2, 2]."""
    for _ in range(count):
        m = oracles.random_primitive_transitions(rng, max_alphabet=4)
        sft = ts.build_sft(len(m), m)
        memory = int(rng.integers(1, 4))
        scale = 10.0 ** int(rng.integers(-2, 4))
        words = oracles.admissible_words(m, memory)
        phi = ts.Potential(sft, memory, {b: scale * float(rng.choice([-0.5, 0.0, 0.25])) for b in words})
        yield sft, ts.Potential(sft, memory, oracles.random_values(rng, m, memory)), phi


def test_ground_values_on_tied_critical_classes_match_a_dense_eigensolve(monkeypatch):
    # 400 tied systems: the ground entropy and the ground-state bound raise
    # nothing and match a dense eig on each critical class within 1e-12;
    # 86 of them solve a class that is not a simple cycle by a Perron
    # eigensolve.
    solved = []
    solve_stack = ergopt.solve_stack

    def counted(*args):
        solved.append(args)
        return solve_stack(*args)

    monkeypatch.setattr(ergopt, "solve_stack", counted)
    perron = 0
    for sft, psi, phi in tied_systems(np.random.default_rng(44), 400):
        del solved[:]
        result = ts.max_ergodic_average(sft, phi)
        bound = ts.ground_state_pressure_bound(sft, psi, phi)
        perron += bool(solved)
        states, w_psi = oracles.dense_weighted_matrix(sft.transitions, phi.memory, psi.values)
        index = {b: i for i, b in enumerate(states)}
        critical = nx.DiGraph([(index[b], index[c]) for b, c in result.critical_edges])
        ones = (w_psi > 0).astype(float)
        entropy = bound_oracle = -math.inf
        for vertices in nx.strongly_connected_components(critical):
            edges = critical.subgraph(vertices).edges
            entropy = max(entropy, oracles.restricted_log_radius(ones, edges))
            bound_oracle = max(bound_oracle, oracles.restricted_log_radius(w_psi, edges))
        assert result.ground_entropy == pytest.approx(entropy, abs=1e-12)
        assert bound == pytest.approx(bound_oracle, abs=1e-12)
    assert perron == 86


def test_a_cached_analysis_runs_no_graph_search(full3, monkeypatch):
    # The analysis labels the critical classes once, beside its check that
    # the graph is strongly connected; maximizing and bounding then read
    # the classes it stores, here one that is not a simple cycle.
    phi = period_two_critical_potential(full3)
    psi = ts.Potential(full3, 2, oracles.random_values(np.random.default_rng(3), full3.transitions, 2))
    searches = []
    search = maxplus.strongly_connected_components

    def counted(n, edge_pairs):
        searches.append(n)
        return search(n, edge_pairs)

    monkeypatch.setattr(maxplus, "strongly_connected_components", counted)
    first = ts.max_ergodic_average(full3, phi), ts.ground_state_pressure_bound(full3, psi, phi)
    assert searches == [3, 3]  # one analysis
    again = ts.max_ergodic_average(full3, phi), ts.ground_state_pressure_bound(full3, psi, phi)
    assert searches == [3, 3]
    assert again == first


# --- invariances -----------------------------------------------------------------


def test_additive_constant_shifts_beta(rng, golden):
    phi = ts.Potential(golden, 2, oracles.random_values(rng, golden.transitions, 2))
    base = ts.max_ergodic_average(golden, phi)
    for c in (-2.0, 0.25, 3.0):
        shifted = ts.combine(phi, ts.constant_potential(golden, c), 1.0)
        result = ts.max_ergodic_average(golden, shifted)
        assert result.beta == pytest.approx(base.beta + c, abs=1e-12)
        assert result.critical_edges == base.critical_edges


def test_positive_scaling_scales_beta(rng, golden):
    phi = ts.Potential(golden, 2, oracles.random_values(rng, golden.transitions, 2))
    base = ts.max_ergodic_average(golden, phi)
    for t in (0.5, 2.0, 10.0):
        result = ts.max_ergodic_average(golden, ray(golden, phi, t))
        assert result.beta == pytest.approx(t * base.beta, abs=1e-12)
        assert result.critical_edges == base.critical_edges
    at_zero = ts.max_ergodic_average(golden, ray(golden, phi, 0.0))
    whole = ts.max_ergodic_average(golden, ts.zero_potential(golden))
    assert at_zero.critical_edges == whole.critical_edges


def test_equilibrium_average_below_beta(rng, full2):
    phi = ts.Potential(full2, 2, oracles.random_values(rng, full2.transitions, 2))
    beta = ts.max_ergodic_average(full2, phi).beta
    previous = -math.inf
    for t in (1.0, 10.0, 100.0, 1000.0):
        mu = ts.equilibrium_state(full2, ray(full2, phi, t))
        avg = ts.integrate(mu, phi)
        assert avg <= beta + 1e-12
        assert avg >= previous - 1e-12
        previous = avg


# --- ground-state pressure bound ---------------------------------------------------


def test_bound_for_point_mass_is_zero(full2):
    phi = ts.fixed_point_potential(full2, 0)
    assert ts.ground_state_pressure_bound(full2, ts.zero_potential(full2), phi) == 0.0


def test_bound_for_constant_reference(full2):
    phi = ts.fixed_point_potential(full2, 0)
    psi = ts.constant_potential(full2, 0.8)
    assert ts.ground_state_pressure_bound(full2, psi, phi) == pytest.approx(
        0.8, abs=1e-14
    )


def test_bound_averages_psi_on_witness_cycle(full2):
    phi = ts.Potential(
        full2, 2, {(0, 0): 0.0, (0, 1): 0.6, (1, 0): 0.6, (1, 1): 0.2}
    )
    psi = ts.Potential(full2, 1, {(0,): 0.1, (1,): 0.5})
    assert ts.ground_state_pressure_bound(full2, psi, phi) == pytest.approx(
        0.3, abs=1e-14
    )


def test_bound_on_positive_entropy_critical_graph(full2):
    # constant direction: the critical graph is everything, so the bound
    # is the full pressure of psi
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})
    alpha = ts.ground_state_pressure_bound(full2, psi, ts.constant_potential(full2, 1.0))
    assert alpha == pytest.approx(ts.pressure(full2, psi).value, abs=1e-9)


def test_bound_dominates_maximizing_measures(full2):
    # point mass at 0 is the unique maximizing measure; its psi-pressure
    # must sit below alpha
    phi = ts.fixed_point_potential(full2, 0)
    psi = ts.Potential(full2, 1, {(0,): -0.4, (1,): 1.3})
    alpha = ts.ground_state_pressure_bound(full2, psi, phi)
    point = ts.MarkovMeasure(full2, 1, [1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])
    assert point.entropy + ts.integrate(point, psi) <= alpha + 1e-14


# --- zero-temperature diagnostics ---------------------------------------------------


def test_diagnostics_bernoulli_closed_form(full2):
    # memory-1 ground-state potential: the equilibrium of t*phi is the
    # Bernoulli measure with weight e^-t/(1+e^-t) on symbol 1, so the
    # defect has that closed form
    phi = ts.Potential(full2, 1, {(0,): 0.0, (1,): -1.0})
    ts_list = [LN2, 1.0, 2.0, 5.0]
    rows = ts.zero_temperature_diagnostics(full2, phi, ts_list)
    for row in rows:
        expected = math.exp(-row.t) / (1 + math.exp(-row.t))
        assert row.defect == pytest.approx(expected, abs=1e-12)


def test_diagnostics_constant_has_zero_defect(golden):
    rows = ts.zero_temperature_diagnostics(
        golden, ts.constant_potential(golden, 2.3), [1.0, 10.0]
    )
    for row in rows:
        assert abs(row.defect) <= 1e-12


def test_diagnostics_bounds_and_monotonicity(full2, golden):
    for sft in (full2, golden):
        phi = ts.fixed_point_potential(sft, 0)
        rows = ts.zero_temperature_diagnostics(sft, phi, [1.0, 10.0, 100.0, 1000.0])
        h_top = ts.topological_entropy(sft)
        for row in rows:
            assert -1e-12 <= row.defect <= h_top / row.t + 1e-9
        defects = [row.defect for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(defects, defects[1:]))
        assert rows[-1].entropy <= 1e-3


def test_diagnostics_rejects_bad_grid(full2, monkeypatch):
    def no_solve(*args):
        raise AssertionError("something was solved")

    monkeypatch.setattr(transfer, "_ray_samples", no_solve)
    monkeypatch.setattr(ergopt, "max_ergodic_average", no_solve)
    phi = ts.fixed_point_potential(full2, 0)
    with pytest.raises(ValidationError):
        ts.zero_temperature_diagnostics(full2, phi, [])
    with pytest.raises(ValidationError):
        ts.zero_temperature_diagnostics(full2, phi, [1.0, 0.5])
    with pytest.raises(ValidationError):
        ts.zero_temperature_diagnostics(full2, phi, [-1.0, 2.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match=f"t_list must be finite, got {bad}") as refused:
            ts.zero_temperature_diagnostics(full2, phi, [1.0, bad])
        assert "psi" not in str(refused.value)
