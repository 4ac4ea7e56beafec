"""The exact max-plus analysis cached per potential and vertex order, and
the pins that show it keeps every bit of the dense edge-graph route."""

import numpy as np

import thermoshift as ts
from thermoshift import ergopt, maxplus
from thermoshift._edgegraph import graph_order, maxplus_data

import oracles


def random_potential(rng, sft, memory):
    return ts.Potential(sft, memory, oracles.random_values(rng, sft.transitions, memory))


def dense_analysis(sft, phi, order):
    """`maxplus.analyze` on the edge list of the independently built dense
    edge table."""
    states, _, edges = oracles.dense_edge_table(sft.transitions, phi.memory, phi.values, order)
    return states, maxplus.analyze(len(states), edges)


def dense_maximization(sft, phi):
    """`max_ergodic_average` as computed on the dense edge table."""
    states, data = dense_analysis(sft, phi, graph_order(phi.memory))
    critical = sorted(data.critical)
    ground = ergopt._critical_pressure(data.classes, [np.zeros(len(c)) for c in data.classes])
    return (
        float(data.beta).hex(),
        tuple((states[i], states[j]) for i, j in critical),
        tuple(states[i] for i in data.witness),
        ground.hex(),
        oracles.has_one_simple_cycle(data.critical),
        tuple(states),
    )


def maximization_bits(result):
    return (
        result.beta.hex(),
        result.critical_edges,
        result.witness_cycle,
        result.ground_entropy.hex(),
        result.unique_flag,
        result.states,
    )


def dense_bound(sft, psi, phi):
    """`ground_state_pressure_bound` as computed on the dense edge tables,
    reading the critical weights of ``psi`` off its table."""
    order = max(graph_order(psi.memory), graph_order(phi.memory))
    states, data = dense_analysis(sft, phi, order)
    _, psi_logw, _ = oracles.dense_edge_table(sft.transitions, psi.memory, psi.values, order)
    weights = [np.array([psi_logw[i, j] for i, j in edges]) for edges in data.classes]
    return ergopt._critical_pressure(data.classes, weights)


def test_cached_analysis_matches_the_dense_edge_list():
    rng = np.random.default_rng(10)
    cases = []
    for trial in range(36):
        m = oracles.random_primitive_transitions(rng, max_alphabet=5)
        sft = ts.build_sft(len(m), m)
        cases.append((sft, random_potential(rng, sft, trial % 3 + 1)))
    sft = ts.full_shift(10)
    blocks = oracles.admissible_words(sft.transitions, 3)
    ties = {b: float(rng.choice([-0.5, 0.0, 0.25])) for b in blocks}
    cases.append((sft, ts.Potential(sft, 3, ties)))
    for sft, phi in cases:
        order = graph_order(phi.memory)
        _, expected = dense_analysis(sft, phi, order)
        assert maxplus_data(phi, order) == expected
        assert maxplus_data(phi, order) is maxplus_data(phi, order)


def test_maximization_and_bound_match_the_dense_route():
    rng = np.random.default_rng(11)
    cases = []
    for trial in range(30):
        m = oracles.random_primitive_transitions(rng, max_alphabet=5)
        sft = ts.build_sft(len(m), m)
        phi_memory = trial % 2 + 1
        phi = random_potential(rng, sft, phi_memory)
        psi = random_potential(rng, sft, phi_memory + 2)  # a higher order
        cases.append((sft, phi, psi))
    # Tied values give critical components that are not simple cycles, so
    # the bound reads psi's weights at many critical positions.
    for symbols in range(3, 7):
        sft = ts.full_shift(symbols)
        for memory in (1, 2, 3):
            blocks = oracles.admissible_words(sft.transitions, memory)
            ties = {b: float(rng.choice([0.0, -1.0])) for b in blocks}
            cases.append((sft, ts.Potential(sft, memory, ties), random_potential(rng, sft, memory + 1)))
    for sft, phi, psi in cases:
        assert maximization_bits(ts.max_ergodic_average(sft, phi)) == dense_maximization(sft, phi)
        bound = ts.ground_state_pressure_bound(sft, psi, phi)
        assert bound.hex() == dense_bound(sft, psi, phi).hex()
        assert ts.ground_state_pressure_bound(sft, phi, psi).hex() == dense_bound(sft, phi, psi).hex()


def test_one_analysis_per_potential_and_order(monkeypatch, full2):
    states_analyzed = []
    analyze = maxplus.analyze

    def counting(n_vertices, edges):
        states_analyzed.append(n_vertices)
        return analyze(n_vertices, edges)

    monkeypatch.setattr(maxplus, "analyze", counting)
    phi = ts.Potential(full2, 2, {(0, 0): 0.3, (0, 1): -0.4, (1, 0): -1.1, (1, 1): 0.1})
    psi = ts.Potential(full2, 1, {(0,): 0.0, (1,): 1.0})

    ts.max_ergodic_average(full2, phi)
    ts.ground_state_pressure_bound(full2, psi, phi)
    ts.zero_temperature_diagnostics(full2, phi, [1.0, 10.0])
    for a in (0.6, 0.4, 0.2):
        ts.solve_intermediate_entropy(full2, phi, a)
    alpha = ts.ground_state_pressure_bound(full2, psi, phi)
    ts.solve_intermediate_pressure(full2, psi, phi, 0.5 * (alpha + ts.pressure(full2, psi).value))
    assert states_analyzed == [2]

    psi3 = ts.Potential(full2, 3, {b: 0.1 * k for k, b in enumerate(ts.admissible_blocks(full2, 3))})
    ts.ground_state_pressure_bound(full2, psi3, phi)
    ts.ground_state_pressure_bound(full2, psi3, phi)
    assert states_analyzed == [2, 4]

    twin = ts.Potential(full2, 2, dict(phi.values))
    assert twin == phi and twin is not phi
    ts.max_ergodic_average(full2, twin)
    assert states_analyzed == [2, 4, 2]
