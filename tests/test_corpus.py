"""Seeded stress corpus: every admissible input must certify.

200 random primitive systems (2 to 6 symbols, Bernoulli(0.6)
transitions resampled until primitive, memory 1 to 3, N(0, 1) values),
each solved along the ray ``t * phi`` from the infinite-temperature to
the ground-state regime.
"""

import numpy as np

import thermoshift as ts
from thermoshift._edgegraph import edge_weights, graph_order, maxplus_data
from thermoshift.sft import block_graph
from thermoshift._perron import _maxplus_frame

import oracles

TEMPERATURES = (0.0, 1.0, 10.0, 100.0, 1000.0, 1e4)


def corpus():
    """The 200 seeded systems, as ``(trial, sft, phi)``."""
    rng = np.random.default_rng(1)
    for trial in range(200):
        m = oracles.random_primitive_transitions(rng, max_alphabet=6)
        sft = ts.build_sft(len(m), m)
        memory = int(rng.integers(1, 4))
        words = oracles.admissible_words(m, memory)
        phi = ts.Potential(sft, memory, dict(zip(words, rng.normal(size=len(words)).tolist())))
        yield trial, sft, phi


def test_stress_corpus_certifies_and_satisfies_variational_identity():
    for trial, sft, phi in corpus():
        for t in TEMPERATURES:
            phi_t = ts.combine(ts.zero_potential(sft), phi, t)
            result, mu = ts.pressure_and_equilibrium(sft, phi_t)
            assert result.residual <= 1e-12, (trial, t, result.residual)
            gap = abs(result.value - (mu.entropy + ts.integrate(mu, phi_t)))
            assert gap <= 1e-9, (trial, t, gap)


def test_float_frame_beta_matches_exact_maxplus_beta():
    # The eigensolve's float Karp and the exact scaled-int analysis are two
    # routes to one maximum cycle mean; they differ only by rounding.
    for trial, sft, phi in corpus():
        order = graph_order(phi.memory)
        states, src, dst = block_graph(sft, order)
        for t in (1.0, 10.0, 1e4):
            phi_t = ts.combine(ts.zero_potential(sft), phi, t)
            w = edge_weights(phi_t, order)
            frame_beta = _maxplus_frame(len(states), src, dst, w[None])[0][0]
            exact = float(maxplus_data(phi_t, order).beta)
            assert abs(frame_beta - exact) <= 1e-13 * np.abs(w).max(), (trial, t)
