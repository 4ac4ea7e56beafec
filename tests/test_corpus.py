"""Seeded stress corpora: every admissible input must certify.

200 random primitive systems (2 to 6 symbols, Bernoulli(0.6)
transitions resampled until primitive, memory 1 to 3, N(0, 1) values),
each solved along the ray ``t * phi`` from the infinite-temperature to
the ground-state regime.

Near the block cap, where those systems (26 block states at most) do not
reach: the golden mean at memories 8 to 14, the full 2-shift at memories
6 to 10 and six random primitive systems on 2 to 4 symbols at the longest
memory with at most 600 block states (32 to 610 states in all), each
with N(0, 1) values and with values tied in {-0.5, 0, 0.25}.
"""

import hashlib
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

import thermoshift as ts
from thermoshift import _perron, maxplus
from thermoshift._edgegraph import edge_weights, graph_order, maxplus_data
from thermoshift.sft import block_graph
from thermoshift._perron import _maxplus_frame

import oracles

TEMPERATURES = (0.0, 1.0, 10.0, 100.0, 1000.0, 1e4)
# Ten times tighter than the invariance bound of `MarkovMeasure`: the
# stationary vector is l * r, normalized, and no iteration refines it.
DRIFT = 1e-13


def drift(mu):
    """``max |pi P - pi|`` of a Markov measure."""
    return float(np.abs(mu.stationary @ mu.kernel - mu.stationary).max())


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
            assert drift(mu) <= DRIFT, (trial, t, drift(mu))


def census():
    """The corpus systems with three draws of values each, as ``(trial,
    draw, sft, phi)``: from one stream over the systems in corpus order,
    each system draws N(0, 1) values (draw 0), then rounded 2 N(0, 1)
    values (draw 1), then values tied in {-0.5, 0, 0.25} (draw 2)."""
    rng = np.random.default_rng(2026)
    for trial, sft, phi in corpus():
        blocks = ts.admissible_blocks(sft, phi.memory)
        draws = (
            rng.normal(size=len(blocks)),
            np.round(2.0 * rng.normal(size=len(blocks))),
            rng.choice([-0.5, 0.0, 0.25], size=len(blocks)),
        )
        for draw, values in enumerate(draws):
            yield trial, draw, sft, ts.Potential(sft, phi.memory, dict(zip(blocks, values.tolist())))


# The census solves that raise ConvergenceError, as (trial, draw, t): tied
# or rounded values whose critical classes tie at low temperature, and
# trial 58's two loops of mean 30 coupled through edges of frame weight
# e^-60 and below, at t = 10.  The list may only shrink.
CENSUS_FAILURES = [(22, 2, 1e4), (58, 1, 10.0), (77, 2, 1e3), (77, 2, 1e4), (84, 1, 1e3), (84, 1, 1e4),
                   (100, 2, 1e4), (102, 2, 1e3), (102, 2, 1e4), (152, 2, 1e4), (161, 2, 1e4)]


def assert_census_solve(trial, draw, sft, phi, t):
    phi_t = ts.combine(ts.zero_potential(sft), phi, t)
    result, mu = ts.pressure_and_equilibrium(sft, phi_t)
    assert result.residual <= 1e-12, (trial, draw, t, result.residual)
    gap = abs(result.value - (mu.entropy + ts.integrate(mu, phi_t)))
    assert gap <= 1e-9, (trial, draw, t, gap)
    assert drift(mu) <= DRIFT, (trial, draw, t, drift(mu))


@pytest.fixture(scope="module")
def census_cases():
    """The census, built once: ``(sft, phi)`` by ``(trial, draw)``, in
    census order."""
    return {(trial, draw): (sft, phi) for trial, draw, sft, phi in census()}


def test_census_certifies_every_draw_but_the_known_failures(census_cases):
    known = set(CENSUS_FAILURES)
    for (trial, draw), (sft, phi) in census_cases.items():
        for t in TEMPERATURES:
            if (trial, draw, t) not in known:
                assert_census_solve(trial, draw, sft, phi, t)


@pytest.mark.parametrize("trial, draw, t", [
    pytest.param(*case, marks=pytest.mark.xfail(raises=ts.errors.ConvergenceError, strict=True))
    for case in CENSUS_FAILURES])
def test_census_known_failure(census_cases, trial, draw, t):
    sft, phi = census_cases[trial, draw]
    assert_census_solve(trial, draw, sft, phi, t)


def test_float_frame_beta_matches_exact_maxplus_beta():
    # The eigensolve's float frame and the exact scaled-int analysis are
    # two routes to one maximum cycle mean; they differ only by rounding.
    # The near-cap systems of at least _HOWARD_STATES states take Howard's
    # route where it certifies a row, Karp's elsewhere.
    for trial, sft, phi in corpus():
        order = graph_order(phi.memory)
        states, src, dst = block_graph(sft, order)
        for t in (1.0, 10.0, 1e4):
            phi_t = ts.combine(ts.zero_potential(sft), phi, t)
            w = edge_weights(phi_t, order)
            frame_beta = _maxplus_frame(len(states), src, dst, w[None])[0][0]
            exact = float(maxplus_data(phi_t, order).beta)
            assert abs(frame_beta - exact) <= 1e-13 * np.abs(w).max(), (trial, t)
    for label, draw, n, src, dst, phi, order in cap_frames(lambda n: n >= _perron._HOWARD_STATES):
        w = edge_weights(phi, order)
        exact = float(maxplus_data(phi, order).beta)
        frame_beta = _maxplus_frame(n, src, dst, FRAME_SCALES[:, None] * w)[0]
        for t, beta in zip(FRAME_SCALES.tolist(), frame_beta.tolist()):
            assert abs(beta - t * exact) <= 1e-13 * t * np.abs(w).max(), (label, draw, t)


def test_stored_critical_classes_are_the_networkx_components(census_cases):
    # On the corpus and the census's tied draws, the classes the analysis
    # stores are the strongly connected components of its critical edges,
    # each class's edges sorted and the classes in order of their first.
    tied = [phi for (_, draw), (_, phi) in census_cases.items() if draw == 2]
    non_cycle = 0
    for phi in [phi for _, _, phi in corpus()] + tied:
        data = maxplus_data(phi, graph_order(phi.memory))
        graph = nx.DiGraph(list(data.critical))
        expected = sorted(tuple(sorted(graph.subgraph(vertices).edges))
                          for vertices in nx.strongly_connected_components(graph))
        assert data.classes == tuple(expected)
        non_cycle += any(len(c) > len({i for i, _ in c}) for c in data.classes)
    assert non_cycle == 64  # systems with a class that is not a simple cycle


def test_exact_analysis_matches_karp_oracle_on_the_corpus():
    # The exact rounds from the float frame's cycle end at Karp's answer,
    # also where rounded or tied values make cycle means tie exactly.
    rng = np.random.default_rng(2026)
    for trial, sft, phi in corpus():
        order = graph_order(phi.memory)
        states, src, dst = block_graph(sft, order)
        blocks = list(phi.values)
        draws = (
            list(phi.values.values()),
            np.round(2.0 * rng.normal(size=len(blocks))).tolist(),
            rng.choice([-0.5, 0.0, 0.25], size=len(blocks)).tolist(),
        )
        for draw, values in enumerate(draws):
            w = edge_weights(ts.Potential(sft, phi.memory, dict(zip(blocks, values))), order)
            for t in (1.0, 10.0, 1e4):
                edges = list(zip(src.tolist(), dst.tolist(), (t * w).tolist()))
                data = maxplus.analyze(len(states), edges)
                beta, critical = oracles.analyze_fractions(len(states), edges)
                assert (data.beta, data.critical) == (beta, critical), (trial, draw, t)
                assert data.witness == maxplus.canonical_witness(critical), (trial, draw, t)


CAP_TEMPERATURES = (0.0, 1.0, 10.0, 1e4)
CAP_STATES = 600


def cap_systems():
    """The near-cap systems, as ``(label, sft, memory)``."""
    systems = [(f"golden-m{m}", ts.golden_mean_shift(), m) for m in range(8, 15)]
    systems += [(f"full2-m{m}", ts.full_shift(2), m) for m in range(6, 11)]
    rng = np.random.default_rng(4)
    for trial in range(6):
        m = oracles.random_primitive_transitions(rng, max_alphabet=4)
        sft = ts.build_sft(len(m), m)
        order = 1
        while len(ts.admissible_blocks(sft, order + 1)) <= CAP_STATES:
            order += 1
        systems.append((f"random{trial}-k{len(m)}-m{order + 1}", sft, order + 1))
    return systems


CAP_CASES = [(seed, label, sft, memory, draw)
             for seed, (label, sft, memory) in enumerate(cap_systems(), start=100)
             for draw in ("normal", "tied")]


@pytest.mark.parametrize("seed, label, sft, memory, draw", CAP_CASES,
                         ids=[f"{case[1]}-{case[4]}" for case in CAP_CASES])
def test_near_cap_corpus_certifies(seed, label, sft, memory, draw):
    rng = np.random.default_rng(seed)
    blocks = ts.admissible_blocks(sft, memory)
    if draw == "normal":
        values = rng.normal(size=len(blocks))
    else:
        values = rng.choice([-0.5, 0.0, 0.25], size=len(blocks))
    phi = ts.Potential(sft, memory, dict(zip(blocks, values.tolist())))
    for t in CAP_TEMPERATURES:
        phi_t = ts.combine(ts.zero_potential(sft), phi, t)
        result, mu = ts.pressure_and_equilibrium(sft, phi_t)
        assert result.residual <= 1e-12, (t, result.residual)
        gap = abs(result.value - (mu.entropy + ts.integrate(mu, phi_t)))
        assert gap <= 1e-9, (t, gap)
        assert drift(mu) <= DRIFT, (t, drift(mu))
    # The frame's float Karp against one exact analysis: the beta of
    # t * phi is t times that of phi, and rounding t * w moves it by far
    # less than the tolerance.
    order = graph_order(memory)
    states, src, dst = block_graph(sft, order)
    w = edge_weights(phi, order)
    exact = float(maxplus_data(phi, order).beta)
    scales = np.array(CAP_TEMPERATURES[1:])
    frame_beta = _maxplus_frame(len(states), src, dst, scales[:, None] * w)[0]
    for t, beta in zip(scales.tolist(), frame_beta.tolist()):
        assert abs(beta - t * exact) <= 1e-13 * t * np.abs(w).max(), t


@pytest.mark.parametrize("sft, memory", [(ts.full_shift(2), 12), (ts.golden_mean_shift(), 16)],
                         ids=["full2-m12", "golden-m16"])
@pytest.mark.parametrize("draw", ["normal", "tied"])
def test_exact_analysis_at_the_cap_is_certified_in_fractions(sft, memory, draw):
    # The certificate, checked without Karp: the witness attains beta, a
    # Bellman pass under w - beta reaches a fixed point (no cycle has a
    # larger mean), and the critical set is its saturated edges on
    # saturated cycles.
    rng = np.random.default_rng(memory)
    blocks = ts.admissible_blocks(sft, memory)
    if draw == "normal":
        values = rng.normal(size=len(blocks))
    else:
        values = rng.choice([-0.5, 0.0, 0.25], size=len(blocks))
    phi = ts.Potential(sft, memory, dict(zip(blocks, values.tolist())))
    order = graph_order(memory)
    states, src, dst = block_graph(sft, order)
    edges = list(zip(src.tolist(), dst.tolist(), edge_weights(phi, order).tolist()))
    n = len(states)
    assert n in (1597, 2048)
    data = maxplus.analyze(n, edges)
    weight_of = {(i, j): Fraction(w) for i, j, w in edges}
    cycle = data.witness
    assert sum(weight_of[e] for e in zip(cycle, cycle[1:] + cycle[:1])) == data.beta * len(cycle)
    normalized = [(i, j, w - data.beta) for (i, j), w in weight_of.items()]
    dist = oracles.longest_to_fractions(n, normalized, cycle[0])
    assert dist is not None
    assert all(w + dist[j] <= dist[i] for i, j, w in normalized)
    assert oracles.saturated_critical(normalized, dist) == data.critical


FRAME_SCALES = np.array([1.0, 10.0, 1e4])


def cap_frames(keep):
    """The near-cap systems whose block graph has a number of states that
    ``keep`` accepts, each with the N(0, 1) and the tied values of
    `test_near_cap_corpus_certifies`, as ``(label, draw, n, src, dst,
    phi, order)``."""
    for seed, label, sft, memory, draw in CAP_CASES:
        order = graph_order(memory)
        states, src, dst = block_graph(sft, order)
        if not keep(len(states)):
            continue
        rng = np.random.default_rng(seed)
        blocks = ts.admissible_blocks(sft, memory)
        if draw == "normal":
            values = rng.normal(size=len(blocks))
        else:
            values = rng.choice([-0.5, 0.0, 0.25], size=len(blocks))
        phi = ts.Potential(sft, memory, dict(zip(blocks, values.tolist())))
        yield label, draw, len(states), src, dst, phi, order


# sha256 of the frames of the near-cap graphs below the crossover (32 to
# 55 states) at FRAME_SCALES, as Karp's levels alone gave them
KARP_FRAMES_BELOW_CROSSOVER = "e13c54afdbb922b06d50d0e8ea21e0858acba9a43979b21684b286c79a23568a"


def test_howard_frames_agree_with_the_exact_analysis_and_karp(monkeypatch):
    certified = uncertified = 0
    for label, draw, n, src, dst, phi, order in cap_frames(lambda n: n >= _perron._HOWARD_STATES):
        w = FRAME_SCALES[:, None] * edge_weights(phi, order)
        howard, _, target, _ = _perron._howard(n, src, dst, w)
        critical = {i for edge in maxplus_data(phi, order).critical for i in edge}
        assert set(target[howard].tolist()) <= critical, (label, draw)
        frame = _maxplus_frame(n, src, dst, w)
        with monkeypatch.context() as karp_only:
            karp_only.setattr(_perron, "_HOWARD_STATES", n + 1)
            karp = _maxplus_frame(n, src, dst, w)
        for mine, theirs in zip(frame, karp):
            assert mine[~howard].tobytes() == theirs[~howard].tobytes(), (label, draw)
        certified += np.count_nonzero(howard)
        uncertified += np.count_nonzero(~howard)
    assert certified and uncertified  # both routes were taken
    digest = hashlib.sha256()
    for label, draw, n, src, dst, phi, order in cap_frames(lambda n: n < _perron._HOWARD_STATES):
        for part in _maxplus_frame(n, src, dst, FRAME_SCALES[:, None] * edge_weights(phi, order)):
            digest.update(part.tobytes())
    assert digest.hexdigest() == KARP_FRAMES_BELOW_CROSSOVER


def test_howards_sweeps_leave_no_trace_in_a_certified_row(monkeypatch):
    # `_LOOKAHEAD` only steers the search: the near-cap graphs of 64 to 256
    # states, under their N(0, 1) or tied values and two more edge draws at
    # four scales, certify the same rows with the same beta, target and
    # bias at every setting, while the policy steps taken differ.
    rng = np.random.default_rng(25)
    scales = np.array([1.0, 10.0, 500.0, 1e4])
    steps, policy_values = {}, _perron._policy_values

    def counted(*args):
        steps[lookahead] += 1
        return policy_values(*args)

    monkeypatch.setattr(_perron, "_policy_values", counted)
    certified = 0
    for label, draw, n, src, dst, phi, order in cap_frames(lambda n: 64 <= n <= 256):
        draws = [edge_weights(phi, order), rng.normal(size=len(src)), np.round(2.0 * rng.normal(size=len(src)))]
        w = (scales[:, None, None] * np.array(draws)).reshape(-1, len(src))
        runs = []
        for lookahead in (0, 3, 10, 25):
            steps.setdefault(lookahead, 0)
            monkeypatch.setattr(_perron, "_LOOKAHEAD", lookahead)
            runs.append(_perron._howard(n, src, dst, w))
        mask = runs[0][0]
        for run in runs[1:]:
            assert run[0].tobytes() == mask.tobytes(), (label, draw)
            for mine, theirs in zip(run[1:], runs[0][1:]):
                assert mine[mask].tobytes() == theirs[mask].tobytes(), (label, draw)
        certified += np.count_nonzero(mask)
    assert certified == 96 and len(set(steps.values())) == 4, (certified, steps)


# sha256 of every field of `solve_stack` on the near-cap graphs of at least
# 64 states at t = 1, pinned before the policy steps of `_howard` and the
# plain step of `perron_stack` were reworked: both keep every bit.  Taken
# again when plain slices began to take the enclosure once per four
# products, with the default OpenBLAS threads.
SOLVES_FROM_64_STATES = "3997041e3222d59b285f4458b03d5d658ead07e917ec847403fe5e751a97ae37"


def test_solves_from_64_states_keep_their_bits():
    digest = hashlib.sha256()
    for label, draw, n, src, dst, phi, order in cap_frames(lambda n: n >= 64):
        solve = _perron.solve_stack(n, src, dst, edge_weights(phi, order)[None])
        for field in (solve.value, solve.maxplus_right, solve.frame_w, solve.frame_right,
                      solve.frame_left, solve.residuals, solve.iterations, solve.noda):
            digest.update(field.tobytes())
    assert digest.hexdigest() == SOLVES_FROM_64_STATES


# sha256 of `_maxplus_frame` (all four outputs) and `_howard`'s certified
# flags on stacks of 2 to 8 rows on the near-cap graphs of at least 64
# states, and of `perron_stack` on stacks that mix plain slices with
# slices that switch to Noda's phase; pinned before the shortcuts of
# `_howard`, `_policy_values` and `perron_stack` were deleted, and taken
# again when plain slices began to take the enclosure once per four products.
STACKED_FRAMES_AND_PHASES = "24cd208dedb387af69c62f516dd854ee535d2d1bf62df528af05c09a1aa9f73b"


def test_stacked_frames_and_mixed_phases_keep_their_bits():
    digest = hashlib.sha256()
    rng = np.random.default_rng(2026)
    for label, draw, n, src, dst, phi, order in cap_frames(lambda n: n >= 64):
        if draw != "normal":  # one stack per graph
            continue
        size = int(rng.integers(2, 9))
        rows = []
        for kind, scale in zip(rng.integers(0, 3, size).tolist(), rng.choice(FRAME_SCALES, size).tolist()):
            if kind == 0:
                values = rng.normal(size=len(src))
            elif kind == 1:
                values = rng.choice([-0.5, 0.0, 0.25], size=len(src))
            else:
                values = np.round(2.0 * rng.normal(size=len(src)))
            rows.append(scale * values)
        w = np.array(rows)
        for part in _maxplus_frame(n, src, dst, w):
            digest.update(part.tobytes())
        digest.update(_perron._howard(n, src, dst, w)[0].tobytes())
    # diag(d)^-1 (0.03 J/n + 0.97 I) diag(d) switches to Noda's phase at
    # the probe; the random dense slices certify in plain steps.
    n = 64
    d = np.exp(np.linspace(0.0, -1.0, n))
    steady = (np.full((n, n), 0.03 / n) + 0.97 * np.eye(n)) * d / d[:, None]
    fast = rng.uniform(0.1, 1.0, (5, n, n))
    fast /= fast.max(axis=2, keepdims=True)
    for stack in ([steady, fast[0]], [fast[1], steady, steady.T], [*fast, steady], [*fast[:2]]):
        for part in _perron.perron_stack(np.array(stack)):
            digest.update(part.tobytes())
    assert digest.hexdigest() == STACKED_FRAMES_AND_PHASES
