import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import thermoshift as ts
from thermoshift import _perron
from thermoshift.errors import (
    BlockLengthError,
    NotPrimitiveError,
    NotSquareError,
    StrandedSymbolError,
)
from thermoshift.sft import block_graph

import oracles

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def test_full_shift_is_valid():
    sft = ts.build_sft(2, [[1, 1], [1, 1]])
    assert sft.alphabet_size == 2


def test_golden_mean_is_valid():
    # square of the matrix is entrywise positive
    sft = ts.build_sft(2, [[1, 1], [1, 0]])
    assert (np.linalg.matrix_power(sft.transitions, 2) > 0).all()


def test_permutation_matrix_rejected():
    with pytest.raises(NotPrimitiveError):
        ts.build_sft(2, [[1, 0], [0, 1]])


def test_two_cycle_rejected():
    with pytest.raises(NotPrimitiveError):
        ts.build_sft(2, [[0, 1], [1, 0]])


def test_not_square_rejected():
    with pytest.raises(NotSquareError):
        ts.build_sft(2, [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(NotSquareError):
        ts.build_sft(2, [[1, 1, 1], [1, 1, 1]])


def test_non_binary_entries_rejected():
    with pytest.raises(NotSquareError):
        ts.build_sft(2, [[1, 2], [1, 1]])


def test_stranded_symbols_rejected():
    with pytest.raises(StrandedSymbolError):
        ts.build_sft(2, [[1, 1], [0, 0]])  # empty row
    with pytest.raises(StrandedSymbolError):
        ts.build_sft(2, [[1, 0], [1, 0]])  # empty column


@pytest.mark.parametrize(
    "matrix,expected",
    [
        ([[1, 1], [1, 1]], math.log(2)),
        ([[1, 1], [1, 0]], math.log(GOLDEN_RATIO)),
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], math.log(3)),
    ],
)
def test_topological_entropy(matrix, expected):
    sft = ts.build_sft(len(matrix), matrix)
    assert ts.topological_entropy(sft) == pytest.approx(expected, abs=1e-12)


def test_blocks_full_shift(full2):
    assert ts.admissible_blocks(full2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_blocks_golden_mean(golden):
    assert ts.admissible_blocks(golden, 2) == [(0, 0), (0, 1), (1, 0)]
    # block counts follow the Fibonacci recurrence
    assert len(ts.admissible_blocks(golden, 4)) == 8


def test_blocks_are_lexicographic(golden):
    blocks = ts.admissible_blocks(golden, 3)
    assert blocks == sorted(blocks)


def test_block_length_zero_rejected(golden):
    with pytest.raises(BlockLengthError):
        ts.admissible_blocks(golden, 0)


def test_block_count_matches_matrix_power(rng):
    for _ in range(10):
        m = oracles.random_primitive_transitions(rng)
        sft = ts.build_sft(len(m), m)
        for k in range(1, 5):
            count = len(ts.admissible_blocks(sft, k))
            assert count == int(np.linalg.matrix_power(m, k - 1).sum())


def test_admissibility_predicate(golden):
    assert ts.is_admissible_block(golden, (0, 1, 0))
    assert not ts.is_admissible_block(golden, (0, 1, 1))
    assert not ts.is_admissible_block(golden, ())
    assert not ts.is_admissible_block(golden, (2,))


def test_recode_identity(golden):
    recoded, index = ts.recode_to_edge_shift(golden, 1)
    assert np.array_equal(recoded.transitions, golden.transitions)
    assert index == {(0,): 0, (1,): 1}


def test_recode_full_shift_de_bruijn(full2):
    recoded, index = ts.recode_to_edge_shift(full2, 2)
    assert recoded.alphabet_size == 4
    assert int(recoded.transitions.sum()) == 8
    assert ts.topological_entropy(recoded) == pytest.approx(math.log(2), abs=1e-10)


def test_recode_golden_mean(golden):
    recoded, index = ts.recode_to_edge_shift(golden, 2)
    assert recoded.alphabet_size == 3
    assert int(recoded.transitions.sum()) == 5
    assert ts.topological_entropy(recoded) == pytest.approx(
        math.log(GOLDEN_RATIO), abs=1e-10
    )
    assert set(index) == {(0, 0), (0, 1), (1, 0)}


def test_recode_preserves_entropy(rng, full2, golden, full3):
    systems = [full2, golden, full3]
    for _ in range(3):
        m = oracles.random_primitive_transitions(rng, max_alphabet=4)
        systems.append(ts.build_sft(len(m), m))
    for sft in systems:
        base = ts.topological_entropy(sft)
        for k in range(1, 5):
            recoded, _ = ts.recode_to_edge_shift(sft, k)
            assert ts.topological_entropy(recoded) == pytest.approx(base, abs=1e-10)


def test_topological_entropy_solved_once_per_sft(monkeypatch, rng):
    calls = []
    original = _perron.log_perron_value

    def counting(logw, *args, **kwargs):
        calls.append(logw.shape)
        return original(logw, *args, **kwargs)

    m = oracles.random_primitive_transitions(rng)
    monkeypatch.setattr(_perron, "log_perron_value", counting)
    sft = ts.build_sft(len(m), m)
    assert calls == []  # nothing is solved at construction
    first = ts.topological_entropy(sft)
    assert ts.topological_entropy(sft) == first
    assert len(calls) == 1
    # an equal but distinct Sft solves afresh, to the same bits
    assert ts.topological_entropy(ts.build_sft(len(m), m)) == first
    assert len(calls) == 2
    uncached = original(np.where(np.asarray(m) > 0, 0.0, -np.inf))
    assert first == uncached


def test_recode_block_length_zero(golden):
    with pytest.raises(BlockLengthError):
        ts.recode_to_edge_shift(golden, 0)


def test_block_graph_matches_brute_force_words(rng):
    for _ in range(8):
        m = oracles.random_primitive_transitions(rng, max_alphabet=4)
        sft = ts.build_sft(len(m), m)
        for k in range(1, 5):
            states, src, dst = block_graph(sft, k)
            assert list(states) == oracles.admissible_words(m, k)
            longer = oracles.admissible_words(m, k + 1)
            assert len(src) == len(dst) == len(longer)
            for e, word in enumerate(longer):
                assert states[src[e]] == word[:-1]
                assert states[dst[e]] == word[1:]


def test_block_graph_is_cached_and_read_only(golden):
    states, src, dst = block_graph(golden, 2)
    again = block_graph(golden, 2)
    assert again[0] is states and again[1] is src and again[2] is dst
    with pytest.raises(ValueError):
        src[0] = 1
    with pytest.raises(ValueError):
        dst[0] = 1
    with pytest.raises(BlockLengthError):
        block_graph(golden, 0)


def test_block_graph_concurrent_first_calls_agree(rng):
    m = oracles.random_primitive_transitions(rng, max_alphabet=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            sft = ts.build_sft(len(m), m)  # a fresh, empty cache
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(block_graph, sft, 3) for _ in range(16)]
                graphs = [f.result(timeout=60) for f in futures]
            states, src, dst = block_graph(sft, 3)
            for other in graphs:
                assert other[0] == states
                assert np.array_equal(other[1], src) and np.array_equal(other[2], dst)
    finally:
        sys.setswitchinterval(interval)


def test_potential_values_iterate_lexicographically(rng):
    m = oracles.random_primitive_transitions(rng, max_alphabet=4)
    sft = ts.build_sft(len(m), m)
    table = oracles.random_values(rng, m, 3)
    shuffled = dict(reversed(list(table.items())))
    phi = ts.Potential(sft, 3, shuffled)
    assert list(phi.values) == oracles.admissible_words(m, 3)
    assert dict(phi.values) == table


def test_primitivity_agrees_with_sequential_powers(rng):
    accepted = rejected = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        m = (rng.random((n, n)) < 0.4).astype(int)
        if (m.sum(axis=1) == 0).any() or (m.sum(axis=0) == 0).any():
            continue
        expected = oracles.primitive_by_sequential_powers(m)
        try:
            ts.build_sft(n, m)
            got = True
            accepted += 1
        except NotPrimitiveError:
            got = False
            rejected += 1
        assert got == expected
    assert accepted > 10 and rejected > 10  # both branches exercised


def test_sft_equality_and_hash(full2, golden):
    assert full2 == ts.full_shift(2)
    assert full2 != golden
    assert hash(full2) == hash(ts.full_shift(2))
