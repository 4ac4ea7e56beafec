import math

import pytest

import thermoshift as ts
from thermoshift.errors import (
    MismatchedSystemError,
    NoSelfLoopError,
    ValidationError,
    WordTooShortError,
)

import oracles


def test_sup_norm_zero(full2):
    assert ts.sup_norm(ts.zero_potential(full2)) == 0.0


def test_sup_norm_fixed_point(full2):
    assert ts.sup_norm(ts.fixed_point_potential(full2, 0)) == 1.0


def test_sup_norm_mixed_table(full2):
    phi = ts.Potential(
        full2, 2, {(0, 0): 0.3, (0, 1): -0.7, (1, 0): 0.1, (1, 1): 0.2}
    )
    assert ts.sup_norm(phi) == 0.7


def test_table_must_cover_admissible_blocks(golden):
    with pytest.raises(ValidationError, match="missing"):
        ts.Potential(golden, 2, {(0, 0): 0.0, (0, 1): 1.0})
    with pytest.raises(ValidationError, match="inadmissible"):
        ts.Potential(golden, 2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 2.0})
    with pytest.raises(ValidationError, match="finite"):
        ts.Potential(golden, 1, {(0,): math.inf, (1,): 0.0})


def test_combine_at_zero_lifts_psi(full2):
    psi = ts.Potential(full2, 1, {(0,): 0.25, (1,): -0.5})
    phi = ts.fixed_point_potential(full2, 0)
    combined = ts.combine(psi, phi, 0.0)
    assert combined.memory == 2
    assert combined.values[(0, 1)] == 0.25
    assert combined.values[(1, 1)] == -0.5


def test_combine_scales(full2):
    phi = ts.fixed_point_potential(full2, 0)
    tripled = ts.combine(ts.zero_potential(full2), phi, 3.0)
    assert tripled.values[(0, 0)] == 0.0
    assert tripled.values[(1, 0)] == -3.0


def test_combine_mixed_memories(full2):
    psi = ts.Potential(full2, 1, {(0,): 0.5, (1,): -0.25})
    phi = ts.Potential(
        full2, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): -1.0, (1, 1): 0.5}
    )
    combined = ts.combine(psi, phi, 1.0)
    assert combined.memory == 2
    for block in ts.admissible_blocks(full2, 2):
        assert combined.values[block] == psi.values[block[:1]] + phi.values[block]


def test_combine_rejects_mismatched_systems(full2, golden):
    with pytest.raises(MismatchedSystemError):
        ts.combine(ts.zero_potential(full2), ts.zero_potential(golden), 1.0)


# Each public entry that takes an Sft, besides `pressure` and
# `lipschitz_check` (tested in test_transfer.py), called on full2 with `p`,
# a potential over it, and `q`, a potential over the golden mean.
ENTRIES_OVER_AN_SFT = {
    "equilibrium_state": lambda f, p, q: ts.equilibrium_state(f, q),
    "pressure_and_equilibrium": lambda f, p, q: ts.pressure_and_equilibrium(f, q),
    "variational_identity_check": lambda f, p, q: ts.variational_identity_check(f, q),
    "max_ergodic_average": lambda f, p, q: ts.max_ergodic_average(f, q),
    "ground_state_pressure_bound[psi]": lambda f, p, q: ts.ground_state_pressure_bound(f, q, p),
    "ground_state_pressure_bound[phi]": lambda f, p, q: ts.ground_state_pressure_bound(f, p, q),
    "zero_temperature_diagnostics": lambda f, p, q: ts.zero_temperature_diagnostics(f, q, [1.0]),
    "sweep": lambda f, p, q: ts.sweep(f, p, q, [0.0, 1.0]),
    "sample_at": lambda f, p, q: ts.sample_at(f, p, q, 1.0),
    "solve_intermediate_entropy": lambda f, p, q: ts.solve_intermediate_entropy(f, q, 0.5),
    "solve_intermediate_pressure": lambda f, p, q: ts.solve_intermediate_pressure(f, p, q, 0.5),
    "equilibrium_continuity_check": lambda f, p, q: ts.equilibrium_continuity_check(f, q, q, 10),
}


@pytest.mark.parametrize("entry", list(ENTRIES_OVER_AN_SFT))
def test_every_entry_rejects_an_operand_over_another_subshift(entry, full2, golden):
    p = ts.Potential(full2, 1, {(0,): 0.0, (1,): -1.0})
    q = ts.Potential(golden, 1, {(0,): 0.0, (1,): -1.0})
    with pytest.raises(MismatchedSystemError):
        ENTRIES_OVER_AN_SFT[entry](full2, p, q)


def test_combine_is_affine_dyadic(full2):
    # dyadic tables and weights make the affinity identity exact in floats
    psi = ts.Potential(full2, 1, {(0,): 0.75, (1,): -1.5})
    phi = ts.Potential(
        full2, 2, {(0, 0): 0.5, (0, 1): -0.25, (1, 0): 2.0, (1, 1): 1.25}
    )
    t, s = 0.5, 2.0
    mid = ts.combine(psi, phi, (t + s) / 2)
    at_t = ts.combine(psi, phi, t)
    at_s = ts.combine(psi, phi, s)
    for block in ts.admissible_blocks(full2, 2):
        assert mid.values[block] == (at_t.values[block] + at_s.values[block]) / 2


def test_combine_affine_general(rng, golden):
    psi = ts.Potential(golden, 1, oracles.random_values(rng, golden.transitions, 1))
    phi = ts.Potential(golden, 2, oracles.random_values(rng, golden.transitions, 2))
    t, s = 0.3, 1.7
    mid = ts.combine(psi, phi, (t + s) / 2)
    at_t = ts.combine(psi, phi, t)
    at_s = ts.combine(psi, phi, s)
    for block in ts.admissible_blocks(golden, 2):
        assert mid.values[block] == pytest.approx(
            (at_t.values[block] + at_s.values[block]) / 2, abs=1e-12
        )


def test_sup_norm_difference_identity(full2):
    psi = ts.Potential(full2, 1, {(0,): 0.5, (1,): -0.25})
    phi = ts.Potential(
        full2, 2, {(0, 0): 0.5, (0, 1): -1.0, (1, 0): 0.25, (1, 1): 0.75}
    )
    for t, s in [(0.0, 1.0), (0.5, 2.0), (1.0, 4.0)]:
        diff = ts.combine(ts.combine(psi, phi, t), ts.combine(psi, phi, s), -1.0)
        assert ts.sup_norm(diff) == abs(t - s) * ts.sup_norm(phi)


def test_lift_preserves_norm_and_sums(golden):
    phi = ts.Potential(golden, 2, {(0, 0): 0.5, (0, 1): -1.25, (1, 0): 0.75})
    lifted = ts.lift_to_memory(phi, 4)
    assert ts.sup_norm(lifted) == ts.sup_norm(phi)
    word = (0, 1, 0, 0, 1, 0, 0, 0)
    for n in range(1, 5):
        assert ts.birkhoff_sum(lifted, word, n) == ts.birkhoff_sum(phi, word, n)


def test_lift_cannot_lower_memory(golden):
    phi = ts.Potential(golden, 2, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0})
    with pytest.raises(ValidationError):
        ts.lift_to_memory(phi, 1)


def test_fixed_point_tables(full2, golden):
    phi = ts.fixed_point_potential(full2, 0)
    assert dict(phi.values) == {(0, 0): 0.0, (0, 1): -1.0, (1, 0): -1.0, (1, 1): -1.0}
    phi = ts.fixed_point_potential(golden, 0)
    assert dict(phi.values) == {(0, 0): 0.0, (0, 1): -1.0, (1, 0): -1.0}


def test_fixed_point_requires_self_loop(golden):
    with pytest.raises(NoSelfLoopError):
        ts.fixed_point_potential(golden, 1)


@pytest.mark.parametrize("p", [0.0, 1.0, "0", -1, 2])
def test_fixed_point_refuses_what_is_not_a_symbol(golden, p):
    with pytest.raises(ValidationError, match="is not a symbol of the alphabet"):
        ts.fixed_point_potential(golden, p)


def test_birkhoff_constant(full2):
    const = ts.constant_potential(full2, 0.3, memory=2)
    assert ts.birkhoff_sum(const, (0, 1, 1, 0, 1), 4) == pytest.approx(4 * 0.3)


def test_birkhoff_on_fixed_orbit(full2):
    phi = ts.fixed_point_potential(full2, 0)
    assert ts.birkhoff_sum(phi, (0,) * 8, 7) == 0.0
    # alternating word: every window is 01 or 10
    assert ts.birkhoff_sum(phi, (0, 1, 0, 1, 0), 4) == -4.0


def test_birkhoff_word_too_short(full2):
    phi = ts.fixed_point_potential(full2, 0)
    with pytest.raises(WordTooShortError):
        ts.birkhoff_sum(phi, (0, 1), 2)


def test_value_on_ignores_trailing_symbols(golden):
    phi = ts.Potential(golden, 1, {(0,): 1.5, (1,): -2.0})
    assert phi.value_on((0, 1, 0)) == 1.5
    assert phi.value_on((1, 0, 0)) == -2.0
    with pytest.raises(WordTooShortError):
        ts.fixed_point_potential(golden, 0).value_on((0,))


def test_oversized_potential_is_refused_before_listing(no_block_listing):
    big = ts.full_shift(40)
    with pytest.raises(ValidationError, match="at least .* admissible 6-blocks, over the cap"):
        ts.Potential(big, 6, {})
    with pytest.raises(ValidationError, match="over the cap"):
        ts.zero_potential(big, 6)
