"""Locally constant potentials on a subshift and their algebra.

A potential of memory ``k`` assigns a real value (in nats) to every
admissible k-block; it induces a continuous function on the shift space
that depends only on the first k symbols.  Potentials over the same
subshift form an affine family under :func:`combine`, which lifts both
operands to a common memory by ignoring trailing symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .errors import (
    MismatchedSystemError,
    NoSelfLoopError,
    ValidationError,
    WordTooShortError,
)
from .sft import Block, Sft, admissible_blocks


@dataclass(frozen=True, eq=False)
class Potential:
    """A locally constant potential: a value table over admissible k-blocks.

    ``values`` iterates in lexicographic block order, whatever the order
    of the table it was built from.
    """

    sft: Sft
    memory: int
    values: Mapping[Block, float] = field(repr=False)

    def __post_init__(self):
        if self.memory < 1:
            raise ValidationError(f"memory must be >= 1, got {self.memory}")
        table = {tuple(b): float(v) for b, v in self.values.items()}
        expected = admissible_blocks(self.sft, self.memory)
        missing = [b for b in expected if b not in table]
        if missing:
            raise ValidationError(
                f"missing value for admissible block(s): {_word_strs(missing)}"
            )
        extra = sorted(set(table) - set(expected))
        if extra:
            raise ValidationError(
                f"value given for inadmissible block(s): {_word_strs(extra)}"
            )
        bad = [b for b, v in table.items() if not math.isfinite(v)]
        if bad:
            raise ValidationError(f"non-finite value on block(s): {_word_strs(bad)}")
        table = dict(sorted(table.items()))
        object.__setattr__(self, "values", MappingProxyType(table))
        # order -> read-only edge weights, filled by `_edgegraph.edge_weights`
        object.__setattr__(self, "_edge_weights", {})
        # order -> exact max-plus data, filled by `_edgegraph.maxplus_data`
        object.__setattr__(self, "_maxplus_data", {})

    def value_on(self, word: Block) -> float:
        """Value on a word of length >= memory (trailing symbols ignored)."""
        if len(word) < self.memory:
            raise WordTooShortError(
                f"word of length {len(word)} is shorter than memory {self.memory}"
            )
        return self.values[tuple(word[: self.memory])]

    def __eq__(self, other):
        if not isinstance(other, Potential):
            return NotImplemented
        return (
            self.sft == other.sft
            and self.memory == other.memory
            and dict(self.values) == dict(other.values)
        )


def _word_strs(words) -> str:
    return ", ".join("".join(map(str, w)) for w in words)


def zero_potential(sft: Sft, memory: int = 1) -> Potential:
    """The identically-zero potential."""
    return constant_potential(sft, 0.0, memory)


def constant_potential(sft: Sft, c: float, memory: int = 1) -> Potential:
    """The potential equal to ``c`` on every block."""
    return Potential(sft, memory, {b: c for b in admissible_blocks(sft, memory)})


def sup_norm(phi: Potential) -> float:
    """Supremum norm of the induced function on the shift space."""
    return max(abs(v) for v in phi.values.values())


def _require_over(sft: Sft, *operands):
    """Refuse any operand, a potential or a measure, defined over a
    subshift other than ``sft``."""
    for operand in operands:
        if operand.sft != sft:
            raise MismatchedSystemError("operand is defined over a different subshift")


def combine(psi: Potential, phi: Potential, t: float) -> Potential:
    """The potential ``psi + t * phi`` at the common memory.

    Both tables are lifted to memory ``max(k_psi, k_phi)`` by reading
    only the leading symbols of each block, then combined blockwise.
    """
    _require_over(psi.sft, phi)
    k = max(psi.memory, phi.memory)
    table = {
        b: psi.values[b[: psi.memory]] + t * phi.values[b[: phi.memory]]
        for b in admissible_blocks(psi.sft, k)
    }
    return Potential(psi.sft, k, table)


def lift_to_memory(phi: Potential, memory: int) -> Potential:
    """Re-express ``phi`` as a memory-``memory`` table (memory may only grow)."""
    if memory < phi.memory:
        raise ValidationError(
            f"cannot lower memory from {phi.memory} to {memory}"
        )
    if memory == phi.memory:
        return phi
    table = {
        b: phi.values[b[: phi.memory]]
        for b in admissible_blocks(phi.sft, memory)
    }
    return Potential(phi.sft, memory, table)


def fixed_point_potential(sft: Sft, p: int) -> Potential:
    """Ground-state potential pinned at the fixed point ``p``.

    Memory-2 table equal to 0 on the self-loop block ``pp`` and -1 on
    every other admissible 2-block.  Its unique maximizing measure is
    the point mass on the constant sequence at ``p``, which has zero
    entropy.
    """
    if not (0 <= p < sft.alphabet_size):
        raise ValidationError(f"symbol {p} outside alphabet")
    if not sft.is_edge(p, p):
        raise NoSelfLoopError(f"symbol {p} has no self-loop: block {p}{p} forbidden")
    table = {
        b: 0.0 if b == (p, p) else -1.0
        for b in admissible_blocks(sft, 2)
    }
    return Potential(sft, 2, table)


def birkhoff_sum(phi: Potential, word, n: int) -> float:
    """Sum of ``phi`` over the first ``n`` windows of ``word``.

    The word must contain at least ``n + memory - 1`` symbols.
    """
    word = tuple(word)
    if n < 1:
        raise ValidationError(f"number of windows must be >= 1, got {n}")
    if len(word) < n + phi.memory - 1:
        raise WordTooShortError(
            f"word of length {len(word)} has fewer than {n} windows of "
            f"memory {phi.memory}"
        )
    return math.fsum(
        phi.values[word[i : i + phi.memory]] for i in range(n)
    )
