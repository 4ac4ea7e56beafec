"""Primitive subshifts of finite type and their block combinatorics.

A subshift of finite type (SFT) is the space of one-sided symbol
sequences over a finite alphabet whose adjacent pairs are allowed by a
0/1 transition matrix; the dynamics is the left shift.  Primitivity
(some matrix power entrywise positive) is required at construction so
that every locally constant potential has a unique equilibrium state
and a simple dominant eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BlockLengthError,
    NotPrimitiveError,
    NotSquareError,
    StrandedSymbolError,
    ValidationError,
)

# A block is a finite admissible word, represented as a tuple of symbols.
Block = tuple[int, ...]

# Most admissible blocks one listing may hold.  Dense tables are indexed
# by listed blocks, so each float64 one stays within 8 * MAX_BLOCKS**2
# bytes = 128 MiB.  A sweep of a ray is solved in stacks of such tables
# that hold at most paths._STACK_ENTRIES = 2**18 entries (2 MiB) each,
# or one table where a single table is larger.
MAX_BLOCKS = 4096


@dataclass(frozen=True, eq=False)
class Sft:
    """A primitive subshift of finite type.

    The sequence space carries the usual metric ``2**-n`` by first
    disagreement; it never enters any computation here because every
    potential is locally constant.

    Parameters
    ----------
    alphabet_size : int
        Number of symbols; symbols are ``0 .. alphabet_size - 1``.
    transitions : array-like of shape (alphabet_size, alphabet_size)
        Entry ``(i, j)`` is 1 iff symbol ``j`` may follow symbol ``i``.
    """

    alphabet_size: int
    transitions: np.ndarray = field(repr=False)

    def __post_init__(self):
        try:
            m = np.asarray(self.transitions)
        except ValueError as exc:  # numpy refuses ragged nested sequences
            raise NotSquareError("transition matrix rows differ in length") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.alphabet_size:
            raise NotSquareError(
                f"transition matrix must be {self.alphabet_size}x{self.alphabet_size}, "
                f"got shape {m.shape}"
            )
        if self.alphabet_size < 1:
            raise NotSquareError("alphabet_size must be a positive integer")
        if not np.isin(m, (0, 1)).all():
            raise NotSquareError("transition matrix entries must be 0 or 1")
        m = m.astype(np.int8)
        rows = m.sum(axis=1)
        cols = m.sum(axis=0)
        if (rows == 0).any():
            raise StrandedSymbolError(f"symbol {int(np.argmin(rows))} has no successor")
        if (cols == 0).any():
            raise StrandedSymbolError(f"symbol {int(np.argmin(cols))} has no predecessor")
        if not _is_primitive(m):
            raise NotPrimitiveError(
                "no power of the transition matrix up to the Wielandt bound "
                f"({wielandt_bound(self.alphabet_size)}) is entrywise positive"
            )
        m.flags.writeable = False
        object.__setattr__(self, "transitions", m)
        object.__setattr__(self, "_block_lists", {})
        object.__setattr__(self, "_block_graphs", {})
        object.__setattr__(self, "_out_edge_starts", {})

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Sft):
            return NotImplemented
        return self.alphabet_size == other.alphabet_size and np.array_equal(
            self.transitions, other.transitions
        )

    def __hash__(self):
        return hash((self.alphabet_size, self.transitions.tobytes()))

    def is_edge(self, i: int, j: int) -> bool:
        """True iff symbol ``j`` may follow symbol ``i``."""
        return bool(self.transitions[i, j])

    @cached_property
    def _topological_entropy(self) -> float:
        # Solved on first use rather than at construction, so building an
        # Sft (for instance a higher-block recoding) costs no eigensolve.
        # Only the value is read, so only the right side is solved.
        from ._perron import solve_stack

        states, src, dst = block_graph(self, 1)
        zero = np.zeros((1, len(src)))
        return float(solve_stack(len(states), src, dst, zero, left=False).value[0])


def wielandt_bound(n: int) -> int:
    """Sharp exponent bound: an n x n primitive matrix has a positive power
    of exponent at most (n-1)^2 + 1."""
    return (n - 1) ** 2 + 1


def _is_primitive(m: np.ndarray) -> bool:
    # A is primitive iff A**w is positive for the Wielandt exponent w; repeated
    # squaring reaches an exponent >= w in O(log w) boolean matrix products.
    # The 0/1 squares run in float64, which has a BLAS product (int32 has
    # none); their entries count at most n paths, exactly.
    bound = wielandt_bound(m.shape[0])
    power = (m > 0).astype(float)
    exponent = 1
    while exponent < bound:
        if power.all():
            return True
        power = ((power @ power) > 0).astype(float)
        exponent *= 2
    return bool(power.all())


def build_sft(alphabet_size: int, transitions) -> Sft:
    """Validate and build a primitive SFT from a 0/1 transition matrix."""
    return Sft(alphabet_size, transitions)


def full_shift(alphabet_size: int) -> Sft:
    """The full shift on ``alphabet_size`` symbols (all transitions allowed)."""
    return Sft(alphabet_size, np.ones((alphabet_size, alphabet_size), dtype=np.int8))


def golden_mean_shift() -> Sft:
    """The golden-mean shift: two symbols, word ``11`` forbidden."""
    return Sft(2, [[1, 1], [1, 0]])


def is_admissible_block(sft: Sft, word) -> bool:
    """True iff every adjacent pair of ``word`` is an allowed transition."""
    word = tuple(word)
    if len(word) == 0:
        return False
    if any(s < 0 or s >= sft.alphabet_size for s in word):
        return False
    return all(sft.is_edge(word[i], word[i + 1]) for i in range(len(word) - 1))


def admissible_blocks(sft: Sft, k: int) -> list[Block]:
    """All admissible words of length ``k`` in lexicographic order, as a
    fresh list; more than ``MAX_BLOCKS`` of them raise ``ValidationError``
    before listing."""
    return list(_listed_blocks(sft, k))


def _listed_blocks(sft: Sft, k: int) -> tuple[Block, ...]:
    """The listing of `admissible_blocks`, made once per ``(sft, k)`` and
    cached on ``sft``.  Two concurrent first calls may both make it,
    which is harmless."""
    if k < 1:
        raise BlockLengthError(f"block length must be >= 1, got {k}")
    listed = sft._block_lists.get(k)
    if listed is not None:
        return listed
    # ends[s]: j-blocks ending in s, so the k-block count is the entry sum
    # of A^(k-1) (Lind and Marcus, 2.2); stopping once a length exceeds the
    # cap keeps every product below alphabet_size * MAX_BLOCKS.
    ends = np.ones(sft.alphabet_size, dtype=np.int64)
    for _ in range(k - 1):
        if ends.sum() > MAX_BLOCKS:
            break
        ends = ends @ sft.transitions
    if ends.sum() > MAX_BLOCKS:
        raise ValidationError(
            f"at least {ends.sum()} admissible {k}-blocks, over the cap of {MAX_BLOCKS}"
        )
    blocks: list[Block] = [(s,) for s in range(sft.alphabet_size)]
    for _ in range(k - 1):
        blocks = [
            b + (s,)
            for b in blocks
            for s in range(sft.alphabet_size)
            if sft.is_edge(b[-1], s)
        ]
    listed = sft._block_lists[k] = tuple(blocks)
    return listed


def topological_entropy(sft: Sft) -> float:
    """Topological entropy in nats: log of the Perron eigenvalue of the
    transition matrix, solved once per ``Sft`` and cached on it."""
    return sft._topological_entropy


def block_graph(sft: Sft, k: int) -> tuple[tuple[Block, ...], np.ndarray, np.ndarray]:
    """Higher-block graph on the admissible ``k``-blocks, cached on ``sft``.

    Returns the blocks in lexicographic order and read-only arrays
    ``src, dst``: edge ``e`` is the ``e``-th admissible ``(k+1)``-block,
    read from its prefix ``states[src[e]]`` to its suffix ``states[dst[e]]``.
    Two concurrent first calls may both build the graph, which is harmless.
    """
    if k < 1:
        raise BlockLengthError(f"block length must be >= 1, got {k}")
    graph = sft._block_graphs.get(k)
    if graph is None:
        states = _listed_blocks(sft, k)
        index = {b: i for i, b in enumerate(states)}
        follow = [np.flatnonzero(row).tolist() for row in sft.transitions]
        edges = [
            (i, index[b[1:] + (s,)])
            for i, b in enumerate(states)
            for s in follow[b[-1]]
        ]
        src, dst = np.array(edges, dtype=np.intp).T.copy()
        src.flags.writeable = False
        dst.flags.writeable = False
        graph = sft._block_graphs[k] = (states, src, dst)
    return graph


def out_edge_starts(sft: Sft, k: int) -> np.ndarray:
    """Read-only index of the first out-edge of each state of
    ``block_graph(sft, k)``, cached on ``sft``: the edges are listed by
    source and every state has one, so state ``i`` leaves by the edges
    ``starts[i]`` up to the next state's start (the segments of
    ``np.add.reduceat``)."""
    starts = sft._out_edge_starts.get(k)
    if starts is None:
        states, src, _ = block_graph(sft, k)
        starts = sft._out_edge_starts[k] = np.searchsorted(src, np.arange(len(states)))
        starts.flags.writeable = False
    return starts


def recode_to_edge_shift(sft: Sft, k: int) -> tuple[Sft, dict[Block, int]]:
    """Higher-block presentation on admissible ``k``-blocks.

    The recoded SFT has one symbol per admissible k-block, with a
    transition from block ``b`` to block ``c`` iff they overlap in k-1
    symbols and the joined (k+1)-word is admissible.  A memory-(k+1)
    potential on the original shift becomes edge-indexed (memory 2) on
    the recoding, and topological entropy is preserved.

    Returns the recoded SFT together with the block -> symbol index map.
    """
    states, src, dst = block_graph(sft, k)
    m = np.zeros((len(states), len(states)), dtype=np.int8)
    m[src, dst] = 1
    return Sft(len(states), m), {b: i for i, b in enumerate(states)}
