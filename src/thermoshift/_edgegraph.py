"""Edge-indexed presentation of a potential.

Every memory-k potential becomes an edge weight function on the graph
whose vertices are the admissible ``max(k-1, 1)``-blocks, with an edge
``b -> c`` whenever the blocks overlap and the joined word is
admissible; the graph comes from :func:`sft.block_graph`.  All spectral
and cycle computations happen on this graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .potentials import Potential
from .sft import Block, Sft, block_graph


@dataclass(frozen=True)
class EdgeGraph:
    """Weighted digraph carrying a potential in edge-indexed form."""

    sft: Sft
    order: int
    states: tuple[Block, ...]
    logw: np.ndarray = field(repr=False)  # -inf on non-edges

    @property
    def n_states(self) -> int:
        return len(self.states)

    def edges(self):
        """Iterate (i, j, weight) over admissible edges."""
        ii, jj = np.nonzero(np.isfinite(self.logw))
        for i, j in zip(ii.tolist(), jj.tolist()):
            yield i, j, float(self.logw[i, j])


def graph_order(memory: int) -> int:
    """Vertex block length needed to carry a memory-``memory`` potential
    on edges."""
    return max(memory - 1, 1)


def build_edge_graph(sft: Sft, phi: Potential, order: int | None = None) -> EdgeGraph:
    """Edge-indexed form of ``phi`` at the given (or minimal) vertex order."""
    if order is None:
        order = graph_order(phi.memory)
    if order + 1 < phi.memory:
        raise ValueError(
            f"order {order} cannot carry a memory-{phi.memory} potential"
        )
    states, src, dst = block_graph(sft, order)
    # Edge e is the e-th (order+1)-block; the src arrays of the lower
    # orders map it to its memory-prefix, the index of its value.
    prefix = np.arange(len(src))
    for k in range(order, phi.memory - 1, -1):
        prefix = block_graph(sft, k)[1][prefix]
    values = np.fromiter(phi.values.values(), float, len(phi.values))
    logw = np.full((len(states), len(states)), -np.inf)
    logw[src, dst] = values[prefix]
    return EdgeGraph(sft, order, states, logw)
