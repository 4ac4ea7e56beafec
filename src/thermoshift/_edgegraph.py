"""Edge-indexed presentation of a potential.

Every memory-k potential becomes an edge weight function on the graph
whose vertices are the admissible ``max(k-1, 1)``-blocks, with an edge
``b -> c`` whenever the blocks overlap and the joined word is
admissible; the graph comes from :func:`sft.block_graph`.  All spectral
and cycle computations happen on this graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .potentials import Potential
from .sft import block_graph

if TYPE_CHECKING:
    from . import maxplus


def graph_order(*memories: int) -> int:
    """Vertex block length needed to carry potentials of every memory in
    ``memories`` on edges."""
    return max(max(memories) - 1, 1)


def edge_weights(phi: Potential, order: int) -> np.ndarray:
    """Values of ``phi`` on the edges of ``block_graph(phi.sft, order)``,
    aligned with its ``src, dst``; built once per ``(phi, order)``, cached
    on ``phi`` and read-only.  Two concurrent first calls may both build
    the vector, which is harmless."""
    weights = phi._edge_weights.get(order)
    if weights is None:
        weights = phi._edge_weights[order] = _build_edge_weights(phi, order)
    return weights


def _build_edge_weights(phi: Potential, order: int) -> np.ndarray:
    if order + 1 < phi.memory:
        raise ValueError(
            f"order {order} cannot carry a memory-{phi.memory} potential"
        )
    # Edge e is the e-th (order+1)-block; the src arrays of the lower
    # orders map it to its memory-prefix, the index of its value.
    prefix = np.arange(len(block_graph(phi.sft, order)[1]))
    for k in range(order, phi.memory - 1, -1):
        prefix = block_graph(phi.sft, k)[1][prefix]
    values = np.fromiter(phi.values.values(), float, len(phi.values))
    weights = values[prefix]
    weights.flags.writeable = False
    return weights


def maxplus_data(phi: Potential, order: int) -> maxplus.MaxPlusData:
    """Exact max-plus analysis of ``phi`` on ``block_graph(phi.sft,
    order)``; run once per ``(phi, order)`` and cached on ``phi``.  The
    edges reach `maxplus.analyze` in row-major order.  Two concurrent
    first calls may both run the analysis, which is harmless."""
    data = phi._maxplus_data.get(order)
    if data is None:
        from . import maxplus  # here, so that a pressure loads no max-plus code

        states, src, dst = block_graph(phi.sft, order)
        weights = edge_weights(phi, order)
        data = phi._maxplus_data[order] = maxplus.analyze(
            len(states), zip(src.tolist(), dst.tolist(), weights.tolist())
        )
    return data

