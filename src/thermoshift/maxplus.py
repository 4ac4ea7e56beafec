"""Exact max-plus spectral data for weighted digraphs.

Everything here runs in exact integer arithmetic on one common dyadic
scale: each weight is multiplied once by the common denominator of all
the weights (for floats, which are dyadic rationals, the largest one), so
every sum and comparison is a Python int operation, and
`fractions.Fraction` appears only in the result.  The maximum cycle mean,
the witness cycle and the critical subgraph are exact for any float edge
weights, and depend only on the graph and its weights.  The eigensolve's
float max-plus frame (`_perron._maxplus_frame`: Howard's policy
iteration in floats from ``_perron._HOWARD_STATES`` states where it
certifies a unique critical class, Karp's recurrence in floats
elsewhere) proposes a cycle; exact Bellman passes under the weights
minus its mean either reach a fixed point, which certifies the mean as
the maximum and gives the critical subgraph, or close a cycle of
positive weight in their parent pointers, which is the next proposal.
The witness is a fixed rule on the critical subgraph
(`canonical_witness`).

The graphs handled are strongly connected (they come from primitive
subshifts), with at most one edge per ordered vertex pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._perron import _maxplus_frame


@dataclass(frozen=True)
class MaxPlusData:
    """Spectral data of a max-plus matrix; a function of the graph and its
    weights only, not of the edge order.

    beta
        Maximum cycle mean.
    witness
        The simple cycle ``canonical_witness(critical)`` (vertex list,
        closing edge back to the first vertex implied); its mean is
        exactly ``beta``.
    critical
        Edge set of the critical subgraph: edges that saturate the
        Bellman equation ``v_i = max_j (w_ij - beta + v_j)`` and lie on
        a cycle of saturating edges.  Every cycle made of these edges
        has mean exactly ``beta``.
    classes
        The critical classes: the edges of ``critical`` grouped by the
        strongly connected components of the critical subgraph, as
        labelled once by `critical_classes`; each class's edges sorted,
        and the classes in order of their first edge.
    """

    beta: Fraction
    witness: tuple[int, ...]
    critical: frozenset[tuple[int, int]]
    classes: tuple[tuple[tuple[int, int], ...], ...]


def analyze(n_vertices: int, edges) -> MaxPlusData:
    """Full max-plus analysis of a strongly connected weighted digraph.

    ``edges`` is an iterable of ``(i, j, weight)``; weights may be
    floats, Fractions or ints.  Each Bellman round runs under the weights
    minus the mean of the current cycle; a round that reports a positive
    cycle raises the mean strictly, so the rounds end.
    """
    edges = list(edges)
    scale, scaled = _scaled_to_ints(edges)
    label = strongly_connected_components(n_vertices, [(i, j) for i, j, _ in scaled])
    if len(set(label)) > 1:
        raise ValueError("graph not strongly connected")
    weight_of = {(i, j): w for i, j, w in scaled}

    def weight(cycle):
        return sum(weight_of[e] for e in zip(cycle, cycle[1:] + cycle[:1]))

    cycle = _proposed_cycle(n_vertices, edges)
    while cycle is not None:
        # the cycle's mean is num / (scale * den); w - mean in units of
        # 1 / (scale * den)
        num, den = weight(cycle), len(cycle)
        normalized = [(i, j, w * den - num) for i, j, w in scaled]
        vec, cycle = bellman_longest_to(n_vertices, normalized, cycle[0])
    classes = critical_classes(n_vertices, normalized, vec)
    critical = frozenset(e for edges in classes for e in edges)
    witness = canonical_witness(critical)
    if weight(witness) * den != num * len(witness):
        raise AssertionError("witness cycle does not attain the maximum mean")
    return MaxPlusData(Fraction(num, scale * den), witness, critical, classes)


def _proposed_cycle(n: int, edges) -> tuple[int, ...]:
    """A cycle of the float max-plus frame (`_perron._maxplus_frame`) of
    the weights: the walk of `canonical_witness` over the edges that
    attain the largest conjugated weight out of their source, and those
    whose conjugated weight is nan, so that the walk never stalls.  Where
    Howard's policy iteration certified the frame, those edges are its
    final policy and the walk ends on its one cycle; elsewhere they are
    the saturated edges of Karp's frame.  The frame runs on the weights
    scaled by the power of two that brings the largest below 1 in
    magnitude, exact but for underflow, so that no walk sum overflows.
    Rounding may make the cycle a poor one, never a wrong result."""
    src, dst, w = (np.array(column) for column in zip(*edges))
    w = w.astype(float)
    w = np.ldexp(w, -np.frexp(np.abs(w).max())[1])
    frame_w = _maxplus_frame(n, src, dst, w[None])[2][0]
    top = np.full(n, -np.inf)
    np.fmax.at(top, src, frame_w)  # skips nan, without a warning
    best = ~(frame_w < top[src])
    return canonical_witness(zip(src[best].tolist(), dst[best].tolist()))


def _scaled_to_ints(edges) -> tuple[int, list[tuple[int, int, int]]]:
    """The common denominator of the weights, and the edges with every
    weight multiplied by it (an exact int)."""
    ratios = [(i, j, w.as_integer_ratio()) for i, j, w in edges]
    if not ratios:
        raise ValueError("graph has no edges")
    scale = math.lcm(*(den for _, _, (_, den) in ratios))
    return scale, [(i, j, num * (scale // den)) for i, j, (num, den) in ratios]


def canonical_witness(critical) -> tuple[int, ...]:
    """The witness cycle of a critical edge set: from the smallest
    critical vertex, follow the smallest critical successor until a
    vertex repeats; the cycle that closes there, rotated to start at its
    smallest vertex.  Every critical edge lies on a critical cycle, so
    the walk never stalls."""
    succ: dict[int, int] = {}
    for i, j in critical:
        if i not in succ or j < succ[i]:
            succ[i] = j
    walk = [min(succ)]
    seen = {walk[0]: 0}
    while (v := succ[walk[-1]]) not in seen:
        seen[v] = len(walk)
        walk.append(v)
    cycle = walk[seen[v]:]
    first = cycle.index(min(cycle))
    return tuple(cycle[first:] + cycle[:first])


def bellman_longest_to(n: int, normalized_edges, target: int):
    """Bellman passes for the best path weight from every vertex to
    ``target``, as ``(dist, cycle)``.  ``cycle`` is None when a pass
    changes nothing: then every edge ``i -> j`` has
    ``dist_i >= w_ij + dist_j``, with equality along every zero-weight
    cycle, and no cycle has positive weight.  Otherwise the n-th pass
    still changes a value, and ``cycle`` is a cycle of the parent
    pointers, of positive weight (each parent is set by a strict
    improvement; CLRS Lemma 24.16), listed along its edges.  On a
    strongly connected graph the saturating edges of any fixed point give
    the same critical subgraph, whichever ``target`` is used.  The
    weights may be ints or Fractions."""
    dist: list = [None] * n
    dist[target] = 0
    parent: list = [None] * n
    for _ in range(n):
        last = None  # the last vertex this pass changed
        for i, j, w in normalized_edges:
            dj = dist[j]
            if dj is not None:
                cand = w + dj
                if dist[i] is None or cand > dist[i]:
                    dist[i], parent[i], last = cand, j, i
        if last is None:
            return dist, None
    # A vertex changed in pass k took its parent from one changed in pass
    # k - 1 or later, so n parent steps from one changed in pass n never
    # reach a vertex that has not changed: they end on a cycle.
    for _ in range(n):
        last = parent[last]
    cycle = [last]
    while (v := parent[cycle[-1]]) != last:
        cycle.append(v)
    return dist, tuple(cycle)


def critical_classes(n: int, normalized_edges, vec) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Saturating edges that lie on a cycle of saturating edges, grouped
    by the strongly connected components of the saturating edges: each
    class's edges sorted, and the classes in order of their first edge."""
    saturated = sorted((i, j) for i, j, w in normalized_edges if vec[i] == w + vec[j])
    label = strongly_connected_components(n, saturated)
    classes: dict[int, list[tuple[int, int]]] = {}
    for i, j in saturated:
        if label[i] == label[j]:
            classes.setdefault(label[i], []).append((i, j))
    return tuple(map(tuple, classes.values()))


def strongly_connected_components(n: int, edge_pairs) -> list[int]:
    """Kosaraju component labels (vertices with no kept edges get their
    own singleton component)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    radj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edge_pairs:
        adj[i].append(j)
        radj[j].append(i)

    visited = [False] * n
    order: list[int] = []
    for start in range(n):
        if visited[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        visited[start] = True
        while stack:
            v, ptr = stack.pop()
            if ptr < len(adj[v]):
                stack.append((v, ptr + 1))
                w = adj[v][ptr]
                if not visited[w]:
                    visited[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)

    label = [-1] * n
    current = 0
    for start in reversed(order):
        if label[start] != -1:
            continue
        stack2 = [start]
        label[start] = current
        while stack2:
            v = stack2.pop()
            for w in radj[v]:
                if label[w] == -1:
                    label[w] = current
                    stack2.append(w)
        current += 1
    return label
