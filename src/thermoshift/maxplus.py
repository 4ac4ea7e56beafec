"""Exact max-plus spectral data for weighted digraphs.

Everything here runs in exact integer arithmetic on one common dyadic
scale: each weight is multiplied once by the common denominator of all
the weights (for floats, which are dyadic rationals, the largest one), so
every sum and comparison is a Python int operation, and
`fractions.Fraction` appears only in the result.  The maximum cycle mean,
the witness cycle and the critical subgraph are exact for any float edge
weights, and depend only on the graph and its weights: Karp's recurrence
gives the mean, one Bellman pass the critical subgraph, and the witness
is a fixed rule on that subgraph (`canonical_witness`).

The graphs handled are strongly connected (they come from primitive
subshifts), with at most one edge per ordered vertex pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


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
    """

    beta: Fraction
    witness: tuple[int, ...]
    critical: frozenset[tuple[int, int]]


def analyze(n_vertices: int, edges) -> MaxPlusData:
    """Full max-plus analysis of a strongly connected weighted digraph.

    ``edges`` is an iterable of ``(i, j, weight)``; weights may be
    floats, Fractions or ints.
    """
    scale, scaled = _scaled_to_ints(edges)
    beta_num, beta_den = _max_cycle_mean(n_vertices, scaled)
    # w - beta in units of 1 / (scale * beta_den)
    normalized = [(i, j, w * beta_den - beta_num) for i, j, w in scaled]
    vec = bellman_longest_to(n_vertices, normalized, 0)
    critical = frozenset(critical_edges(n_vertices, normalized, vec))
    witness = canonical_witness(critical)
    weight_of = {(i, j): w for i, j, w in normalized}
    if sum(weight_of[e] for e in zip(witness, witness[1:] + witness[:1])) != 0:
        raise AssertionError("witness cycle does not attain the maximum mean")
    return MaxPlusData(Fraction(beta_num, scale * beta_den), witness, critical)


def _scaled_to_ints(edges) -> tuple[int, list[tuple[int, int, int]]]:
    """The common denominator of the weights, and the edges with every
    weight multiplied by it (an exact int)."""
    ratios = [(i, j, w.as_integer_ratio()) for i, j, w in edges]
    if not ratios:
        raise ValueError("graph has no edges")
    scale = math.lcm(*(den for _, _, (_, den) in ratios))
    return scale, [(i, j, num * (scale // den)) for i, j, (num, den) in ratios]


def _max_cycle_mean(n: int, edges) -> tuple[int, int]:
    """Karp's recurrence (Karp 1978) on int weights: the maximum cycle
    mean as a pair ``(num, den)`` with ``den > 0``, in the units of the
    weights."""
    # level[k][v] = best weight of a walk 0 -> v with exactly k edges
    # (None: no such walk)
    level: list[list[int | None]] = [[0] + [None] * (n - 1)]
    for _ in range(n):
        prev = level[-1]
        cur: list[int | None] = [None] * n
        for i, j, w in edges:
            p = prev[i]
            if p is not None:
                cand = p + w
                c = cur[j]
                if c is None or cand > c:
                    cur[j] = cand
        level.append(cur)
    # Karp's formula counts only cycles reachable from vertex 0
    if any(all(lv[v] is None for lv in level[:n]) for v in range(n)):
        raise ValueError("a vertex is unreachable from vertex 0; graph not strongly connected")

    # beta = max over v of min over k of (top - level[k][v]) / (n - k);
    # each ratio is kept as an int pair (numerator, positive denominator)
    # and compared by cross-multiplication.
    beta_num = beta_den = None
    for v in range(n):
        top = level[n][v]
        if top is None:
            continue
        low_num = low_den = None
        for k in range(n):
            lv = level[k][v]
            if lv is not None:
                num, den = top - lv, n - k
                if low_num is None or num * low_den < low_num * den:
                    low_num, low_den = num, den
        if beta_num is None or low_num * beta_den > beta_num * low_den:
            beta_num, beta_den = low_num, low_den
    if beta_num is None:
        raise ValueError("no vertex admits a walk of full length; graph not strongly connected")
    return beta_num, beta_den


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


def bellman_longest_to(n: int, normalized_edges, target: int) -> list:
    """Best path weight from every vertex to ``target`` under weights with
    no positive cycles.  On a strongly connected graph, for any
    ``target``, every edge ``i -> j`` has ``v_i >= w_ij + v_j``, with
    equality along every zero-weight cycle, so the saturating edges give
    the same critical subgraph whichever target is used.  The weights may
    be ints or Fractions."""
    dist: list = [None] * n
    dist[target] = 0
    for _ in range(n - 1):
        changed = False
        for i, j, w in normalized_edges:
            dj = dist[j]
            if dj is not None:
                cand = w + dj
                if dist[i] is None or cand > dist[i]:
                    dist[i] = cand
                    changed = True
        if not changed:
            break
    for i, j, w in normalized_edges:
        if dist[j] is not None and dist[i] is not None and w + dist[j] > dist[i]:
            raise AssertionError("positive cycle under beta-normalized weights")
    if any(d is None for d in dist):
        raise ValueError("graph not strongly connected")
    return dist


def critical_edges(n: int, normalized_edges, vec) -> set[tuple[int, int]]:
    """Saturating edges that lie on a cycle of saturating edges."""
    saturated = [(i, j) for i, j, w in normalized_edges if vec[i] == w + vec[j]]
    label = strongly_connected_components(n, saturated)
    return {(i, j) for i, j in saturated if label[i] == label[j]}


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
