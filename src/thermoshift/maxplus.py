"""Exact max-plus spectral data for weighted digraphs.

Everything here runs in exact integer arithmetic on one common dyadic
scale: each weight is multiplied once by the common denominator of all
the weights (for floats, which are dyadic rationals, the largest one), so
every sum and comparison is a Python int operation, and
`fractions.Fraction` appears only in the result.  The maximum cycle mean,
the witness cycle and the critical subgraph are exact for any float edge
weights.

The graphs handled are strongly connected (they come from primitive
subshifts), with at most one edge per ordered vertex pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class MaxPlusData:
    """Spectral data of a max-plus matrix.

    beta
        Maximum cycle mean.
    witness
        One simple cycle of mean exactly ``beta`` (vertex list, closing
        edge back to the first vertex implied).
    critical
        Edge set of the critical subgraph: edges that saturate the
        Bellman equation ``v_i = max_j (w_ij - beta + v_j)`` and lie on
        a cycle of saturating edges.  Every cycle made of these edges
        has mean exactly ``beta``.
    eigenvector
        A max-plus (right) eigenvector of the ``beta``-normalized
        weights: best path weight from each vertex into the witness.
    """

    beta: Fraction
    witness: tuple[int, ...]
    critical: frozenset[tuple[int, int]]
    eigenvector: tuple[Fraction, ...]


def analyze(n_vertices: int, edges) -> MaxPlusData:
    """Full max-plus analysis of a strongly connected weighted digraph.

    ``edges`` is an iterable of ``(i, j, weight)``; weights may be
    floats, Fractions or ints.
    """
    scale, scaled = _scaled_to_ints(edges)
    beta_num, beta_den, witness = _karp_scaled(n_vertices, scaled)
    # w - beta in units of 1 / (scale * beta_den)
    normalized = [(i, j, w * beta_den - beta_num) for i, j, w in scaled]
    vec = bellman_longest_to(n_vertices, normalized, witness[0])
    critical = critical_edges(n_vertices, normalized, vec)
    unit = scale * beta_den
    return MaxPlusData(
        Fraction(beta_num, unit),
        tuple(witness),
        frozenset(critical),
        tuple(Fraction(v, unit) for v in vec),
    )


def _scaled_to_ints(edges) -> tuple[int, list[tuple[int, int, int]]]:
    """The common denominator of the weights, and the edges with every
    weight multiplied by it (an exact int)."""
    ratios = [(i, j, w.as_integer_ratio()) for i, j, w in edges]
    if not ratios:
        raise ValueError("graph has no edges")
    scale = math.lcm(*(den for _, _, (_, den) in ratios))
    return scale, [(i, j, num * (scale // den)) for i, j, (num, den) in ratios]


def _karp_scaled(n: int, edges) -> tuple[int, int, list[int]]:
    """Karp's recurrence on int weights: the maximum cycle mean as a pair
    ``(num, den)`` with ``den > 0``, in the units of the weights, and a
    simple cycle attaining it.

    On equal candidates the first edge in edge order wins, and the
    vertices are scanned for the maximum in the order their first edge
    reaches them at level ``n``, so the witness does not depend on how
    the levels are stored.
    """
    # level[k][v] = best weight of a walk 0 -> v with exactly k edges
    # (None: no such walk); parent[k][v] = the vertex before v on it
    level: list[list[int | None]] = [[0] + [None] * (n - 1)]
    parent: list[list[int]] = [[]]
    for _ in range(n):
        prev = level[-1]
        cur: list[int | None] = [None] * n
        par = [0] * n
        for i, j, w in edges:
            p = prev[i]
            if p is not None:
                cand = p + w
                c = cur[j]
                if c is None or cand > c:
                    cur[j] = cand
                    par[j] = i
        level.append(cur)
        parent.append(par)
    # Karp's formula counts only cycles reachable from vertex 0
    if any(all(lv[v] is None for lv in level[:n]) for v in range(n)):
        raise ValueError("a vertex is unreachable from vertex 0; graph not strongly connected")

    # beta = max over v of min over k of (top - level[k][v]) / (n - k);
    # each ratio is kept as an int pair (numerator, positive denominator)
    # and compared by cross-multiplication.
    before = level[n - 1]
    order = dict.fromkeys(j for i, j, _ in edges if before[i] is not None)
    beta_num = beta_den = best_v = None
    for v in order:
        top = level[n][v]
        low_num = low_den = None
        for k in range(n):
            lv = level[k][v]
            if lv is not None:
                num, den = top - lv, n - k
                if low_num is None or num * low_den < low_num * den:
                    low_num, low_den = num, den
        if beta_num is None or low_num * beta_den > beta_num * low_den:
            beta_num, beta_den, best_v = low_num, low_den, v
    if beta_num is None:
        raise ValueError("no vertex admits a walk of full length; graph not strongly connected")

    # Walk the parent chain back from (n, best_v); every cycle inside this
    # walk has mean exactly beta, so the first repeated vertex closes a
    # simple witness cycle.
    verts = [best_v]
    for k in range(n, 0, -1):
        verts.append(parent[k][verts[-1]])
    verts.reverse()
    seen: dict[int, int] = {}
    cycle: list[int] | None = None
    for idx, v in enumerate(verts):
        if v in seen:
            cycle = verts[seen[v]:idx]
            break
        seen[v] = idx
    if cycle is None:  # n+1 vertices over n states always repeat
        raise AssertionError("walk of full length contained no cycle")

    weight_of = {(i, j): w for i, j, w in edges}
    total = sum(
        weight_of[(cycle[m], cycle[(m + 1) % len(cycle)])] for m in range(len(cycle))
    )
    if total * beta_den != beta_num * len(cycle):
        raise AssertionError("extracted cycle does not attain the maximum mean")
    return beta_num, beta_den, cycle


def bellman_longest_to(n: int, normalized_edges, target: int) -> list:
    """Best path weight from every vertex to ``target`` under weights with
    no positive cycles; this is a max-plus eigenvector when ``target``
    lies on a critical cycle.  The weights may be ints or Fractions."""
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


def degrees_within(edge_set) -> tuple[dict[int, int], dict[int, int]]:
    """Out- and in-degree maps of the subgraph spanned by ``edge_set``."""
    out_deg: dict[int, int] = {}
    in_deg: dict[int, int] = {}
    for i, j in edge_set:
        out_deg[i] = out_deg.get(i, 0) + 1
        in_deg[j] = in_deg.get(j, 0) + 1
        out_deg.setdefault(j, 0)
        in_deg.setdefault(i, 0)
    return out_deg, in_deg


def is_disjoint_simple_cycles(edge_set) -> bool:
    """True iff the subgraph is a disjoint union of simple cycles."""
    if not edge_set:
        return False
    out_deg, in_deg = degrees_within(edge_set)
    return all(d == 1 for d in out_deg.values()) and all(
        d == 1 for d in in_deg.values()
    )


def is_single_simple_cycle(edge_set) -> bool:
    """True iff the subgraph is exactly one simple cycle."""
    if not is_disjoint_simple_cycles(edge_set):
        return False
    succ = {i: j for i, j in edge_set}
    start = next(iter(succ))
    length = 1
    v = succ[start]
    while v != start:
        v = succ[v]
        length += 1
    return length == len(succ)
