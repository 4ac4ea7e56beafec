"""Exact max-plus spectral data for weighted digraphs.

Everything here runs in rational arithmetic (floats convert to
`fractions.Fraction` exactly), so the maximum cycle mean, the witness
cycle and the critical subgraph are exact for any float edge weights.

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
    floats or Fractions.
    """
    exact = [(i, j, Fraction(w)) for i, j, w in edges]
    if not exact:
        raise ValueError("graph has no edges")
    beta, witness = karp_cycle_mean(n_vertices, exact)
    normalized = [(i, j, w - beta) for i, j, w in exact]
    vec = bellman_longest_to(n_vertices, normalized, witness[0])
    critical = critical_edges(n_vertices, normalized, vec)
    return MaxPlusData(beta, tuple(witness), frozenset(critical), tuple(vec))


def karp_cycle_mean(n: int, edges) -> tuple[Fraction, list[int]]:
    """Maximum cycle mean by Karp's recurrence, plus a simple witness cycle.

    All vertices must be reachable from vertex 0, and the weights are
    Fractions.  The recurrence runs on Python ints: every weight is scaled
    by the common denominator of the weights (for floats, which are dyadic
    rationals, the largest one), which keeps every comparison exact and in
    the same order.
    """
    scale = math.lcm(*(w.denominator for _, _, w in edges))
    scaled = [(i, j, w.numerator * (scale // w.denominator)) for i, j, w in edges]
    # level[k][v] = best scaled weight of a walk 0 -> v with exactly k edges
    level: list[dict[int, int]] = [{0: 0}]
    parent: list[dict[int, int]] = [{}]
    for k in range(1, n + 1):
        cur: dict[int, int] = {}
        par: dict[int, int] = {}
        prev = level[k - 1]
        for i, j, w in scaled:
            if i in prev:
                cand = prev[i] + w
                if j not in cur or cand > cur[j]:
                    cur[j] = cand
                    par[j] = i
        level.append(cur)
        parent.append(par)

    # beta = max over v of min over k of (top - level[k][v]) / (n - k);
    # each ratio is kept as an int pair (numerator, positive denominator)
    # and compared by cross-multiplication.
    beta_num = beta_den = best_v = None
    for v, top in level[n].items():
        low_num = low_den = None
        for k in range(n):
            if v in level[k]:
                num, den = top - level[k][v], n - k
                if low_num is None or num * low_den < low_num * den:
                    low_num, low_den = num, den
        if low_num is not None and (
            beta_num is None or low_num * beta_den > beta_num * low_den
        ):
            beta_num, beta_den, best_v = low_num, low_den, v
    if beta_num is None:
        raise ValueError("no vertex admits a walk of full length; graph not strongly connected")
    beta = Fraction(beta_num, beta_den * scale)

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
    if total != beta * len(cycle):
        raise AssertionError("extracted cycle does not attain the maximum mean")
    return beta, cycle


def bellman_longest_to(n: int, normalized_edges, target: int) -> list[Fraction]:
    """Best path weight from every vertex to ``target`` under weights with
    no positive cycles; this is a max-plus eigenvector when ``target``
    lies on a critical cycle."""
    dist: list[Fraction | None] = [None] * n
    dist[target] = Fraction(0)
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
    return dist  # type: ignore[return-value]


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
