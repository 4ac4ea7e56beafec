"""Independent oracle computations for the test suite.

Everything here recomputes expected values through routes that share no
numerical code with the package: dense numpy eigensolves instead of
log-domain power iteration, networkx cycle enumeration instead of Karp
(and Karp's recurrence, the Bellman pass and the critical subgraph in
``Fraction``s instead of scaled integers), sequential matrix powers
instead of repeated squaring, and closed-form inversions where available.
The one exception is `asymptotic_variance`, the package's own variance
route applied to a single measure, which the tests compare samples with.
"""

import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np
from scipy.optimize import brentq


# --- combinatorics -----------------------------------------------------------

def admissible_words(transitions, k):
    """All admissible k-words by brute-force product filtering."""
    transitions = np.asarray(transitions)
    n = transitions.shape[0]
    words = []
    for word in itertools.product(range(n), repeat=k):
        if all(transitions[word[i], word[i + 1]] for i in range(k - 1)):
            words.append(word)
    return words


def primitive_by_sequential_powers(transitions) -> bool:
    """Brute-force primitivity: check every power up to the Wielandt bound."""
    m = np.asarray(transitions, dtype=bool)
    n = m.shape[0]
    power = m.copy()
    for _ in range((n - 1) ** 2 + 1):
        if power.all():
            return True
        power = (power.astype(int) @ m.astype(int)) > 0
    return False


def primitive_by_int_squaring(transitions) -> bool:
    """Primitivity by repeated squaring of the 0/1 matrix in int32 up to
    an exponent at least the Wielandt bound: the rule the package runs in
    float64."""
    m = np.asarray(transitions)
    bound = (m.shape[0] - 1) ** 2 + 1
    power = (m > 0).astype(np.int32)
    exponent = 1
    while exponent < bound:
        if power.all():
            return True
        power = ((power @ power) > 0).astype(np.int32)
        exponent *= 2
    return bool(power.all())


def periodic_transitions(rng, n, period):
    """A random irreducible 0/1 matrix of the given period on ``n``
    symbols: symbols fall into ``period`` nonempty classes, and each
    symbol leads only into the next class, to at least one symbol."""
    classes = np.concatenate([np.arange(period), rng.integers(0, period, n - period)])
    rng.shuffle(classes)
    m = np.zeros((n, n), dtype=int)
    for i in range(n):
        targets = np.flatnonzero(classes == (classes[i] + 1) % period)
        m[i, targets] = rng.random(len(targets)) < 0.7
        m[i, rng.choice(targets)] = 1
    return m


# --- dense spectral route ----------------------------------------------------

def dense_weighted_matrix(transitions, memory, values, t=1.0):
    """Edge-exponentiated matrix of a potential table, built independently."""
    transitions = np.asarray(transitions)
    order = max(memory - 1, 1)
    states = admissible_words(transitions, order)
    index = {b: i for i, b in enumerate(states)}
    W = np.zeros((len(states), len(states)))
    for b, i in index.items():
        for s in range(transitions.shape[0]):
            if not transitions[b[-1], s]:
                continue
            word = b + (s,)
            W[i, index[word[1:]]] = math.exp(t * values[word[:memory]])
    return states, W


def dense_edge_table(transitions, memory, values, order=None):
    """A potential table as log-weights on the ``order``-block graph (by
    default the least order carrying it), built independently: the
    states, the dense table (-inf on non-edges) and its row-major edge
    list ``(i, j, weight)``."""
    transitions = np.asarray(transitions)
    if order is None:
        order = max(memory - 1, 1)
    states = admissible_words(transitions, order)
    index = {b: i for i, b in enumerate(states)}
    logw = np.full((len(states), len(states)), -np.inf)
    for word in admissible_words(transitions, order + 1):
        logw[index[word[:-1]], index[word[1:]]] = values[word[:memory]]
    edges = [(int(i), int(j), float(logw[i, j])) for i, j in zip(*np.nonzero(np.isfinite(logw)))]
    return states, logw, edges


def perron_pair(W):
    """Perron eigenvalue plus positive right/left eigenvectors via dense eig."""
    eigvals, right = np.linalg.eig(W)
    k = int(np.argmax(eigvals.real))
    lam = float(eigvals[k].real)
    r = np.abs(right[:, k].real)
    eigvals_l, left = np.linalg.eig(W.T)
    k_l = int(np.argmax(eigvals_l.real))
    l = np.abs(left[:, k_l].real)
    return lam, r, l


def restricted_log_radius(W, edges):
    """Log spectral radius of ``W`` kept only on the index pairs ``edges``,
    by a dense eigensolve (no conditioning, no certificate)."""
    R = np.zeros_like(W)
    for i, j in edges:
        R[i, j] = W[i, j]
    return math.log(max(abs(np.linalg.eigvals(R))))


def stationary_from_kernel(P):
    """Stationary vector of a stochastic matrix via the SVD null space of
    ``P^T - I`` (no power iteration)."""
    A = P.T - np.eye(len(P))
    _, _, vh = np.linalg.svd(A)
    v = np.abs(vh[-1].real)
    return v / v.sum()


def dense_gibbs(transitions, memory, values, t=1.0):
    """Pressure, kernel, stationary vector and entropy of the equilibrium
    state by the dense route.  Valid for moderate ``t`` only (no log
    domain)."""
    states, W = dense_weighted_matrix(transitions, memory, values, t)
    lam, r, _ = perron_pair(W)
    P = W * r[None, :] / (lam * r[:, None])
    P[W == 0.0] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    pi = stationary_from_kernel(P)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    entropy = float(-(pi @ plogp.sum(axis=1)))
    return math.log(lam), states, P, pi, entropy


# --- dense tables ------------------------------------------------------------
#
# The measure assembly as it ran on whole n x n tables: log tables padded
# with -inf off the edges, exp and log over every entry.  The
# package takes exp and log on the edges alone and keeps the dense sums;
# these are the references it must equal bit for bit.

def dense_perron_tables(n, src, dst, frame_w, left_frame=None):
    """The linear-domain Perron stack of a solve: the conjugated
    log-weights ``frame_w`` (T, E) of each row on ``src -> dst`` (and,
    given the left frame, the transposed weights conjugated by it) in a
    -inf padded table, exponentiated whole."""
    sides = 1 if left_frame is None else 2
    logw = np.full((sides * len(frame_w), n, n), -np.inf)
    logw[0::sides, src, dst] = frame_w
    if left_frame is not None:
        logw[1::2, dst, src] = frame_w + left_frame[:, src] - left_frame[:, dst]
    return np.exp(logw)


def dense_kernels(n, src, dst, frame_w, frame_right):
    """Equilibrium kernels ``P_ij = e^{w_ij} r_j / (lambda r_i)`` of a stack
    of frame solves: each row of the -inf padded log kernel less its
    maximum, exponentiated whole and divided by its sum."""
    u = frame_right
    ln_kernel = np.full((len(u), n, n), -np.inf)
    ln_kernel[:, src, dst] = frame_w + u[:, dst] - u[:, src]
    kernel = np.exp(ln_kernel - ln_kernel.max(axis=2, keepdims=True))
    return kernel / np.add.reduce(kernel, axis=2)[:, :, None]


def dense_stationary(ln_pi):
    """Stationary vectors of a stack of frame solves from their log rows
    ``ln_pi`` (T, n): each row less its maximum, exponentiated and
    divided by its sum."""
    pi = np.exp(ln_pi - ln_pi.max(axis=1, keepdims=True))
    return pi / np.add.reduce(pi, axis=1)[:, None]


def dense_entropies(pi, kernel):
    """Entropy ``-sum_i pi_i sum_j P_ij log P_ij`` (0 log 0 = 0, clamped at
    0) of each measure of a stack, with p log p over the whole table."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(kernel > 0, kernel * np.log(kernel), 0.0)
    dots = np.matmul(pi[:, None, :], np.add.reduce(plogp, axis=2)[:, :, None])[:, 0, 0]
    return [max(0.0, -dot) for dot in dots.tolist()]


# --- cycle enumeration -------------------------------------------------------

def max_cycle_mean_enumeration(n, edges):
    """Exact maximum mean over all simple cycles (networkx enumeration +
    rational arithmetic)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((i, j) for i, j, _ in edges)
    weight = {(i, j): Fraction(w) for i, j, w in edges}
    best = None
    for cycle in nx.simple_cycles(graph):
        length = len(cycle)
        total = sum(weight[(cycle[m], cycle[(m + 1) % length])] for m in range(length))
        mean = total / length
        if best is None or mean > best:
            best = mean
    return best


def karp_fractions(n, edges):
    """Karp's maximum-cycle-mean recurrence carried out in ``Fraction``s,
    with the witness cycle read off the parent chain of the maximizing
    vertex: the reference for the package's exact maximum cycle mean."""
    edges = [(i, j, Fraction(w)) for i, j, w in edges]
    level = [{0: Fraction(0)}]
    parent = [{}]
    for _ in range(n):
        cur, par = {}, {}
        for i, j, w in edges:
            if i in level[-1]:
                cand = level[-1][i] + w
                if j not in cur or cand > cur[j]:
                    cur[j], par[j] = cand, i
        level.append(cur)
        parent.append(par)
    beta = best_v = None
    for v, top in level[n].items():
        worst = min(
            (top - level[k][v]) / (n - k) for k in range(n) if v in level[k]
        )
        if beta is None or worst > beta:
            beta, best_v = worst, v
    walk = [best_v]
    for k in range(n, 0, -1):
        walk.append(parent[k][walk[-1]])
    walk.reverse()
    seen = {}
    for idx, v in enumerate(walk):
        if v in seen:
            return beta, walk[seen[v]:idx]
        seen[v] = idx
    raise AssertionError("walk of full length contained no cycle")


def analyze_fractions(n, edges):
    """The max-plus analysis carried out in ``Fraction``s: Karp by
    ``karp_fractions``, then Bellman passes for the best path weight from
    every vertex into the first vertex of Karp's witness under
    ``w - beta``, and the critical subgraph read off them by
    ``saturated_critical``.  Returns ``(beta, critical)``: the reference
    for the package's integer passes, which run into the first vertex of
    their own cycle instead."""
    beta, witness = karp_fractions(n, edges)
    normalized = [(i, j, Fraction(w) - beta) for i, j, w in edges]
    return beta, saturated_critical(normalized, longest_to_fractions(n, normalized, witness[0]))


def longest_to_fractions(n, normalized, target):
    """Best path weight from every vertex into ``target`` under the
    ``Fraction`` weights ``normalized``, by Bellman passes up to the first
    that changes nothing; None when n passes all change a value, as they
    do only with a cycle of positive weight."""
    dist = [None] * n
    dist[target] = Fraction(0)
    for _ in range(n):
        changed = False
        for i, j, w in normalized:
            if dist[j] is not None and (dist[i] is None or w + dist[j] > dist[i]):
                dist[i] = w + dist[j]
                changed = True
        if not changed:
            return dist
    return None


def saturated_critical(normalized, dist):
    """The edges that saturate ``dist_i = w_ij + dist_j`` and lie inside
    one networkx strongly connected component of the saturating edges."""
    saturated = [(i, j) for i, j, w in normalized if dist[i] == w + dist[j]]
    component = {}
    for label, vertices in enumerate(nx.strongly_connected_components(nx.DiGraph(saturated))):
        component.update(dict.fromkeys(vertices, label))
    return frozenset((i, j) for i, j in saturated if component[i] == component[j])


def has_one_simple_cycle(edge_pairs):
    """True iff the digraph on ``edge_pairs`` has exactly one simple
    cycle, counted by networkx enumeration (stopped at the second)."""
    cycles = nx.simple_cycles(nx.DiGraph(list(edge_pairs)))
    return sum(1 for _ in itertools.islice(cycles, 2)) == 1


# --- closed forms ------------------------------------------------------------

def binary_entropy(q):
    return -q * math.log(q) - (1 - q) * math.log(1 - q)


def invert_binary_entropy(a):
    """Solve H(q) = a on (0, 1/2]."""
    return brentq(lambda q: binary_entropy(q) - a, 1e-15, 0.5, xtol=1e-15)


def bernoulli_ray_parameter(a):
    """The t with H(e^-t / (1 + e^-t)) = a, from the closed-form inversion."""
    q = invert_binary_entropy(a)
    return math.log((1 - q) / q)


# --- random instances --------------------------------------------------------

def random_primitive_transitions(rng, max_alphabet=6):
    """A random primitive 0/1 matrix (alphabet between 2 and max_alphabet)."""
    while True:
        n = int(rng.integers(2, max_alphabet + 1))
        m = (rng.random((n, n)) < 0.6).astype(int)
        if (m.sum(axis=1) == 0).any() or (m.sum(axis=0) == 0).any():
            continue
        if primitive_by_sequential_powers(m):
            return m


def random_values(rng, transitions, memory, scale=2.0):
    """A random value table over the admissible blocks of the given memory."""
    return {
        b: float(rng.uniform(-scale, scale))
        for b in admissible_words(transitions, memory)
    }


def random_stochastic_kernel(rng, transitions, order):
    """A random row-stochastic kernel supported on the admissible
    transitions between order-blocks, plus its stationary vector."""
    transitions = np.asarray(transitions)
    states = admissible_words(transitions, order)
    index = {b: i for i, b in enumerate(states)}
    n = len(states)
    kernel = np.zeros((n, n))
    for b, i in index.items():
        for s in range(transitions.shape[0]):
            if transitions[b[-1], s]:
                kernel[i, index[b[1:] + (s,)]] = rng.uniform(0.1, 1.0)
    kernel /= kernel.sum(axis=1, keepdims=True)
    return states, kernel, stationary_from_kernel(kernel)


# --- the package's variance of one measure ------------------------------------

def asymptotic_variance(mu, phi):
    """Asymptotic variance of ``phi`` under the Markov measure ``mu`` by
    ``transfer._variances`` on a stack of one: the ``phi_var`` of a path
    sample whose equilibrium state is ``mu``.  ``phi`` must have memory
    at most ``mu.order + 1``."""
    from thermoshift._edgegraph import edge_weights
    from thermoshift.transfer import _variances

    weights = edge_weights(phi, mu.order)
    return float(_variances(mu.sft, mu.order, mu.stationary[None], mu.kernel[None], weights)[0])
