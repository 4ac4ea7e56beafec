"""Independent reference computations and output checks.

Nothing here imports thermoshift or scipy: the references are rebuilt
from the raw inputs (a 0/1 transition matrix and a value table keyed by
symbol tuples) with numpy, ``fractions`` and the standard library, so
they share no numerical code with the program, and so the peak memory
of a benchmark run belongs to the program rather than to its checker.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)

# Tolerances.  Each is far above what a correct output reaches (measured
# gaps sit at 1e-11 or below) and far below the 1e-6 perturbations the
# self-test injects.
PRESSURE_TOL = 1e-10  # relative, dense eigensolve against the program
IDENTITY_TOL = 1e-9  # absolute part of the variational identity
IDENTITY_REL = 1e-12  # relative part, for |P| up to ~1e4 at low temperature
CLOSED_FORM_TOL = 1e-12
SLOPE_TOL = 1e-7  # integral against a Richardson difference of pressure
MONOTONE_SLACK = 1e-9
SOLVER_TOL = 1e-8  # the program's default solver residual
ENUMERATION_MAX_STATES = 6


# --- combinatorics ---------------------------------------------------------

def admissible_words(transitions, k):
    """All admissible k-words, in lexicographic order."""
    transitions = np.asarray(transitions)
    n = transitions.shape[0]
    return [
        word
        for word in itertools.product(range(n), repeat=k)
        if all(transitions[word[i], word[i + 1]] for i in range(k - 1))
    ]


def is_primitive(transitions) -> bool:
    """Primitivity by sequential boolean powers up to the Wielandt bound."""
    m = np.asarray(transitions, dtype=np.int64) > 0
    n = m.shape[0]
    power = m.copy()
    for _ in range((n - 1) ** 2 + 1):
        if power.all():
            return True
        power = (power.astype(np.int64) @ m.astype(np.int64)) > 0
    return False


def order_of(memory):
    return max(memory - 1, 1)


def edge_words(transitions, memory):
    """States (order-blocks) and the (i, j, word) list of the block graph."""
    transitions = np.asarray(transitions)
    states = admissible_words(transitions, order_of(memory))
    index = {b: i for i, b in enumerate(states)}
    edges = []
    for b, i in index.items():
        for s in range(transitions.shape[0]):
            if transitions[b[-1], s]:
                word = b + (s,)
                edges.append((i, index[word[1:]], word))
    return states, edges


# --- dense spectral route --------------------------------------------------

class Ray:
    """The potential family ``psi + t * phi`` on one system.

    ``phi`` and ``psi`` are value tables keyed by words of length
    ``phi_memory`` and ``psi_memory``; ``psi`` may be None (zero).
    """

    def __init__(self, transitions, phi, phi_memory, psi=None, psi_memory=1):
        self.transitions = np.asarray(transitions)
        memory = max(phi_memory, psi_memory if psi is not None else 1)
        self.states, edges = edge_words(self.transitions, memory)
        n = len(self.states)
        self.rows = np.array([i for i, _, _ in edges])
        self.cols = np.array([j for _, j, _ in edges])
        self.phi = np.array([phi[w[:phi_memory]] for _, _, w in edges])
        self.psi = (
            np.zeros(len(edges)) if psi is None
            else np.array([psi[w[:psi_memory]] for _, _, w in edges])
        )
        self.n = n

    def pressure(self, t):
        """Log Perron root of the exponentiated block matrix, by a dense
        eigensolve."""
        logw = self.psi + t * self.phi
        shift = float(logw.max())
        m = np.zeros((self.n, self.n))
        m[self.rows, self.cols] = np.exp(logw - shift)
        radius = float(np.linalg.eigvals(m).real.max())
        return math.log(radius) + shift

    def slope(self, t, h=1e-3):
        """``p'(t)`` by Richardson-extrapolated central differences."""
        def central(step):
            return (self.pressure(t + step) - self.pressure(t - step)) / (2 * step)
        return (4.0 * central(h / 2) - central(h)) / 3.0

    def psi_pressure(self, t):
        """``h(mu_t) + integral(psi, mu_t) = p(t) - t p'(t)``."""
        return self.pressure(t) - t * self.slope(t)


def topological_entropy(transitions):
    a = np.asarray(transitions, dtype=float)
    return math.log(float(np.linalg.eigvals(a).real.max()))


def full_shift_memory1_pressure(values, t):
    """Closed form ``log sum_i exp(t phi_i)`` on a memory-1 full shift."""
    scaled = [t * v for v in values]
    top = max(scaled)
    return top + math.log(math.fsum(math.exp(x - top) for x in scaled))


def bernoulli_entropy(q):
    return -(q * math.log(q) + (1.0 - q) * math.log(1.0 - q))


def bernoulli_q(t):
    """Weight of the symbol valued -1 in the equilibrium state of
    ``t * phi`` with ``phi = (0, -1)``."""
    return 1.0 / (1.0 + math.exp(t))


def bernoulli_t_for_entropy(a):
    """Invert ``H(q) = a`` on ``q in (0, 1/2)`` by bisection, then
    ``t = ln((1 - q) / q)``."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if bernoulli_entropy(mid) < a:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    return math.log((1.0 - q) / q)


# --- exact cycles ----------------------------------------------------------

def simple_cycles(n, succ):
    """Every simple cycle of a digraph, each once, rooted at its smallest
    vertex.  Exponential: small graphs only."""
    cycles = []

    def extend(root, path, on_path):
        for w in succ[path[-1]]:
            if w == root:
                cycles.append(tuple(path))
            elif w > root and w not in on_path:
                on_path.add(w)
                path.append(w)
                extend(root, path, on_path)
                path.pop()
                on_path.discard(w)

    for root in range(n):
        extend(root, [root], {root})
    return cycles


def cycle_edges(cycle):
    return {(cycle[k], cycle[(k + 1) % len(cycle)]) for k in range(len(cycle))}


def exact_cycle_means(transitions, phi, memory):
    """All simple cycles of the block graph with their exact means."""
    states, edges = edge_words(transitions, memory)
    succ = [[] for _ in states]
    weight = {}
    for i, j, word in edges:
        succ[i].append(j)
        weight[(i, j)] = Fraction(phi[word[:memory]])
    out = []
    for cycle in simple_cycles(len(states), succ):
        total = sum(weight[e] for e in cycle_edges(cycle))
        out.append((total / len(cycle), cycle))
    return states, out


def cycle_word_mean(table, memory, blocks):
    """Exact mean of ``table`` along a cycle given by its state blocks."""
    k = len(blocks)
    total = Fraction(0)
    for m in range(k):
        word = blocks[m] + (blocks[(m + 1) % k][-1],)
        total += Fraction(table[word[:memory]])
    return total / k


# --- checks ----------------------------------------------------------------

def _close(value, expected, tol):
    return abs(value - expected) <= tol


def check_identity(p, entropy, t, integral):
    """Variational identity ``P(t phi) = h + t * integral(phi)``."""
    gap = abs(p - (entropy + t * integral))
    if gap > IDENTITY_TOL + IDENTITY_REL * abs(p):
        return [f"variational identity misses by {gap:.3g}"]
    return []


def check_pressure(p, expected):
    if not _close(p, expected, PRESSURE_TOL * max(1.0, abs(expected))):
        return [f"pressure {p!r} differs from the dense eigensolve {expected!r}"]
    return []


def check_closed_form(value, expected, what):
    if not _close(value, expected, CLOSED_FORM_TOL * max(1.0, abs(expected))):
        return [f"{what}: {value!r} against closed form {expected!r}"]
    return []


def check_slope(integral, expected):
    if not _close(integral, expected, SLOPE_TOL * max(1.0, abs(expected))):
        return [f"integral {integral!r} differs from the pressure slope {expected!r}"]
    return []


def check_entropy_range(entropy, h_top):
    if entropy < 0.0 or entropy > h_top + 1e-9:
        return [f"entropy {entropy!r} outside [0, h_top = {h_top!r}]"]
    return []


def check_low_temperature(p, entropy, integral, t, beta, h_top):
    """``t beta <= P(t phi) <= t beta + h_top`` and
    ``beta - h_top / t <= integral(phi) <= beta``."""
    slack = IDENTITY_TOL + IDENTITY_REL * abs(p)
    problems = []
    if p < t * beta - slack or p > t * beta + h_top + slack:
        problems.append(f"pressure {p!r} outside [t beta, t beta + h_top] at t={t}")
    if integral > beta + slack / t or integral < beta - h_top / t - slack / t:
        problems.append(f"average {integral!r} outside [beta - h_top/t, beta] at t={t}")
    return problems + check_identity(p, entropy, t, integral)


def check_sweep(samples, ray, psi_is_zero):
    """Samples are (t, pressure, entropy, phi_avg, psi_pressure) rows."""
    problems = []
    for t, p, h, avg, psi_p in samples:
        problems += check_pressure(p, ray.pressure(t))
        problems += check_slope(avg, ray.slope(t))
        if not _close(psi_p, p - t * avg, IDENTITY_TOL + IDENTITY_REL * abs(p)):
            problems.append(f"psi-pressure {psi_p!r} is not P - t avg at t={t}")
        if psi_is_zero and not _close(h, psi_p, IDENTITY_TOL):
            problems.append(f"entropy {h!r} differs from psi-pressure at t={t}")
    for a, b in zip(samples, samples[1:]):
        if b[4] > a[4] + MONOTONE_SLACK:
            problems.append(f"psi-pressure increased between t={a[0]} and t={b[0]}")
        if b[2] > a[2] + MONOTONE_SLACK and psi_is_zero:
            problems.append(f"entropy increased between t={a[0]} and t={b[0]}")
    # convexity: secant slopes do not decrease and bracket the derivative
    secants = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(samples, samples[1:])]
    for k, (left, right) in enumerate(zip(secants, secants[1:])):
        if right < left - MONOTONE_SLACK:
            problems.append(f"pressure not convex at t={samples[k + 1][0]}")
        avg = samples[k + 1][3]
        if not left - MONOTONE_SLACK <= avg <= right + MONOTONE_SLACK:
            problems.append(f"phi average outside the secant slopes at t={samples[k + 1][0]}")
    return problems


def check_solve(report, target, reference):
    """``report`` is (t_found, achieved, residual, lo, hi); ``reference``
    maps t to the objective computed independently."""
    t_found, achieved, residual, lo, hi = report
    problems = []
    if residual > SOLVER_TOL:
        problems.append(f"residual {residual!r} above {SOLVER_TOL}")
    if not _close(abs(achieved - target), residual, 1e-15):
        problems.append(f"residual {residual!r} is not |achieved - target|")
    if not lo <= t_found <= hi:
        problems.append(f"t_found {t_found!r} outside its bracket [{lo}, {hi}]")
    expected = reference(t_found)
    if not _close(achieved, expected, SLOPE_TOL * max(1.0, t_found)):
        problems.append(f"achieved {achieved!r} but the reference gives {expected!r}")
    if not _close(expected, target, SOLVER_TOL + SLOPE_TOL * max(1.0, t_found)):
        problems.append(f"reference value {expected!r} at t_found misses the target {target!r}")
    return problems
