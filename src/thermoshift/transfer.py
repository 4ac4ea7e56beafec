"""Topological pressure and equilibrium states on primitive subshifts.

The pressure of a locally constant potential is the log of the Perron
eigenvalue of the edge-exponentiated transition matrix; the unique
equilibrium state is the Markov measure built from the left and right
Perron vectors (kernel ``P_ij = A_ij e^{w_ij} r_j / (lambda r_i)``,
stationary ``pi_i ~ l_i r_i``).

All spectral work happens in the log domain.  When the spread of the
log-weights is large (the low-temperature regime ``t -> infinity``), the
matrix is first conjugated by the exact max-plus eigenvector of its
weights, which keeps every intermediate quantity of moderate size; the
conjugation is computed in rational arithmetic and cancels identically
in the kernel and stationary formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import maxplus
from ._edgegraph import EdgeGraph, build_edge_graph
from ._perron import DEFAULT_TOL, MAX_ITERATIONS, logsumexp, power_log_perron
from .errors import CheckFailedError, MismatchedSystemError, ValidationError
from .potentials import Potential, combine, sup_norm
from .sft import Block, Sft, block_graph, topological_entropy

# Log-weight spread beyond which the max-plus conjugation is applied.
_PRECONDITION_SPAN = 30.0
_INVARIANCE_TOL = 1e-12
_ROW_SUM_TOL = 1e-12
_ENTROPY_SLACK = 1e-9


@dataclass(frozen=True)
class PressureResult:
    """Outcome of a pressure computation.

    ``value`` is the topological pressure in nats; ``left_vector`` and
    ``right_vector`` are the log-domain Perron vectors on the edge
    graph; ``residual`` is the certified half-width of the
    Collatz-Wielandt enclosure, measured in the conditioned frame.
    """

    value: float
    left_vector: np.ndarray = field(repr=False)
    right_vector: np.ndarray = field(repr=False)
    residual: float
    iterations: int


@dataclass(frozen=True)
class _EigenSolve:
    graph: EdgeGraph
    result: PressureResult
    frame_logw: np.ndarray
    frame_value: float
    frame_right: np.ndarray
    frame_left: np.ndarray
    # log pi = stationary_offset + frame_left + frame_right (up to norm)
    stationary_offset: np.ndarray


def _require_over(sft: Sft, phi: Potential):
    if phi.sft != sft:
        raise MismatchedSystemError("potential is defined over a different subshift")


def _solve_eigen(sft: Sft, phi: Potential, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS) -> _EigenSolve:
    _require_over(sft, phi)
    graph = build_edge_graph(sft, phi)
    logw = graph.logw
    n = graph.n_states
    finite = logw[np.isfinite(logw)]
    span = float(finite.max() - finite.min())

    if span > _PRECONDITION_SPAN and n > 1:
        # Conjugate each orientation by its own exact max-plus eigenvector
        # so both iterations see O(1) quantities; the offsets recombine
        # exactly in the pressure, the reported vectors and the
        # stationary weights.
        data = maxplus.analyze(n, graph.edges())
        vec, left = data.eigenvector, data.left_eigenvector
        frame = np.full_like(logw, -np.inf)
        frame_t = np.full_like(logw, -np.inf)
        for i, j, w in graph.edges():
            exact = Fraction(w) - data.beta
            frame[i, j] = float(exact + vec[j] - vec[i])
            frame_t[j, i] = float(exact + left[i] - left[j])
        value_offset = float(data.beta)
        right_offset = np.array([float(v) for v in vec])
        left_offset = np.array([float(y) for y in left])
        stationary_offset = np.array([float(y + v) for y, v in zip(left, vec)])
    else:
        value_offset = float(finite.max())
        frame = logw - value_offset
        frame_t = frame.T
        right_offset = np.zeros(n)
        left_offset = np.zeros(n)
        stationary_offset = np.zeros(n)

    p_right, u, res_right, it_right = power_log_perron(frame, tol, max_iter)
    p_left, v, res_left, it_left = power_log_perron(frame_t, tol, max_iter)
    residual = max(res_right, res_left)
    result = PressureResult(
        value=p_right + value_offset,
        left_vector=v + left_offset,
        right_vector=u + right_offset,
        residual=residual,
        iterations=max(it_right, it_left),
    )
    return _EigenSolve(graph, result, frame, p_right, u, v, stationary_offset)


def pressure(sft: Sft, phi: Potential, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS) -> PressureResult:
    """Topological pressure of ``phi`` in nats."""
    return _solve_eigen(sft, phi, tol, max_iter).result


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """A shift-invariant Markov measure on admissible ``order``-blocks.

    Validated on construction: the kernel is row-stochastic and
    supported on admissible transitions, the stationary vector is
    invariant, and the entropy lies in ``[0, h(f)]``.
    """

    sft: Sft
    order: int
    stationary: np.ndarray = field(repr=False)
    kernel: np.ndarray = field(repr=False)

    def __post_init__(self):
        states, src, dst = block_graph(self.sft, self.order)
        pi = np.asarray(self.stationary, dtype=float).copy()
        kernel = np.asarray(self.kernel, dtype=float).copy()
        n = len(states)
        if pi.shape != (n,) or kernel.shape != (n, n):
            raise ValidationError(
                f"expected {n} states of order {self.order}, got stationary "
                f"{pi.shape} and kernel {kernel.shape}"
            )
        if (pi < 0).any() or abs(pi.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValidationError("stationary vector is not a probability vector")
        if (kernel < 0).any():
            raise ValidationError("kernel has negative entries")
        rows = kernel.sum(axis=1)
        if np.abs(rows - 1.0).max() > _ROW_SUM_TOL:
            raise ValidationError(
                f"kernel rows sum to 1 only within {np.abs(rows - 1.0).max():.3g}"
            )
        allowed = np.zeros((n, n), dtype=bool)
        allowed[src, dst] = True
        if (kernel[~allowed] != 0).any():
            raise ValidationError("kernel is supported outside admissible transitions")
        drift = np.abs(pi @ kernel - pi).max()
        if drift > _INVARIANCE_TOL:
            raise ValidationError(f"stationary vector is not invariant (drift {drift:.3g})")

        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(kernel > 0, kernel * np.log(kernel), 0.0)
        entropy = max(0.0, float(-(pi @ plogp.sum(axis=1))))
        top = topological_entropy(self.sft)
        if entropy > top + _ENTROPY_SLACK:
            raise ValidationError(
                f"entropy {entropy} exceeds topological entropy {top}"
            )
        pi.flags.writeable = False
        kernel.flags.writeable = False
        object.__setattr__(self, "stationary", pi)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "_states", states)
        object.__setattr__(self, "_entropy", entropy)

    @property
    def states(self) -> tuple[Block, ...]:
        return self._states

    @property
    def entropy(self) -> float:
        """Measure-theoretic entropy in nats (0 log 0 = 0)."""
        return self._entropy

    def has_strongly_connected_support(self) -> bool:
        """True iff the charged states and transitions form one strongly
        connected component (so the measure is ergodic)."""
        charged = [i for i in range(len(self._states)) if self.stationary[i] > 0]
        edges = [
            (i, j)
            for i in charged
            for j in charged
            if self.stationary[i] * self.kernel[i, j] > 0
        ]
        label = maxplus.strongly_connected_components(len(self._states), edges)
        return len({label[i] for i in charged}) == 1


def measure_entropy(mu: MarkovMeasure) -> float:
    """Entropy of a Markov measure in nats."""
    return mu.entropy


def equilibrium_state(sft: Sft, phi: Potential, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS) -> MarkovMeasure:
    """The unique equilibrium state of ``phi`` as a Markov measure."""
    solve = _solve_eigen(sft, phi, tol, max_iter)
    return _measure_from_eigen(solve)


def pressure_and_equilibrium(
    sft: Sft, phi: Potential, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS
) -> tuple[PressureResult, MarkovMeasure]:
    """Pressure and its equilibrium state from a single eigensolve."""
    solve = _solve_eigen(sft, phi, tol, max_iter)
    return solve.result, _measure_from_eigen(solve)


def _measure_from_eigen(solve: _EigenSolve) -> MarkovMeasure:
    frame = solve.frame_logw
    u = solve.frame_right
    ln_kernel = frame + u[None, :] - solve.frame_value - u[:, None]
    ln_kernel -= logsumexp(ln_kernel, axis=1)[:, None]
    kernel = np.exp(ln_kernel)
    kernel /= kernel.sum(axis=1)[:, None]

    ln_pi = solve.stationary_offset + solve.frame_left + solve.frame_right
    pi = np.exp(ln_pi - logsumexp(ln_pi))
    pi /= pi.sum()
    pi = _polish_stationary(pi, kernel)
    return MarkovMeasure(solve.graph.sft, solve.graph.order, pi, kernel)


def _polish_stationary(pi: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # Kernel-power refinement; drift may oscillate when the subdominant
    # eigenvalue is complex, so keep the best iterate seen.
    def drift_of(vec):
        return np.abs(vec @ kernel - vec).max()

    best = current = pi
    best_drift = drift_of(pi)
    stale = 0
    for _ in range(100_000):
        if best_drift <= 1e-16 or stale >= 25:
            break
        current = current @ kernel
        current = current / current.sum()
        drift = drift_of(current)
        if drift < best_drift:
            best, best_drift = current, drift
            stale = 0
        else:
            stale += 1
    return best


def lift_markov_measure(mu: MarkovMeasure, order: int) -> MarkovMeasure:
    """Re-express a Markov measure on longer blocks (order may only grow)."""
    if order < mu.order:
        raise ValidationError(f"cannot lower order from {mu.order} to {order}")
    if order == mu.order:
        return mu
    # One order at a time: a (k+1)-block weighs its prefix times its
    # transition, which is the next order's kernel on the edges it ends.
    pi, kernel = mu.stationary, mu.kernel
    for k in range(mu.order, order):
        _, src, dst = block_graph(mu.sft, k)
        step = kernel[src, dst]
        pi = pi[src] * step
        _, src, dst = block_graph(mu.sft, k + 1)
        kernel = np.zeros((len(pi), len(pi)))
        kernel[src, dst] = step[dst]
    return MarkovMeasure(mu.sft, order, pi / pi.sum(), kernel)


def integrate(mu: MarkovMeasure, phi: Potential) -> float:
    """Integral of ``phi`` against a Markov measure.

    The measure is lifted to a higher block order first when the
    potential's memory exceeds ``order + 1``.
    """
    if phi.sft != mu.sft:
        raise MismatchedSystemError("potential and measure live on different subshifts")
    if phi.memory > mu.order + 1:
        mu = lift_markov_measure(mu, phi.memory - 1)
    weight = mu.stationary[:, None] * mu.kernel
    charged = weight > 0  # masked first: 0 * -inf is nan off the edges
    logw = build_edge_graph(mu.sft, phi, mu.order).logw
    return math.fsum((weight[charged] * logw[charged]).tolist())


def _asymptotic_variance(mu: MarkovMeasure, phi: Potential) -> float:
    """Asymptotic variance of ``phi`` under the Markov measure ``mu``.

    ``phi`` must live on the subshift of ``mu`` with memory at most
    ``mu.order + 1``, as it does when ``mu`` is the equilibrium state
    ``mu_t`` of ``psi + t * phi``; the result is then the second
    derivative ``p''(t)`` of the pressure along the ray.

    With ``f`` the value of ``phi`` on each transition, ``g = (P * f) 1``
    its one-step mean and ``m = pi g`` its average, the covariances of
    all lags sum through the fundamental matrix ``(I - P + 1 pi)^-1``
    (Kemeny and Snell): ``var = sum pi_i P_ij (f_ij - m)^2 + 2 pi (P * f) h``
    with ``h`` solving ``(I - P + 1 pi) h = g - m``.

    The system is singular when ``P`` is reducible, as it becomes once
    the weights between two tied ground cycles underflow at large ``t``;
    the variance is then ``nan``.  It is not clamped, so round-off can
    leave it a few ulps below zero where it vanishes.
    """
    kernel, pi = mu.kernel, mu.stationary
    f = np.where(kernel > 0, build_edge_graph(mu.sft, phi, mu.order).logw, 0.0)
    weighted = kernel * f
    g = weighted.sum(axis=1)
    m = pi @ g
    try:
        h = np.linalg.solve(np.eye(len(pi)) - kernel + pi[None, :], g - m)
    except np.linalg.LinAlgError:
        return math.nan
    spread = pi @ (kernel * (f - m) ** 2).sum(axis=1)
    return float(spread + 2.0 * pi @ (weighted @ h))


@dataclass(frozen=True)
class LipschitzReport:
    """Both sides of the pressure Lipschitz bound |P(phi)-P(psi)| <= |phi-psi|."""

    pressure_gap: float
    sup_norm_bound: float
    ok: bool


def lipschitz_check(sft: Sft, phi: Potential, psi: Potential, slack: float = 1e-12) -> LipschitzReport:
    """Verify that pressure is 1-Lipschitz for the sup norm."""
    _require_over(sft, phi)
    _require_over(sft, psi)
    gap = abs(pressure(sft, phi).value - pressure(sft, psi).value)
    bound = sup_norm(combine(phi, psi, -1.0))
    ok = gap <= bound + slack
    if not ok:
        raise CheckFailedError(
            f"pressure gap {gap} exceeds sup-norm bound {bound} beyond slack {slack}"
        )
    return LipschitzReport(gap, bound, ok)
