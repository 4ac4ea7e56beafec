"""Topological pressure and equilibrium states on primitive subshifts.

The pressure of a locally constant potential is the log of the Perron
eigenvalue of the edge-exponentiated transition matrix; the unique
equilibrium state is the Markov measure built from the left and right
Perron vectors (kernel ``P_ij = A_ij e^{w_ij} r_j / (lambda r_i)``,
stationary ``pi_i ~ l_i r_i``).

Every eigensolve conjugates the matrix by a float max-plus eigenvector
of its log-weights first (tropical diagonal scaling), which keeps every
quantity of moderate size at any temperature, and then iterates in the
linear domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import maxplus
from ._edgegraph import edge_weights, graph_order
from ._perron import DEFAULT_TOL, MAX_ITERATIONS, logsumexp, power_log_perron
from .errors import CheckFailedError, MismatchedSystemError, ValidationError
from .potentials import Potential, combine, sup_norm
from .sft import Block, Sft, block_graph, topological_entropy

_INVARIANCE_TOL = 1e-12
_ROW_SUM_TOL = 1e-12
_ENTROPY_SLACK = 1e-9
_IDENTITY_TOL = 1e-9


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
    sft: Sft
    order: int
    result: PressureResult
    frame_logw: np.ndarray
    frame_right: np.ndarray
    # log pi = frame_left + frame_right (up to norm)
    frame_left: np.ndarray


def _require_over(sft: Sft, phi: Potential):
    if phi.sft != sft:
        raise MismatchedSystemError("potential is defined over a different subshift")


def _longest_walks(n, tail, head, weights, target):
    """Best weight of a walk from each vertex to ``target`` over the edges
    ``tail -> head``, by float Bellman passes up to the first that changes
    nothing; pinning ``target`` at 0 keeps rounding from creeping."""
    dist = np.full(n, -np.inf)
    dist[target] = 0.0
    for _ in range(n):
        step = dist.copy()
        np.maximum.at(step, tail, weights + dist[head])
        step[target] = 0.0
        if np.array_equal(step, dist):
            break
        dist = step
    return dist


def _maxplus_frame(n, src, dst, w):
    """Float max-plus conditioning of edge weights ``w`` on ``src -> dst``:
    the maximum cycle mean ``beta`` by Karp's recurrence (Karp 1978) over
    the edge arrays, in O(n E); a right max-plus eigenvector ``right`` of
    ``w - beta``; the conjugated weights ``frame_w``, whose rows peak at
    0; and a left max-plus eigenvector ``left`` of ``frame_w``."""
    # level[k, v]: best weight of a k-edge walk from vertex 0 to v
    level = np.full((n + 1, n), -np.inf)
    level[0, 0] = 0.0
    for k in range(1, n + 1):
        np.maximum.at(level[k], dst, level[k - 1, src] + w)
    reached = np.isfinite(level[:n])
    gaps = np.where(reached, level[n] - np.where(reached, level[:n], 0.0), np.inf)
    means = (gaps / np.arange(n, 0, -1)[:, None]).min(axis=0)
    vertex = int(means.argmax())
    beta = float(means[vertex])
    # Every cycle on a best n-edge walk into that vertex is critical: walk
    # back over argmax parents to the first repeated vertex.
    seen = set()
    for k in range(n, 0, -1):
        seen.add(vertex)
        into = np.flatnonzero(dst == vertex)
        vertex = int(src[into[(level[k - 1, src[into]] + w[into]).argmax()]])
        if vertex in seen:
            break
    right = _longest_walks(n, src, dst, w - beta, vertex)
    frame_w = w - beta + right[dst] - right[src]
    return beta, right, frame_w, _longest_walks(n, dst, src, frame_w, vertex)


def _solve_eigen(sft: Sft, order: int, w: np.ndarray, tol, max_iter) -> _EigenSolve:
    """Eigensolve of the edge weights ``w`` on ``block_graph(sft, order)``."""
    states, src, dst = block_graph(sft, order)
    n = len(states)
    # A conjugation keeps the spectrum and the enclosure is certified on the
    # conjugated matrix, so frame rounding cannot weaken it.  Conjugating the
    # transposed frame again, by its left eigenvector, keeps pi frame-sized.
    beta, right, frame_w, left = _maxplus_frame(n, src, dst, w)
    frame = np.full((n, n), -np.inf)
    frame[src, dst] = frame_w
    frame_t = np.full((n, n), -np.inf)
    frame_t[dst, src] = frame_w + left[src] - left[dst]

    p_right, u, res_right, it_right = power_log_perron(frame, tol, max_iter)
    _, v, res_left, it_left = power_log_perron(frame_t, tol, max_iter)
    frame_left = v + left
    result = PressureResult(
        value=p_right + beta,
        left_vector=frame_left - right,
        right_vector=u + right,
        residual=max(res_right, res_left),
        iterations=max(it_right, it_left),
    )
    return _EigenSolve(sft, order, result, frame, u, frame_left)


def _solve_potential(sft: Sft, phi: Potential, tol, max_iter) -> _EigenSolve:
    _require_over(sft, phi)
    order = graph_order(phi.memory)
    return _solve_eigen(sft, order, edge_weights(phi, order), tol, max_iter)


def pressure(sft: Sft, phi: Potential, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS) -> PressureResult:
    """Topological pressure of ``phi`` in nats."""
    return _solve_potential(sft, phi, tol, max_iter).result


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
        _, src, dst = block_graph(self.sft, self.order)
        pi = self.stationary
        charged = (pi[src] * self.kernel[src, dst] > 0) & (pi[dst] > 0)
        label = maxplus.strongly_connected_components(
            len(self._states), zip(src[charged].tolist(), dst[charged].tolist())
        )
        return len({label[i] for i in np.flatnonzero(pi > 0).tolist()}) == 1


def equilibrium_state(sft: Sft, phi: Potential, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS) -> MarkovMeasure:
    """The unique equilibrium state of ``phi`` as a Markov measure."""
    return _measure_from_eigen(_solve_potential(sft, phi, tol, max_iter))


def pressure_and_equilibrium(
    sft: Sft, phi: Potential, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS
) -> tuple[PressureResult, MarkovMeasure]:
    """Pressure and its equilibrium state from a single eigensolve."""
    solve = _solve_potential(sft, phi, tol, max_iter)
    return solve.result, _measure_from_eigen(solve)


def _ray_equilibrium(
    sft: Sft, psi: Potential, phi: Potential, t: float
) -> tuple[PressureResult, MarkovMeasure]:
    """Pressure and equilibrium state of ``psi + t * phi`` at the common
    order, solved on the cached edge weights of both potentials: the
    weights of ``combine(psi, phi, t)`` bit for bit, without building that
    potential or its dense edge table."""
    _require_over(sft, psi)
    _require_over(sft, phi)
    order = max(graph_order(psi.memory), graph_order(phi.memory))
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        w = edge_weights(psi, order) + t * edge_weights(phi, order)
    if not np.isfinite(w).all():
        raise ValidationError(f"psi + t * phi has a non-finite value at t = {t}")
    solve = _solve_eigen(sft, order, w, DEFAULT_TOL, MAX_ITERATIONS)
    return solve.result, _measure_from_eigen(solve)


def _measure_from_eigen(solve: _EigenSolve) -> MarkovMeasure:
    frame = solve.frame_logw
    u = solve.frame_right
    ln_kernel = frame + u[None, :] - u[:, None]
    ln_kernel -= logsumexp(ln_kernel, axis=1)[:, None]
    kernel = np.exp(ln_kernel)
    kernel /= kernel.sum(axis=1)[:, None]

    ln_pi = solve.frame_left + solve.frame_right
    pi = np.exp(ln_pi - logsumexp(ln_pi))
    pi /= pi.sum()
    pi = _polish_stationary(pi, kernel)
    return MarkovMeasure(solve.sft, solve.order, pi, kernel)


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
    _, src, dst = block_graph(mu.sft, mu.order)
    weight = mu.stationary[src] * mu.kernel[src, dst]
    charged = weight > 0
    # fsum is exactly rounded, so the order of the edges cannot matter.
    return math.fsum((weight[charged] * edge_weights(phi, mu.order)[charged]).tolist())


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
    _, src, dst = block_graph(mu.sft, mu.order)
    f = np.zeros_like(kernel)
    # 0 wherever the kernel is 0, so no product there is a signed zero
    f[src, dst] = np.where(kernel[src, dst] > 0, edge_weights(phi, mu.order), 0.0)
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
class VariationalIdentityReport:
    """Gap in the variational identity ``P(phi) = h(mu) + integral(phi, mu)``
    at the computed equilibrium state ``mu``."""

    gap: float
    ok: bool


def variational_identity_check(sft: Sft, phi: Potential) -> VariationalIdentityReport:
    """Gap between the pressure of ``phi`` and ``h(mu) + integral(phi, mu)``
    at its computed equilibrium state; ``ok`` when the gap is at most
    1e-9 (a ``nan`` gap is not ok)."""
    result, mu = pressure_and_equilibrium(sft, phi)
    gap = abs(result.value - (mu.entropy + integrate(mu, phi)))
    return VariationalIdentityReport(gap, bool(gap <= _IDENTITY_TOL))


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
