"""Topological pressure and equilibrium states on primitive subshifts.

The pressure of a locally constant potential is the log of the Perron
eigenvalue of the edge-exponentiated transition matrix; the unique
equilibrium state is the Markov measure built from the left and right
Perron vectors (kernel ``P_ij = A_ij e^{w_ij} r_j / (lambda r_i)``,
stationary ``pi_i ~ l_i r_i``).

Every eigensolve is `_perron.solve_stack`: a float max-plus frame of
the log-weights (tropical diagonal scaling), which keeps every quantity
of moderate size at any temperature, then a linear-domain Perron
iteration of both sides, certified to the fixed tolerance
``_perron.TOL``.

The kernels live in dense ``n x n`` tables that are 0 off the edges.
Every exp and log of the measure assembly and of its validation runs on
the edge entries alone (p log p on the positive entries), and the
results are scattered into zero-filled tables; every row sum is still
taken over the dense row, so numpy's pairwise summation groups the same
terms as over a table padded with ``-inf`` before ``exp``, bit for bit.
Each kernel row and each stationary vector is one ``exp`` of its log
row less the row's maximum, divided by its sum (`_equilibria`).

Solves run on stacks: rows of edge weights on one graph, such as
``psi + t * phi`` for a whole grid of ``t``, go through one
`solve_stack` and one measure assembly with a leading stack axis; a
single potential is a stack of one.  Each slice equals its solve alone
bit for bit: every dot product and matrix product is still taken per
slice, and every iteration stops on its slice's own counts.  So a
sample of a sweep equals ``paths.sample_at`` at its point.  A grid is
solved in chunks whose largest stacked table holds at most
``_STACK_ENTRIES`` entries, and at least one sample.  Every measure is
validated once: `MarkovMeasure` on construction, a grid's by
`_validate_measures` on the whole chunk.

A multi-point solve raises what ``paths.sample_at`` raises at its first
failing point, as ``paths._stacked`` solves a stack that fails again by
halves, down to that point alone.  So each stage of a stack raises the error of its own
first failing slice: the eigensolve its ``ValidationError`` or
``ConvergenceError``, the measure validation its ``ValidationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._edgegraph import edge_weights, graph_order
from ._perron import EigenSolve, _solved, solve_stack
from .errors import CheckFailedError, ValidationError
from .potentials import Potential, _require_over, combine, sup_norm
from .sft import Block, Sft, block_graph, out_edge_starts, topological_entropy

_INVARIANCE_TOL = 1e-12
_ROW_SUM_TOL = 1e-12
_ENTROPY_SLACK = 1e-9
_IDENTITY_TOL = 1e-9
_LIPSCHITZ_SLACK = 1e-12
# Most entries of one stacked n x n table (2 MiB of float64): a grid of
# the ray is solved in chunks of max(1, _STACK_ENTRIES // (2 n^2))
# samples, as the Perron stack holds both sides of each.
_STACK_ENTRIES = 2**18


@dataclass(frozen=True)
class PressureResult:
    """Outcome of a pressure computation.

    ``value`` is the topological pressure in nats; ``left_vector`` and
    ``right_vector`` are the log-domain Perron vectors on the edge
    graph; ``residual`` is the certified half-width of the
    Collatz-Wielandt enclosure, measured in the conditioned frame.
    ``iterations`` is the larger count of products ``E x`` of the two
    Perron sides; a side that stays in the plain phase takes the
    enclosure only at its first and every fourth product, so it counts 1
    or a multiple of 4.
    """

    value: float
    left_vector: np.ndarray = field(repr=False)
    right_vector: np.ndarray = field(repr=False)
    residual: float
    iterations: int


def _solve_potential(sft: Sft, phi: Potential) -> EigenSolve:
    _require_over(sft, phi)
    order = graph_order(phi.memory)
    states, src, dst = block_graph(sft, order)
    return solve_stack(len(states), src, dst, edge_weights(phi, order)[None])


def _pressure_result(solve: EigenSolve) -> PressureResult:
    """The pressure of a stack of one solve."""
    return PressureResult(
        value=float(solve.value[0]),
        left_vector=solve.frame_left[0] - solve.maxplus_right[0],
        right_vector=solve.frame_right[0] + solve.maxplus_right[0],
        residual=max(solve.residuals.tolist()),
        iterations=max(solve.iterations.tolist()),
    )


def pressure(sft: Sft, phi: Potential) -> PressureResult:
    """Topological pressure of ``phi`` in nats."""
    return _pressure_result(_solve_potential(sft, phi))


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """A shift-invariant Markov measure on admissible ``order``-blocks.

    Validated on construction: the stationary vector and the kernel are
    finite, the kernel is row-stochastic and supported on admissible
    transitions, the stationary vector is an invariant probability
    vector, and the entropy lies in ``[0, h(f)]``.
    """

    sft: Sft
    order: int
    stationary: np.ndarray = field(repr=False)
    kernel: np.ndarray = field(repr=False)

    def __post_init__(self):
        states = block_graph(self.sft, self.order)[0]
        n = len(states)
        pi = np.asarray(self.stationary, dtype=float).copy()
        kernel = np.asarray(self.kernel, dtype=float).copy()
        if pi.shape != (n,) or kernel.shape != (n, n):
            raise ValidationError(
                f"expected {n} states of order {self.order}, got stationary "
                f"{pi.shape} and kernel {kernel.shape}"
            )
        entropy = _validate_measures(self.sft, self.order, pi[None], kernel[None])
        pi.flags.writeable = False
        kernel.flags.writeable = False
        object.__setattr__(self, "stationary", pi)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "_states", states)
        object.__setattr__(self, "_entropy", float(entropy[0]))

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
        from . import maxplus  # here, so that a pressure loads no max-plus code

        _, src, dst = block_graph(self.sft, self.order)
        pi = self.stationary
        charged = (pi[src] * self.kernel[src, dst] > 0) & (pi[dst] > 0)
        label = maxplus.strongly_connected_components(
            len(self._states), zip(src[charged].tolist(), dst[charged].tolist())
        )
        return len({label[i] for i in np.flatnonzero(pi > 0).tolist()}) == 1


def _dots(a, b):
    """``a[s] @ b[s]`` for each row ``s`` of two stacks of vectors, one
    dot product per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _validate_measures(sft: Sft, order: int, pi: np.ndarray, kernel: np.ndarray):
    """The checks of `MarkovMeasure` on a stack of stationary vectors
    ``pi`` (T, n) and kernels ``kernel`` (T, n, n) on ``order``-blocks.

    Returns the entropies of the slices.  Raises the ``ValidationError``
    of the first slice that fails a check, for the first check it fails."""
    _, src, dst = block_graph(sft, order)
    size = len(pi)
    # The reductions run on every slice at once; a slice that fails a
    # check is refused, so what the later ones make of it is moot.
    with np.errstate(all="ignore"):
        # p log p on the positive entries alone, 0 elsewhere: no log runs
        # over the zero padding
        positive = kernel > 0
        plogp = np.zeros(kernel.shape)
        np.log(kernel, out=plogp, where=positive)
        np.multiply(kernel, plogp, out=plogp, where=positive)
        dots = _dots(pi, np.add.reduce(plogp, axis=2))
        deviation = np.maximum.reduce(np.abs(np.add.reduce(kernel, axis=2) - 1.0), axis=1)
        drift = np.maximum.reduce(np.abs(np.matmul(pi[:, None, :], kernel)[:, 0] - pi), axis=1)
    # An entry off the transitions is nonzero iff a slice has more nonzero
    # entries than it has on the transitions.
    stray = [False] * size
    if np.count_nonzero(kernel) != np.count_nonzero(kernel[:, src, dst]):
        stray = [np.count_nonzero(k) != np.count_nonzero(k[src, dst]) for k in kernel]
    top = topological_entropy(sft)
    entropy = []
    # A finite sum has finite terms, so only a slice whose sum is not
    # finite is searched for a non-finite entry.
    for k, (total, low, low_kernel, rows, stray, moved, dot) in enumerate(zip(
        np.add.reduce(pi, axis=1).tolist(),
        np.minimum.reduce(pi, axis=1).tolist(),
        np.minimum.reduce(kernel.reshape(size, -1), axis=1).tolist(),
        deviation.tolist(),
        stray,
        drift.tolist(),
        dots.tolist(),
    )):
        h = max(0.0, -dot)
        if not math.isfinite(total) and not np.isfinite(pi[k]).all():
            message = "stationary vector has a non-finite entry"
        elif not math.isfinite(rows) and not np.isfinite(kernel[k]).all():
            message = "kernel has a non-finite entry"
        elif low < 0 or abs(total - 1.0) > _ROW_SUM_TOL:
            message = "stationary vector is not a probability vector"
        elif low_kernel < 0:
            message = "kernel has negative entries"
        elif rows > _ROW_SUM_TOL:
            message = f"kernel rows sum to 1 only within {rows:.3g}"
        elif stray:
            message = "kernel is supported outside admissible transitions"
        elif moved > _INVARIANCE_TOL:
            message = f"stationary vector is not invariant (drift {moved:.3g})"
        elif h > top + _ENTROPY_SLACK:
            message = f"entropy {h} exceeds topological entropy {top}"
        else:
            entropy.append(h)
            continue
        raise ValidationError(message)
    return entropy


def _equilibria(sft: Sft, order: int, solve: EigenSolve):
    """Stationary vectors and kernels of the equilibrium states of a stack
    of solves on ``block_graph(sft, order)``, not yet validated."""
    _, src, dst = block_graph(sft, order)
    u = solve.frame_right
    size, n = u.shape
    # Each row has an edge and every log weight is finite, so each row's
    # maximum is finite: its exp on the edges peaks at 1 and cannot
    # overflow, and its sum over the dense row is at least 1.
    ln_kernel = solve.frame_w + u[:, dst] - u[:, src]
    row_max = np.maximum.reduceat(ln_kernel, out_edge_starts(sft, order), axis=1)
    kernel = np.zeros((size, n, n))
    kernel[:, src, dst] = np.exp(ln_kernel - row_max[:, src])
    kernel /= np.add.reduce(kernel, axis=2)[:, :, None]
    # the same for each row of the log stationary vector, dense and finite
    ln_pi = solve.frame_left + solve.frame_right
    pi = np.exp(ln_pi - np.maximum.reduce(ln_pi, axis=1, keepdims=True))
    pi /= np.add.reduce(pi, axis=1)[:, None]
    return pi, kernel


def _equilibrium(sft: Sft, order: int, solve: EigenSolve) -> MarkovMeasure:
    """The equilibrium state of a stack of one solve."""
    pi, kernel = _equilibria(sft, order, solve)
    return MarkovMeasure(sft, order, pi[0], kernel[0])


def equilibrium_state(sft: Sft, phi: Potential) -> MarkovMeasure:
    """The unique equilibrium state of ``phi`` as a Markov measure."""
    return _equilibrium(sft, graph_order(phi.memory), _solve_potential(sft, phi))


def pressure_and_equilibrium(sft: Sft, phi: Potential) -> tuple[PressureResult, MarkovMeasure]:
    """Pressure and its equilibrium state from a single eigensolve."""
    solve = _solve_potential(sft, phi)
    return _pressure_result(solve), _equilibrium(sft, graph_order(phi.memory), solve)


@dataclass(frozen=True)
class PathSample:
    """One point of the ray ``t -> psi + t*phi``.

    ``pressure`` is ``P(psi + t phi)``; ``entropy`` and ``phi_avg`` are
    taken in the unique equilibrium state ``mu_t``; ``psi_pressure`` is
    ``h(mu_t) + integral(psi, mu_t)``; ``phi_var`` is ``p''(t)``, the
    asymptotic variance of ``phi`` under ``mu_t`` (``nan`` on a sample
    built by hand or where the kernel of ``mu_t`` is reducible).
    """

    t: float
    pressure: float
    entropy: float
    phi_avg: float
    psi_pressure: float
    phi_var: float = math.nan


def _checked_grid(name: str, grid, *, positive: bool) -> list[float]:
    """The points of the grid ``name`` of a ray as floats, refused with a
    ``ValidationError`` unless they are finite and strictly increasing
    from a first point that is positive, or only nonnegative when not
    ``positive``."""
    ts = [float(t) for t in grid]
    if not ts:
        raise ValidationError(f"{name} must be nonempty")
    for t in ts:
        if not math.isfinite(t):
            raise ValidationError(f"{name} must be finite, got {t}")
    if (ts[0] <= 0 if positive else ts[0] < 0) or any(b <= a for a, b in zip(ts, ts[1:])):
        sign = "positive" if positive else "nonnegative"
        raise ValidationError(f"{name} must be {sign} and strictly increasing")
    return ts


def _ray_graph(sft: Sft, psi: Potential, phi: Potential):
    """The common order of ``psi`` and ``phi`` and the block graph of that
    order, on which the ray ``psi + t * phi`` is solved."""
    _require_over(sft, psi, phi)
    order = graph_order(psi.memory, phi.memory)
    return order, block_graph(sft, order)


def _ray_samples(sft: Sft, psi: Potential, phi: Potential, ts: list[float]) -> list[PathSample]:
    """The path samples at the points ``ts`` of the ray ``psi + t * phi``,
    solved as stacks at the common order on the cached edge weights of
    both potentials: the weights of ``combine(psi, phi, t)`` bit for bit,
    without building that potential or its dense edge table.

    Raises the error of a failing point of the first chunk that has one:
    the ``ValidationError`` of its first point whose weights are not
    finite, before any solve; else the first error of its eigensolve,
    then of its measure validation (see the module docstring)."""
    order, (states, src, dst) = _ray_graph(sft, psi, phi)
    n = len(states)
    w_psi, w_phi = edge_weights(psi, order), edge_weights(phi, order)
    chunk = max(1, _STACK_ENTRIES // (2 * n * n))
    out = []
    for start in range(0, len(ts), chunk):
        grid = ts[start:start + chunk]
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            w = w_psi + np.array(grid, dtype=float)[:, None] * w_phi
        finite = np.isfinite(w).all(axis=1)
        if not finite.all():
            raise ValidationError(
                f"psi + t * phi has a non-finite value at t = {grid[int(finite.argmin())]}"
            )
        solve = solve_stack(n, src, dst, w)
        pi, kernel = _equilibria(sft, order, solve)
        entropy = _validate_measures(sft, order, pi, kernel)
        phi_avg, psi_avg = _integrals(sft, order, pi, kernel, w_phi, w_psi)
        phi_var = _variances(sft, order, pi, kernel, w_phi).tolist()
        psi_pressure = [h + b for h, b in zip(entropy, psi_avg)]
        out += map(PathSample, grid, solve.value.tolist(), entropy, phi_avg, psi_pressure, phi_var)
    return out


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
    _require_over(mu.sft, phi)
    if phi.memory > mu.order + 1:
        mu = lift_markov_measure(mu, phi.memory - 1)
    return _integrals(mu.sft, mu.order, mu.stationary[None], mu.kernel[None],
                      edge_weights(phi, mu.order))[0][0]


def _integrals(sft: Sft, order: int, pi, kernel, *weights) -> list[list[float]]:
    """Integral of each vector of edge weights of ``block_graph(sft,
    order)`` in ``weights`` against each measure of a stack: one list over
    the stack per vector."""
    _, src, dst = block_graph(sft, order)
    mass = pi[:, src] * kernel[:, src, dst]
    # fsum is exactly rounded, so the order of the edges cannot matter, and
    # it sums zeros to +0.0, so uncharged edges (zero terms) cannot either.
    return [[math.fsum(row) for row in (mass * w).tolist()] for w in weights]


def _variances(sft: Sft, order: int, pi, kernel, weights) -> np.ndarray:
    """Asymptotic variance of the edge weights ``weights`` of
    ``block_graph(sft, order)`` under each measure of a stack.

    With ``f`` the value of the weights on each transition,
    ``g = (P * f) 1`` its one-step mean and ``m = pi g`` its average, the
    covariances of all lags sum through the fundamental matrix
    ``(I - P + 1 pi)^-1`` (Kemeny and Snell):
    ``var = sum pi_i P_ij (f_ij - m)^2 + 2 pi (P * f) h`` with ``h``
    solving ``(I - P + 1 pi) h = g - m``.

    The system is singular when ``P`` is reducible, as it becomes once
    the weights between two tied ground cycles underflow at large ``t``;
    the variance of that slice alone is then ``nan``.  It is not clamped,
    so round-off can leave it a few ulps below zero where it vanishes.
    """
    _, src, dst = block_graph(sft, order)
    f = np.zeros_like(kernel)
    # 0 wherever the kernel is 0, so no product there is a signed zero
    f[:, src, dst] = np.where(kernel[:, src, dst] > 0, weights, 0.0)
    weighted = kernel * f
    g = np.add.reduce(weighted, axis=2)
    m = _dots(pi, g)
    system = np.eye(pi.shape[1]) - kernel + pi[:, None, :]
    # nan in a singular slice's h, which carries through to its variance
    h = _solved(system, (g - m[:, None])[:, :, None])
    spread = _dots(pi, np.add.reduce(kernel * (f - m[:, None, None]) ** 2, axis=2))
    return spread + _dots(2.0 * pi, np.matmul(weighted, h)[:, :, 0])


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
    gap = _identity_gap(phi, *pressure_and_equilibrium(sft, phi))
    return VariationalIdentityReport(gap, bool(gap <= _IDENTITY_TOL))


def _identity_gap(phi: Potential, result: PressureResult, mu: MarkovMeasure) -> float:
    """``|P(phi) - (h(mu) + integral(phi, mu))|`` for the pressure
    ``result`` of ``phi`` and its equilibrium state ``mu``."""
    return abs(result.value - (mu.entropy + integrate(mu, phi)))


@dataclass(frozen=True)
class LipschitzReport:
    """Both sides of the pressure Lipschitz bound |P(phi)-P(psi)| <= |phi-psi|."""

    pressure_gap: float
    sup_norm_bound: float
    ok: bool


def lipschitz_check(sft: Sft, phi: Potential, psi: Potential) -> LipschitzReport:
    """Verify that pressure is 1-Lipschitz for the sup norm, up to
    ``_LIPSCHITZ_SLACK``."""
    _require_over(sft, phi, psi)
    gap = abs(pressure(sft, phi).value - pressure(sft, psi).value)
    bound = sup_norm(combine(phi, psi, -1.0))
    ok = gap <= bound + _LIPSCHITZ_SLACK
    if not ok:
        raise CheckFailedError(
            f"pressure gap {gap} exceeds sup-norm bound {bound} beyond slack {_LIPSCHITZ_SLACK}"
        )
    return LipschitzReport(gap, bound, ok)
