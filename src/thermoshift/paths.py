"""Sweeps and intermediate-value solvers along potential rays.

Along the ray ``t -> psi + t * phi`` the pressure ``p(t)`` is convex with
``p'(t)`` equal to the equilibrium average of ``phi`` and ``p''(t)`` equal
to the asymptotic variance of ``phi`` in the equilibrium state, so both
the entropy and the ``psi``-pressure of the equilibrium state,
``p(t) - t p'(t)``, are non-increasing for ``t >= 0`` with derivative
``-t p''(t)``.  Targets between the asymptotic ground value and the value
at ``t = 0`` are therefore found by a geometric bracketing scan followed
by Newton steps safeguarded by bisection inside the bracket.

A sweep solves its whole grid as stacks (see `transfer`), and each of its
samples equals `sample_at` at that point bit for bit; `sample_at` is a
sweep of one point.  Every multi-point solve raises what `sample_at`
raises at its first failing point: a stack that fails is solved again
one point at a time (`_stacked`), by a sweep and by the solvers alike.

The solvers solve their start at ``t = 0`` and the points of their
geometric scan in look-ahead stacks: the next few points are solved
together, and those past the bracket are dropped.  A target at the value
at ``t = 0`` is solved at the start alone.  A stack ends early at
the first scan point at or past the root of the Newton tangent at the
last point solved, so few points are solved past the bracket.  The Newton
steps that close the bracket probe one point at a time, since each
depends on the ones before it, except the last: once quadratic
convergence puts the Newton point within a quarter of the width
tolerance of the root, that point and the two half a width on either side
of it are solved as one stack, and the first of the two that still lies
inside the bracket closes it when the prediction holds.  A stack that
fails is solved again one point at a time, so a solve reports and raises
what probing one point at a time would.  The look-ahead is 8 on block graphs of at most 32
states and 1 above: timed against a look-ahead of 1 on full shifts with
random potentials, stacks of eight made the probes of a solve cheaper up
to 32 states, about as cheap at 64 and dearer at 128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator

from .errors import (
    AsymptoteUnreachableError,
    CheckFailedError,
    ConvergenceError,
    MonotonicityError,
    NonUniqueGroundStateError,
    TargetOutOfRangeError,
    ValidationError,
)
from .potentials import Potential, combine, zero_potential
from .sft import Sft, topological_entropy
from .transfer import (
    _IDENTITY_TOL,
    PathSample,
    _checked_grid,
    _identity_gap,
    _ray_graph,
    _ray_samples,
    pressure,
    pressure_and_equilibrium,
)

SOLVER_TOL = 1e-8
SCAN_STEP = 0.125
SCAN_T_MAX = SCAN_STEP * 2**20
_ENDPOINT_GUARD = 1e-12
# Points solved as one stack by the bracketing scans, and the width of the
# stack that closes a bracket, on block graphs of at most _LOOK_AHEAD_STATES
# states; larger graphs probe one point at a time, as stacks there timed
# about as cheap (64 states) or dearer (128).  Eight points bring the scan
# out to t = 8 in the first stack.
_LOOK_AHEAD = 8
_LOOK_AHEAD_STATES = 32


@dataclass(frozen=True)
class SolveReport:
    """Result of an intermediate-value solve along a ray.

    ``bracket`` is the interval found by the geometric scan, ``iterations``
    the number of probes made after it was found, and ``trace`` every
    probe the solve consumed, in order: the start at ``t = 0``, the scan up
    to the end of the bracket, then the Newton probes.  Points solved in a
    stack past the bracket, or past the collapse of the bracket, are not
    in it.
    """

    target: float
    t_found: float
    achieved: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    trace: tuple[PathSample, ...] = field(repr=False)


def sample_at(sft: Sft, psi: Potential, phi: Potential, t: float) -> PathSample:
    """Evaluate one path sample at parameter ``t``: a sweep of one point."""
    return _ray_samples(sft, psi, phi, [float(t)])[0]


def sweep(sft: Sft, psi: Potential, phi: Potential, t_grid) -> list[PathSample]:
    """Path samples on an increasing grid of parameters ``t >= 0``,
    solved as stacks; each equals `sample_at` at its point bit for bit.
    A grid that fails is solved again one point at a time, so it raises
    what `sample_at` raises at its first failing point."""
    ts = _checked_grid("t_grid", t_grid, positive=False)
    return list(_stacked(partial(_ray_samples, sft, psi, phi), ts, len(ts)))


@dataclass(frozen=True)
class MonotonicityReport:
    """Largest entropy increase seen along a sweep (should be round-off)."""

    max_increase: float
    ok: bool


def entropy_monotonicity_check(samples, slack: float = 1e-9) -> MonotonicityReport:
    """Assert that entropy is non-increasing along a sweep.

    On this model class the equilibrium entropy decreases along every
    ray out of ``t = 0``; an increase beyond ``slack`` signals a
    numerical fault and raises :class:`MonotonicityError`.
    """
    increases = [
        b.entropy - a.entropy for a, b in zip(samples, samples[1:])
    ]
    max_increase = max(increases, default=0.0)
    if max_increase > slack:
        raise MonotonicityError(
            f"entropy increased by {max_increase} along the sweep (slack {slack})"
        )
    return MonotonicityReport(max_increase, True)


def _check_positive(name: str, value: float):
    if not 0.0 < value < math.inf:  # nan fails too
        raise ValidationError(f"{name} must be a finite positive number, got {value}")


_Evaluator = Callable[[list[float]], list[PathSample]]


def _look_ahead(sft: Sft, psi: Potential, phi: Potential) -> int:
    """Points per stack of a bracketing scan along ``psi + t * phi``."""
    _, (states, _, _) = _ray_graph(sft, psi, phi)
    return _LOOK_AHEAD if len(states) <= _LOOK_AHEAD_STATES else 1


def _scan_grid(t_max: float) -> Iterator[float]:
    """The geometric scan ``SCAN_STEP * 2**k`` up to ``t_max``."""
    t = SCAN_STEP
    while t <= t_max:
        yield t
        t *= 2.0


def _stacked(
    evaluate: _Evaluator,
    ts: Iterable[float],
    look_ahead: int,
    crossing: Callable[[PathSample], float] = lambda s: math.inf,
    wanted: Callable[[float], bool] = lambda t: True,
) -> Iterator[PathSample]:
    """Samples at the points ``ts`` in order, solved in stacks of up to
    ``look_ahead`` points as the caller asks for them.  A point is skipped
    where ``wanted`` fails for it once the caller has taken the samples
    before it.  A stack ends early at its first point at or past
    ``crossing`` of the last sample solved, where the caller expects to
    stop.  A stack that raises is solved again one wanted point at a time,
    so the error that comes out is the one of the first failing point the
    caller wants, once the points before it are yielded."""
    ts = iter(ts)
    end = math.inf
    while True:
        stack = []
        for t in ts:
            if not wanted(t):
                continue
            stack.append(t)
            if len(stack) == look_ahead or t >= end:
                break
        if not stack:
            return
        try:
            solved = evaluate(stack)
        except (ConvergenceError, ValidationError):
            if len(stack) == 1:
                raise
            solved = [None] * len(stack)
        for t, s in zip(stack, solved):
            if wanted(t):
                last = s if s is not None else evaluate([t])[0]
                yield last
        end = crossing(last)


def _solve_monotone(
    evaluate: _Evaluator,
    look_ahead: int,
    value_of: Callable[[PathSample], float],
    target: float,
    tol: float,
    t_max: float,
    exhausted: Callable[[list[PathSample]], Exception],
) -> SolveReport:
    """Bracket a non-increasing objective on a geometric grid, then close
    the bracket by safeguarded Newton steps.

    The start and the scan are solved in stacks of up to ``look_ahead``
    points (see `_stacked`).  A stack after the first ends early at the
    first scan point at or past the root of the Newton tangent at the last
    point solved, so the points solved past the bracket are few; the report
    holds only the points the scan reached.

    Both objectives have derivative ``-t p''(t)``.  From the probe
    closest to the target (the latest of those tied, so an end of the
    bracket) the Newton step is taken when it lands strictly inside the
    bracket, else the midpoint (``rtsafe``, Numerical Recipes section
    9.4).  A Newton step shorter than the width tolerance is pushed half
    that tolerance past the root, so the next probe lands on the other
    side of it and closes the bracket.  A probe on the target has a step
    of 0, pushed twice as far as the last push: where rounding leaves the
    objective on the target over many widths, the probes cross that
    plateau in a few doublings.  When a step taken inside the
    bracket is short enough that quadratic convergence (the error of the
    new point about ``step**3 / previous**2``) puts its point within a
    quarter width of the root, the points half a width beyond and short
    of it are solved with it: in order, each is probed unless it lies
    outside the bracket or the bracket has collapsed.

    The returned parameter carries both guarantees: objective within
    ``tol`` of the target and a bracket collapsed to near round-off, so
    the parameter itself is close to the true crossing.
    """
    def newton_step(s: PathSample) -> float | None:
        curvature = s.t * s.phi_var  # minus the objective's slope
        return (value_of(s) - target) / curvature if curvature > 0.0 else None

    def crossing(s: PathSample) -> float:
        step = newton_step(s)
        return math.inf if step is None else s.t + step

    trace: list[PathSample] = []
    scan = _stacked(evaluate, chain([0.0], _scan_grid(t_max)), look_ahead, crossing)
    start = next(scan)
    trace.append(start)
    if abs(value_of(start) - target) <= tol:
        return SolveReport(target, 0.0, value_of(start),
                           abs(value_of(start) - target), (0.0, 0.0), 0, tuple(trace))
    if value_of(start) < target:
        raise TargetOutOfRangeError(
            f"target {target} exceeds the value {value_of(start)} at t = 0"
        )

    low_t = 0.0
    bracket = None
    for s in scan:
        trace.append(s)
        if value_of(s) <= target:
            bracket = (low_t, s.t)
            break
        low_t = s.t
    if bracket is None:
        raise exhausted(trace)

    lo, hi = bracket
    best = min(reversed(trace), key=lambda s: abs(value_of(s) - target))
    iterations = 0
    previous = None  # the last Newton step probed, None after a midpoint
    push = 0.0  # the last push of a Newton step

    def width() -> float:
        return 1e-10 * max(1.0, hi)

    def open_at(t: float) -> bool:
        return lo < t < hi and hi - lo > width()

    while hi - lo > (w := width()):
        points = [0.5 * (lo + hi)]
        step = newton_step(best)
        if step is not None:
            pushed = abs(step) < w
            if pushed:
                push = 2.0 * push if step == 0.0 and push else 0.5 * w
                step += math.copysign(push, step)
            if lo < best.t + step < hi:
                t = best.t + step
                points = [t]
                # quadratic convergence puts t within w / 4 of the root:
                # solve the points that close the bracket with it
                if not pushed and previous is not None and abs(step) ** 3 < 0.25 * w * previous**2:
                    half = math.copysign(0.5 * w, step)
                    points += [t + half, t - half]
            else:
                step = None
        previous = step
        for s in _stacked(evaluate, points, look_ahead, wanted=open_at):
            trace.append(s)
            iterations += 1
            if abs(value_of(s) - target) <= abs(value_of(best) - target):
                best = s
            if value_of(s) >= target:
                lo = s.t
            else:
                hi = s.t
    residual = abs(value_of(best) - target)
    if residual > tol:
        raise ConvergenceError(
            f"the bracket collapsed but the residual {residual} "
            f"still exceeds {tol}"
        )
    return SolveReport(target, best.t, value_of(best), residual,
                       bracket, iterations, tuple(trace))


def solve_intermediate_entropy(
    sft: Sft,
    phi: Potential,
    a: float,
    tol: float = SOLVER_TOL,
    t_max: float = SCAN_T_MAX,
) -> SolveReport:
    """Find ``t`` whose equilibrium state for ``t * phi`` has entropy ``a``.

    Reachable targets are ``(ground_entropy, h(f)]``; ``a = h(f)`` is the
    measure of maximal entropy at ``t = 0``, while values at or below the
    ground entropy are attained only in the ``t -> infinity`` limit and
    are rejected.
    """
    _check_positive("tol", tol)
    _check_positive("t_max", t_max)
    h_top = topological_entropy(sft)
    if not 0.0 <= a <= h_top + _ENDPOINT_GUARD:  # nan fails too
        raise TargetOutOfRangeError(
            f"entropy target {a} outside [0, h(f)] = [0, {h_top}]"
        )
    psi = zero_potential(sft)
    evaluate = partial(_ray_samples, sft, psi, phi)

    def exhausted(trace) -> Exception:  # pragma: no cover - endpoint hit first
        return AsymptoteUnreachableError("unreachable")

    endpoint = abs(a - h_top) <= tol
    if not endpoint:  # certify reachability
        from .ergopt import max_ergodic_average  # here, so that a sweep loads no ergopt

        maximization = max_ergodic_average(sft, phi)
        if a <= maximization.ground_entropy + _ENDPOINT_GUARD:
            raise AsymptoteUnreachableError(
                f"entropy {a} is at or below the ground entropy "
                f"{maximization.ground_entropy}: reached only as t -> infinity"
            )

        def exhausted(trace) -> Exception:
            lowest = min(s.entropy for s in trace)
            if not maximization.unique_flag:
                return NonUniqueGroundStateError(
                    f"scan reached t = {t_max} with entropy {lowest} still above "
                    f"{a} and the ground state is not unique"
                )
            return AsymptoteUnreachableError(
                f"scan reached t = {t_max} with entropy {lowest} still above {a}"
            )

    look_ahead = 1 if endpoint else _look_ahead(sft, psi, phi)  # the start alone at t = 0
    return _solve_monotone(evaluate, look_ahead, lambda s: s.entropy, a, tol, t_max, exhausted)


def solve_intermediate_pressure(
    sft: Sft,
    psi: Potential,
    phi: Potential,
    target: float,
    tol: float = SOLVER_TOL,
    t_max: float = SCAN_T_MAX,
) -> SolveReport:
    """Find ``t`` with ``P_{mu_t}(psi) = target`` for the equilibrium state
    ``mu_t`` of ``psi + t * phi``.

    Reachable targets lie in ``(alpha, P(psi)]`` where ``alpha`` bounds
    the ``psi``-pressure of every ``phi``-maximizing measure; the solver
    returns ``t = 0`` at ``target = P(psi)`` and rejects targets at or
    beyond the asymptote.
    """
    _check_positive("tol", tol)
    _check_positive("t_max", t_max)
    from .ergopt import ground_state_pressure_bound  # here, so that a sweep loads no ergopt

    alpha = ground_state_pressure_bound(sft, psi, phi)
    top = pressure(sft, psi).value
    if not target <= top + _ENDPOINT_GUARD:  # nan fails too
        raise TargetOutOfRangeError(f"target {target} exceeds P(psi) = {top}")
    if target < alpha - _ENDPOINT_GUARD:
        raise TargetOutOfRangeError(
            f"target {target} lies below the ground-state bound alpha = {alpha}"
        )

    evaluate = partial(_ray_samples, sft, psi, phi)
    endpoint = abs(target - top) <= tol
    look_ahead = 1 if endpoint else _look_ahead(sft, psi, phi)  # the start alone at t = 0

    if target <= alpha + _ENDPOINT_GUARD and not endpoint:
        # The bound value itself is attained only in the limit; scan to
        # document the approach before refusing.
        trace = list(_stacked(evaluate, _scan_grid(t_max), look_ahead))
        last = (
            f"psi-pressure {trace[-1].psi_pressure} at t = {trace[-1].t}"
            if trace
            else f"no scan step fits under t_max = {t_max}"
        )
        error = AsymptoteUnreachableError(
            f"target {target} equals the ground-state bound alpha = {alpha}, "
            f"approached only as t -> infinity ({last})"
        )
        error.trace = tuple(trace)
        raise error

    def exhausted(trace) -> Exception:
        lowest = min(s.psi_pressure for s in trace)
        return AsymptoteUnreachableError(
            f"scan reached t = {t_max} with psi-pressure {lowest} still above "
            f"{target}; the target is approached only as t -> infinity"
        )

    return _solve_monotone(
        evaluate, look_ahead, lambda s: s.psi_pressure, target, tol, t_max, exhausted
    )


@dataclass(frozen=True)
class ContinuityReport:
    """Distances between perturbed and limiting equilibrium states."""

    n_values: tuple[int, ...]
    kernel_distances: tuple[float, ...]
    stationary_distances: tuple[float, ...]
    identity_gaps: tuple[float, ...]


def equilibrium_continuity_check(
    sft: Sft,
    phi: Potential,
    eta: Potential,
    n_max: int,
    final_tol: float | None = None,
) -> ContinuityReport:
    """Compare equilibrium states of ``phi + eta/n`` against that of ``phi``.

    Distances must shrink monotonically as ``n`` grows through powers of
    ten up to ``n_max`` (first-order perturbation theory gives a
    ``1/n`` rate), and every perturbed measure must satisfy its own
    variational identity to 1e-9, the bound of
    `variational_identity_check`.  When ``final_tol`` is given, the
    distances at ``n_max`` must also land below it.
    """
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    ns = []
    n = 10
    while n < n_max:
        ns.append(n)
        n *= 10
    ns.append(n_max)

    base = combine(phi, eta, 0.0)  # phi at the common memory
    _, mu_limit = pressure_and_equilibrium(sft, base)

    kernel_distances = []
    stationary_distances = []
    identity_gaps = []
    for n in ns:
        perturbed = combine(phi, eta, 1.0 / n)
        result, mu = pressure_and_equilibrium(sft, perturbed)
        gap = _identity_gap(perturbed, result, mu)
        if gap > _IDENTITY_TOL:
            raise CheckFailedError(
                f"perturbed equilibrium at n={n} misses its variational "
                f"identity by {gap}"
            )
        kernel_distances.append(float(abs(mu.kernel - mu_limit.kernel).max()))
        stationary_distances.append(
            float(abs(mu.stationary - mu_limit.stationary).max())
        )
        identity_gaps.append(gap)

    for name, seq in (("kernel", kernel_distances), ("stationary", stationary_distances)):
        for a, b in zip(seq, seq[1:]):
            if b > a + 1e-12:
                raise MonotonicityError(
                    f"{name} distance increased from {a} to {b} along n = {ns}"
                )
        if final_tol is not None and seq[-1] > final_tol:
            raise CheckFailedError(
                f"{name} distance {seq[-1]} at n = {n_max} exceeds {final_tol}"
            )
    return ContinuityReport(
        tuple(ns),
        tuple(kernel_distances),
        tuple(stationary_distances),
        tuple(identity_gaps),
    )
