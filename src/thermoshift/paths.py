"""Sweeps and intermediate-value solvers along potential rays.

Along the ray ``t -> psi + t * phi`` the pressure ``p(t)`` is convex with
``p'(t)`` equal to the equilibrium average of ``phi`` and ``p''(t)`` equal
to the asymptotic variance of ``phi`` in the equilibrium state, so both
the entropy and the ``psi``-pressure of the equilibrium state,
``p(t) - t p'(t)``, are non-increasing for ``t >= 0`` with derivative
``-t p''(t)``.  Targets between the asymptotic ground value and the value
at ``t = 0`` are therefore found by a geometric bracketing scan followed
by Newton steps safeguarded by bisection inside the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .ergopt import ground_state_pressure_bound, max_ergodic_average
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
    _asymptotic_variance,
    integrate,
    pressure,
    pressure_and_equilibrium,
)

SOLVER_TOL = 1e-8
SCAN_STEP = 0.125
SCAN_T_MAX = SCAN_STEP * 2**20
_ENDPOINT_GUARD = 1e-12


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


@dataclass(frozen=True)
class SolveReport:
    """Result of an intermediate-value solve along a ray.

    ``bracket`` is the interval found by the geometric scan, ``iterations``
    the number of probes made after it was found, and ``trace`` every
    probe in the order made.
    """

    target: float
    t_found: float
    achieved: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    trace: tuple[PathSample, ...] = field(repr=False)


def sample_at(sft: Sft, psi: Potential, phi: Potential, t: float) -> PathSample:
    """Evaluate one path sample at parameter ``t``."""
    result, mu = pressure_and_equilibrium(sft, combine(psi, phi, t))
    entropy = mu.entropy
    return PathSample(
        t=float(t),
        pressure=result.value,
        entropy=entropy,
        phi_avg=integrate(mu, phi),
        psi_pressure=entropy + integrate(mu, psi),
        phi_var=_asymptotic_variance(mu, phi),
    )


def sweep(sft: Sft, psi: Potential, phi: Potential, t_grid) -> list[PathSample]:
    """Path samples on an increasing grid of parameters ``t >= 0``."""
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValidationError("t_grid must be nonempty")
    if any(t < 0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("t_grid must be nonnegative and strictly increasing")
    return [sample_at(sft, psi, phi, t) for t in ts]


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


def _check_tol(tol: float):
    if not 0.0 < tol < math.inf:  # nan fails too
        raise ValidationError(f"tol must be a finite positive number, got {tol}")


def _solve_monotone(
    evaluate: Callable[[float], PathSample],
    value_of: Callable[[PathSample], float],
    target: float,
    tol: float,
    t_max: float,
    exhausted: Callable[[list[PathSample]], Exception],
) -> SolveReport:
    """Bracket a non-increasing objective on a geometric grid, then close
    the bracket by safeguarded Newton steps.

    Both objectives have derivative ``-t p''(t)``.  From the probe
    closest to the target (an end of the bracket, as the objective is
    monotone) the Newton step is taken when it lands strictly inside the
    bracket, else the midpoint (``rtsafe``, Numerical Recipes section
    9.4).  A Newton step shorter than the width tolerance is pushed half
    that tolerance past the root, so the next probe lands on the other
    side of it and closes the bracket.

    The returned parameter carries both guarantees: objective within
    ``tol`` of the target and a bracket collapsed to near round-off, so
    the parameter itself is close to the true crossing.
    """
    trace: list[PathSample] = []

    def probe(t: float) -> PathSample:
        s = evaluate(t)
        trace.append(s)
        return s

    start = probe(0.0)
    if abs(value_of(start) - target) <= tol:
        return SolveReport(target, 0.0, value_of(start),
                           abs(value_of(start) - target), (0.0, 0.0), 0, tuple(trace))
    if value_of(start) < target:
        raise TargetOutOfRangeError(
            f"target {target} exceeds the value {value_of(start)} at t = 0"
        )

    low_t, t = 0.0, SCAN_STEP
    bracket = None
    while t <= t_max:
        s = probe(t)
        if value_of(s) <= target:
            bracket = (low_t, t)
            break
        low_t = t
        t *= 2.0
    if bracket is None:
        raise exhausted(trace)

    lo, hi = bracket
    best = min(trace, key=lambda s: abs(value_of(s) - target))
    iterations = 0
    while hi - lo > (width := 1e-10 * max(1.0, hi)):
        t = 0.5 * (lo + hi)
        curvature = best.t * best.phi_var  # minus the objective's slope
        if curvature > 0.0:
            step = (value_of(best) - target) / curvature
            if abs(step) < width:
                step += math.copysign(0.5 * width, step)
            if lo < best.t + step < hi:
                t = best.t + step
        s = probe(t)
        iterations += 1
        if abs(value_of(s) - target) < abs(value_of(best) - target):
            best = s
        if value_of(s) >= target:
            lo = t
        else:
            hi = t
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
    _check_tol(tol)
    h_top = topological_entropy(sft)
    if not 0.0 <= a <= h_top + _ENDPOINT_GUARD:  # nan fails too
        raise TargetOutOfRangeError(
            f"entropy target {a} outside [0, h(f)] = [0, {h_top}]"
        )
    psi = zero_potential(sft)

    def evaluate(t: float) -> PathSample:
        return sample_at(sft, psi, phi, t)

    def exhausted(trace) -> Exception:  # pragma: no cover - endpoint hit first
        return AsymptoteUnreachableError("unreachable")

    if abs(a - h_top) > tol:  # not the t = 0 endpoint: certify reachability
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

    return _solve_monotone(evaluate, lambda s: s.entropy, a, tol, t_max, exhausted)


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
    _check_tol(tol)
    alpha = ground_state_pressure_bound(sft, psi, phi)
    top = pressure(sft, psi).value
    if not target <= top + _ENDPOINT_GUARD:  # nan fails too
        raise TargetOutOfRangeError(f"target {target} exceeds P(psi) = {top}")
    if target < alpha - _ENDPOINT_GUARD:
        raise TargetOutOfRangeError(
            f"target {target} lies below the ground-state bound alpha = {alpha}"
        )

    def evaluate(t: float) -> PathSample:
        return sample_at(sft, psi, phi, t)

    if target <= alpha + _ENDPOINT_GUARD and abs(target - top) > tol:
        # The bound value itself is attained only in the limit; scan to
        # document the approach before refusing.
        trace = []
        t = SCAN_STEP
        while t <= t_max:
            trace.append(evaluate(t))
            t *= 2.0
        error = AsymptoteUnreachableError(
            f"target {target} equals the ground-state bound alpha = {alpha}, "
            f"approached only as t -> infinity (psi-pressure "
            f"{trace[-1].psi_pressure} at t = {trace[-1].t})"
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
        evaluate, lambda s: s.psi_pressure, target, tol, t_max, exhausted
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
    identity_tol: float = 1e-9,
    final_tol: float | None = None,
) -> ContinuityReport:
    """Compare equilibrium states of ``phi + eta/n`` against that of ``phi``.

    Distances must shrink monotonically as ``n`` grows through powers of
    ten up to ``n_max`` (first-order perturbation theory gives a
    ``1/n`` rate), and every perturbed measure must satisfy its own
    variational identity to ``identity_tol``.  When ``final_tol`` is
    given, the distances at ``n_max`` must also land below it.
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
        gap = abs(result.value - (mu.entropy + integrate(mu, perturbed)))
        if gap > identity_tol:
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
