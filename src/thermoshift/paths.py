"""Sweeps and intermediate-value solvers along potential rays.

Along the ray ``t -> psi + t * phi`` the pressure ``p(t)`` is convex with
``p'(t)`` equal to the equilibrium average of ``phi`` and ``p''(t)`` equal
to the asymptotic variance of ``phi`` in the equilibrium state, so both
the entropy and the ``psi``-pressure of the equilibrium state,
``p(t) - t p'(t)``, are non-increasing for ``t >= 0`` with derivative
``-t p''(t)``.  Targets between the asymptotic ground value and the value
at ``t = 0`` are therefore found by a geometric bracketing scan followed
by interpolation safeguarded by bisection inside the bracket.

A sweep solves its grid as stacks of at most ``_STACK_ENTRIES // (2 n^2)``
points on ``n`` block states (see `transfer`), and each of its samples
equals `sample_at` at that point bit for bit; `sample_at` is a sweep of
one point.  `_stacked` is the one place that forms stacks, for a sweep
and for the solvers alike.  Every multi-point solve raises what
`sample_at` raises at its first failing point: a stack that fails is
solved again by halves.

Both solvers take one path, `_solve_monotone`.  Its start at ``t = 0``
is solved with the first points of the geometric scan as one stack, and
each next stack holds the next points of the scan; those past the bracket
are dropped.  The start makes the range and endpoint checks: a target
within the tolerance of its value is solved at ``t = 0``, and one above
it is out of range.  Each sample carries the objective's value and slope,
so the first probe inside the bracket is the root of the cubic Hermite
interpolant of its two ends.
The probes that close the bracket go one call at a time, since each
depends on the ones before it, except the last: once the Newton error
predicted from the bend of the objective is under a quarter width, or
the Newton step under a width, the Newton point and the points half a
width on either side of it are solved as one stack, and the first that
lies past the root closes the bracket when the prediction holds.  So a
solve reports and raises what probing one point at a time would.

On block graphs of at most 32 states a stack costs about one point: the
scan takes four points per octave and 26 points a stack.  Above 32 states
every point is solved alone, as a stack there costs more per point
(`BENCH_43.json`), and the scan takes one point per octave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count, islice
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
from .potentials import Potential, _floats, combine, zero_potential
from .sft import Sft, topological_entropy
from .transfer import (
    _IDENTITY_TOL,
    PathSample,
    _checked_grid,
    _identity_gap,
    _ray_graph,
    _ray_samples,
    pressure_and_equilibrium,
)

# The solvers' default tolerance, and their geometric scan's first step
# and last point: the public defaults of every solve.
SOLVER_TOL = 1e-8
SCAN_STEP = 0.125
SCAN_T_MAX = SCAN_STEP * 2**20
# Round-off slack at the ends of the entropy range: a target up to it above
# h(f) is in range, and one up to it above the ground entropy unreachable.
_ENDPOINT_GUARD = 1e-12
# Points a bracketing scan solves as one stack (the first, the start and 25
# scan points, reaches t = 8): one stack costs about one point, so a solve
# takes a few calls, not one per point.
_LOOK_AHEAD = 26
# Scan points per octave: a narrower bracket to close, where one an octave
# lets probes crawl from the flat end of a steep drop.
_SCAN_SPLIT = 4
# Most block states on which the scan is stacked and split: above it a
# stack costs more than its points solved alone.
_LOOK_AHEAD_STATES = 32
# Most entries of one stacked n x n table (2 MiB of float64), which bounds
# a sweep's memory: it solves stacks of max(1, _STACK_ENTRIES // (2 n^2))
# points, as the Perron stack holds both sides of each.
_STACK_ENTRIES = 2**18


@dataclass(frozen=True)
class SolveReport:
    """Result of an intermediate-value solve along a ray.

    ``bracket`` is the interval found by the geometric scan: two
    neighbouring points of ``SCAN_STEP * 2**(k / 4)`` on block graphs of at
    most 32 states, of ``SCAN_STEP * 2**k`` above, or ``(0, SCAN_STEP)``.
    ``iterations`` is the number of probes made after it was found, and
    ``trace`` every probe the solve consumed, in order: the start at
    ``t = 0``, the scan up to the end of the bracket, then the probes that
    close it.  Points solved in a stack past the bracket, or past the
    collapse of the bracket, are not in it.
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
    return _ray_samples(sft, psi, phi, _floats("t", [t]))[0]


def sweep(sft: Sft, psi: Potential, phi: Potential, t_grid) -> list[PathSample]:
    """Path samples on an increasing grid of parameters ``t >= 0``,
    solved as stacks of at most ``_STACK_ENTRIES // (2 n^2)`` points, and
    at least one, on a block graph of ``n`` states; each equals
    `sample_at` at its point bit for bit.  A stack that fails is solved
    again by halves, so a grid raises what `sample_at` raises at its
    first failing point."""
    ts = _checked_grid("t_grid", t_grid, positive=False)
    _, (states, _, _) = _ray_graph(sft, psi, phi)
    look_ahead = max(1, _STACK_ENTRIES // (2 * len(states) ** 2))
    return list(_stacked(partial(_ray_samples, sft, psi, phi), ts, look_ahead))


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


def _stacks_pay(sft: Sft, psi: Potential, phi: Potential) -> bool:
    """Whether ``psi + t * phi`` lies on a block graph of at most
    ``_LOOK_AHEAD_STATES`` states, where a stack costs about one point."""
    _, (states, _, _) = _ray_graph(sft, psi, phi)
    return len(states) <= _LOOK_AHEAD_STATES


def _look_ahead(sft: Sft, psi: Potential, phi: Potential) -> int:
    """Points per stack of a bracketing scan along ``psi + t * phi``."""
    return _LOOK_AHEAD if _stacks_pay(sft, psi, phi) else 1


def _scan_grid(t_max: float, fine: bool) -> Iterator[float]:
    """The geometric scan ``SCAN_STEP * 2**(k / n)`` up to ``t_max``, with
    ``n = _SCAN_SPLIT`` points per octave where ``fine``, else 1."""
    n = _SCAN_SPLIT if fine else 1
    for k in count():
        t = SCAN_STEP * 2 ** (k / n)
        if t > t_max:
            return
        yield t


def _stacked(
    evaluate: _Evaluator,
    ts: Iterable[float],
    look_ahead: int,
    wanted: Callable[[float], bool] = lambda t: True,
) -> Iterator[PathSample]:
    """Samples at the points ``ts`` in order, solved in stacks of up to
    ``look_ahead`` points as the caller asks for them.  A point is skipped
    where ``wanted`` fails for it once the caller has taken the samples
    before it.  A stack that raises is solved again by halves: the first
    half as a stack, whose samples are yielded, then the wanted points of
    the rest, each half split again where it raises.  So the error that
    comes out is the one of the first failing point the caller wants, once
    the points before it are yielded, after about two solves per halving."""
    def solved(stack: list[float]) -> Iterator[PathSample]:
        try:
            samples = evaluate(stack)
        except (ConvergenceError, ValidationError):
            if len(stack) == 1:
                raise
            half = len(stack) // 2
            yield from solved(stack[:half])
            rest = [t for t in stack[half:] if wanted(t)]
            if rest:
                yield from solved(rest)
            return
        for t, s in zip(stack, samples):
            if wanted(t):
                yield s

    points = filter(wanted, ts)
    while stack := list(islice(points, look_ahead)):
        yield from solved(stack)


def _solve_monotone(
    evaluate: _Evaluator,
    look_ahead: int,
    scan: Iterable[float],
    value_of: Callable[[PathSample], float],
    target: float,
    tol: float,
    exhausted: Callable[[list[PathSample]], Exception],
) -> SolveReport:
    """Bracket a non-increasing objective on the increasing points
    ``scan``, then close the bracket by safeguarded interpolation.

    The start at ``t = 0`` is checked first: a target within ``tol`` of
    its value is solved at ``t = 0``, and one above it is out of range.
    The start and the scan are solved in stacks of up to ``look_ahead``
    points (see `_stacked`); the report holds only the points the scan
    reached, and ``exhausted(trace)`` is raised where the scan ends above
    the target.

    Both objectives have derivative ``-t p''(t)``, so each sample carries
    the objective's value and slope.  Each probe is the root of the cubic
    Hermite interpolant of the samples at the two ends of the bracket,
    else, where that root is not strictly inside the bracket, the Newton
    step from the sample closest to the target (the latest of those tied,
    so an end of the bracket), else the midpoint (``rtsafe``, Numerical
    Recipes section 9.4).  The Hermite root stays as it reads both ends:
    Newton steps from one end take more calls (`BENCH_43.json`).  A sample
    on the target has a Newton step of 0, pushed on by half the width
    tolerance ``w``, then twice as far as the last push: where rounding
    leaves the objective on the target over many widths, the probes cross
    that plateau in a few doublings, where midpoints take many more calls.

    The last call closes the bracket.  The error of the Newton point is
    about ``bend * step**2 / (2 |slope|)``, with the objective's bend taken
    between the ends of the bracket.  When it is under ``w / 4``, or the
    Newton step is shorter than ``w``, the probe is the Newton point, and
    the points ``w / 2`` beyond and short of it are solved with it.  In
    order, each is probed unless it lies outside the bracket or the
    bracket has collapsed.

    The returned parameter carries both guarantees: objective within
    ``tol`` of the target and a bracket collapsed to near round-off, so
    the parameter itself is close to the true crossing.
    """
    def slope(s: PathSample) -> float:
        return -s.t * s.phi_var

    def newton_step(s: PathSample) -> float | None:
        return (value_of(s) - target) / -slope(s) if slope(s) < 0.0 else None

    def hermite_root(a: PathSample, b: PathSample) -> float:
        # The root in [0, 1] of the cubic p(u) that has the objective less
        # the target, and its slope, at t = a.t + u * h at both ends; nan
        # where a slope is not finite, or where both ends lie on the target
        # and every u is a root.  Newton steps on p from the secant root,
        # with bisection where one leaves the bracket of the root.
        h = b.t - a.t
        pa, pb = value_of(a) - target, value_of(b) - target
        da, db = h * slope(a), h * slope(b)
        if not math.isfinite(da + db) or pa == pb:
            return math.nan
        c2, c3 = 3.0 * (pb - pa) - 2.0 * da - db, 2.0 * (pa - pb) + da + db
        above, below, u = 0.0, 1.0, pa / (pa - pb)
        for _ in range(64):
            p, dp = ((c3 * u + c2) * u + da) * u + pa, (3.0 * c3 * u + 2.0 * c2) * u + da
            above, below = (u, below) if p > 0.0 else (above, u)
            new = u - p / dp if dp < 0.0 else math.nan
            if not above < new < below:
                new = 0.5 * (above + below)
            if abs(new - u) <= 1e-16:
                break
            u = new
        return a.t + new * h

    trace: list[PathSample] = []
    samples = _stacked(evaluate, chain([0.0], scan), look_ahead)
    start = next(samples)
    trace.append(start)
    if abs(value_of(start) - target) <= tol:
        return SolveReport(target, 0.0, value_of(start),
                           abs(value_of(start) - target), (0.0, 0.0), 0, tuple(trace))
    if value_of(start) < target:
        raise TargetOutOfRangeError(
            f"target {target} exceeds the value {value_of(start)} at t = 0"
        )

    for s in samples:
        trace.append(s)
        if value_of(s) <= target:
            break
    else:
        raise exhausted(trace)

    low, high = trace[-2:]  # the samples at the ends of the bracket
    bracket = (low.t, high.t)
    best = min(reversed(trace), key=lambda s: abs(value_of(s) - target))
    iterations = 0
    push = 0.0  # the last push off the target

    def width() -> float:
        return 1e-10 * max(1.0, high.t)

    def open_at(t: float) -> bool:
        return low.t < t < high.t and high.t - low.t > width()

    while high.t - low.t > (w := width()):
        step = newton_step(best)
        closing = False  # whether the probe and the points w/2 either side of it are solved
        if step == 0.0:
            push = 2.0 * push if push else 0.5 * w
        elif step is not None:
            bend = abs((slope(high) - slope(low)) / (high.t - low.t))
            quarters = 2.0 * bend * step * step / -slope(best) / w  # Newton's error
            closing = quarters < 1.0 or abs(step) < w  # nan fails the first
        newton = math.nan if step is None else best.t + (step or push)
        t = newton if closing else hermite_root(low, high)
        if not open_at(t):
            t = newton
        if not open_at(t):
            t, closing = 0.5 * (low.t + high.t), False
        points = [t]
        if closing:
            half = math.copysign(0.5 * w, step)
            points += [t + half, t - half]
        for s in _stacked(evaluate, points, look_ahead, wanted=open_at):
            trace.append(s)
            iterations += 1
            if abs(value_of(s) - target) <= abs(value_of(best) - target):
                best = s
            if value_of(s) >= target:
                low = s
            else:
                high = s
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

    scan = _scan_grid(t_max, _stacks_pay(sft, psi, phi))
    return _solve_monotone(evaluate, _look_ahead(sft, psi, phi), scan,
                           lambda s: s.entropy, a, tol, exhausted)


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
    returns ``t = 0`` at ``target = P(psi)``, the value of its start, and
    rejects targets at or beyond the asymptote.
    """
    _check_positive("tol", tol)
    _check_positive("t_max", t_max)
    if math.isnan(target):
        raise TargetOutOfRangeError(f"target {target} is not a number")
    from .ergopt import ground_state_pressure_bound  # here, so that a sweep loads no ergopt

    alpha = ground_state_pressure_bound(sft, psi, phi)
    if target < alpha - _ENDPOINT_GUARD:
        raise TargetOutOfRangeError(
            f"target {target} lies below the ground-state bound alpha = {alpha}"
        )
    evaluate = partial(_ray_samples, sft, psi, phi)
    look_ahead = _look_ahead(sft, psi, phi)
    # A target at alpha is attained only in the limit: past the start, which
    # may still solve it at t = 0 where alpha = P(psi), it is refused.
    asymptote = target <= alpha + _ENDPOINT_GUARD

    def exhausted(trace) -> Exception:
        if asymptote:  # scan to document the approach, one point per octave
            trace = list(_stacked(evaluate, _scan_grid(t_max, False), look_ahead))
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
            return error
        lowest = min(s.psi_pressure for s in trace)
        return AsymptoteUnreachableError(
            f"scan reached t = {t_max} with psi-pressure {lowest} still above "
            f"{target}; the target is approached only as t -> infinity"
        )

    scan = () if asymptote else _scan_grid(t_max, _stacks_pay(sft, psi, phi))
    return _solve_monotone(evaluate, look_ahead, scan,
                           lambda s: s.psi_pressure, target, tol, exhausted)


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
