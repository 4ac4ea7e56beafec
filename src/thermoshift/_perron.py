"""Certified Perron eigenvalue solver.

Power iteration ``x <- E x`` on ``E = exp(logw)``, formed once per solve.
Callers condition ``logw`` by a max-plus diagonal scaling first, so every
row peaks near 0 and the iterates stay in the normal float range; an
iterate that leaves it raises ``ConvergenceError``.  The Collatz-Wielandt
enclosure ``min_i (Ex)_i/x_i <= lambda <= max_i (Ex)_i/x_i``, taken in
logs, certifies the result.

Plain iteration is tried first, on a whole stack of matrices at once
(`perron_stack`).  When its enclosure stalls, or contracts too slowly to
reach the tolerance within its budget, updates switch to the lazy matrix
``E + I`` (same eigenvectors), which mixes the phases of nearly periodic
supports such as a bare ground cycle.  If that stalls too (two cycle
families with nearly tied means), the lazy matrix is squared repeatedly,
so the gap ratio squares with every step.  Both later phases run on one
matrix at a time.

``logsumexp``, a numpy transcription of ``scipy.special.logsumexp``,
serves the measure assembly.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

DEFAULT_TOL = 1e-13
MAX_ITERATIONS = 10**6
_PLAIN_BUDGET = 2000
_PLAIN_STALL = 40
_LAZY_BUDGET = 2000
_LAZY_STALL = 80
_MAX_SQUARINGS = 60
_NOISE_FLOOR_ACCEPT = 1e-12
_SMALLEST_NORMAL = np.finfo(float).tiny


def logsumexp(a, axis=None):
    """``log(sum(exp(a)))`` over ``axis`` (every axis when ``None``).

    The maximal terms are split off before the sum (Blanchard, Higham and
    Higham 2021): with ``m`` of them at ``a_max``, the result is
    ``log1p(sum(exp(a - a_max)) over the rest / m) + log(m) + a_max``.
    These are the operations of ``scipy.special.logsumexp``, in the same
    order, so the results agree bit for bit.  A slice whose entries are
    all ``-inf`` reduces to ``-inf``: it is shifted by 0 instead of its
    maximum.
    """
    a = np.asarray(a, dtype=float)
    axis = tuple(range(a.ndim)) if axis is None else axis
    a_max = a.max(axis=axis, keepdims=True)
    top = a == a_max
    m = top.sum(axis=axis, keepdims=True, dtype=float)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    rest = np.exp(np.where(top, -np.inf, a) - shift).sum(axis=axis, keepdims=True)
    out = np.log1p(rest / m) + np.log(m) + a_max
    return np.squeeze(out, axis=axis)[()]


def _normalized(y, iterations):
    """``y`` scaled to ``max = 1``; refuses an entry below the normal range."""
    x = y / y.max()
    smallest = x.min()
    if not smallest >= _SMALLEST_NORMAL:  # also catches nan
        raise _left_normal_range(smallest, iterations)
    return x


def _left_normal_range(smallest, iterations) -> ConvergenceError:
    return ConvergenceError(
        f"Perron iterate left the normal float range (smallest entry "
        f"{smallest:g} of a max-1 vector after {iterations} iterations)"
    )


def _certify(e, x):
    """Collatz-Wielandt midpoint and half-width of ``e @ x`` against
    ``x``, and the product."""
    y = e @ x
    d = np.log(y / x)
    hi, lo = d.max(), d.min()
    return (hi + lo) / 2.0, (hi - lo) / 2.0, y


def power_log_perron(logw, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS):
    """Dominant log-eigenvalue and log right eigenvector of ``exp(logw)``.

    ``logw`` holds log-weights, ``-inf`` on missing edges; the support
    must be irreducible and every row must peak near 0.  Returns
    ``(value, log_vector, residual, iterations)``: ``value`` encloses the
    log Perron eigenvalue to ``residual``, and ``log_vector`` has
    ``max = 0``.  Raises ``ConvergenceError`` if the enclosure cannot be
    brought to ``tol`` (or at least to the floating-point noise floor)
    within the budgets, or if an iterate leaves the normal float range.
    """
    values, vectors, residuals, iterations, failures = perron_stack(
        np.asarray(logw, dtype=float)[None], tol, max_iter
    )
    if failures:
        raise failures[0]
    return float(values[0]), vectors[0], float(residuals[0]), int(iterations[0])


def perron_stack(logw, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS):
    """`power_log_perron` on each slice of a stack ``logw`` of shape
    ``(S, n, n)``, each slice bit for bit as if solved alone.

    The plain phase runs on the whole stack, one stacked product per
    step, and a slice leaves it once it certifies.  A slice that
    escalates finishes alone in the lazy phase and the squaring ladder,
    from its own iterate and iteration count.  Returns ``(values,
    log_vectors, residuals, iterations)`` as arrays over the slices, and
    a dict from each failed slice to its ``ConvergenceError``; the arrays
    are undefined at a failed slice.
    """
    e = np.exp(logw)
    size, n = e.shape[:2]
    values = np.empty(size)
    residuals = np.empty(size)
    vectors = np.empty((size, n))
    iterations = np.empty(size, dtype=int)
    failures = {}
    half_tol = tol / 2.0

    # plain phase: the certifying product is also the update
    plain_budget = min(_PLAIN_BUDGET, max_iter)
    ring = _PLAIN_STALL + 1
    history = np.empty((ring, size))  # the residuals of the last `ring` steps
    # The stack holds the slices `live` with their matrices and iterates.
    # A slice with a verdict stops `waiting` but stays in the stack, its
    # steps unused, until a quarter of the stack is left to wait.
    live, stack, x = np.arange(size), e, np.ones((size, n))
    waiting, count = np.ones(size, dtype=bool), size
    escalated = []  # (slice, iterate, iterations, value, residual)
    steps = 0
    while count and steps < plain_budget:
        steps += 1
        y = np.matmul(stack, x[:, :, None])[:, :, 0]
        d = np.log(y / x)
        hi, lo = np.maximum.reduce(d, axis=1), np.minimum.reduce(d, axis=1)
        residual = (hi - lo) / 2.0
        history[steps % ring] = residual
        leave = residual <= half_tol
        if count < live.size:
            leave &= waiting
        leaving = np.count_nonzero(leave)
        if leaving:
            done = live[leave]
            values[done], residuals[done] = (hi[leave] + lo[leave]) / 2.0, residual[leave]
            vectors[done], iterations[done] = np.log(x[leave]), steps
        if steps > _PLAIN_STALL and leaving < count:
            # Escalate as soon as the residual has not shrunk over the
            # last _PLAIN_STALL steps, or its contraction over them,
            # carried over the rest of the budget, cannot reach tol.
            exponent = (plain_budget - steps) / _PLAIN_STALL
            oldest = history[(steps + 1) % ring].tolist()
            open_ = (waiting & ~leave).tolist()
            for j, r in enumerate(residual.tolist()):
                if open_[j]:
                    ratio = r / oldest[j]
                    if ratio >= 1.0 or r * ratio ** exponent > half_tol:
                        escalated.append((int(live[j]), x[j], steps, (hi[j] + lo[j]) / 2.0, r))
                        leave[j] = True
                        leaving += 1
        if leaving:
            count -= leaving
            if not count:
                break
            waiting &= ~leave
            if 4 * count <= live.size:
                live, stack, y, hi, lo, residual, history, waiting = _compact(
                    waiting, live, stack, y, hi, lo, residual, history)
        x = y / np.maximum.reduce(y, axis=1, keepdims=True)
        if not np.minimum.reduce(x, axis=None) >= _SMALLEST_NORMAL:  # also catches nan
            smallest = np.minimum.reduce(x, axis=1)
            normal = smallest >= _SMALLEST_NORMAL
            for j in np.flatnonzero(waiting & ~normal).tolist():
                failures[int(live[j])] = _left_normal_range(smallest[j], steps)
            live, stack, x, hi, lo, residual, history, waiting = _compact(
                waiting & normal, live, stack, x, hi, lo, residual, history)
            count = live.size
    # a plain budget spent without a verdict escalates from the last update
    if count:
        for j in np.flatnonzero(waiting).tolist():
            escalated.append((int(live[j]), x[j], steps, (hi[j] + lo[j]) / 2.0, float(residual[j])))

    for s, *plain_end in escalated:
        try:
            values[s], vectors[s], residuals[s], iterations[s] = _escalate(
                e[s], *plain_end, tol, max_iter
            )
        except ConvergenceError as exc:
            failures[s] = exc
    return values, vectors, residuals, iterations, failures


def _compact(keep, *arrays):
    """The rows ``keep`` of each array (the columns of the last, the
    residual history), and an all-True waiting mask for them."""
    *rows, history = arrays
    return (*(a[keep] for a in rows), history[:, keep], np.ones(np.count_nonzero(keep), dtype=bool))


def _escalate(e, x, iterations, value, residual, tol, max_iter):
    """The lazy phase and the squaring ladder of one matrix ``e``, from the
    plain phase's last iterate ``x``, count, value and residual."""
    half_tol = tol / 2.0

    # lazy phase: update with E + I, certify on E
    lazy = e + np.eye(len(e))
    best = residual
    since_best = 0
    for _ in range(_LAZY_BUDGET):
        if iterations >= max_iter:
            break
        iterations += 1
        x = _normalized(lazy @ x, iterations)
        value, residual, _ = _certify(e, x)
        if residual <= half_tol:
            return value, np.log(x), residual, iterations
        if residual < best:
            best, since_best = residual, 0
        else:
            since_best += 1
            if since_best >= _LAZY_STALL:
                break

    # squaring ladder on the lazy matrix
    squared = lazy
    for _ in range(_MAX_SQUARINGS):
        if iterations >= max_iter:
            break
        iterations += 1
        squared = squared @ squared
        squared /= squared.max()
        x = _normalized(squared @ x, iterations)
        value, residual, _ = _certify(e, x)
        if residual <= half_tol:
            return value, np.log(x), residual, iterations

    if residual <= _NOISE_FLOOR_ACCEPT:
        return value, np.log(x), residual, iterations
    raise ConvergenceError(
        f"Perron enclosure stalled at half-width {residual:g} "
        f"(tolerance {tol:g}, {iterations} iterations)"
    )
