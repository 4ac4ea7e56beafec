"""Certified Perron eigenvalue solver.

Power iteration ``x <- E x`` on ``E = exp(logw)``, formed once per solve.
Callers condition ``logw`` by a max-plus diagonal scaling first, so every
row peaks near 0 and the iterates stay in the normal float range; an
iterate that leaves it raises ``ConvergenceError``.  The Collatz-Wielandt
enclosure ``min_i (Ex)_i/x_i <= lambda <= max_i (Ex)_i/x_i``, taken in
logs, certifies the result.

Plain iteration is tried first.  When its enclosure stalls, or contracts
too slowly to reach the tolerance within its budget, updates switch to
the lazy matrix ``E + I`` (same eigenvectors), which mixes the phases of
nearly periodic supports such as a bare ground cycle.  If that stalls
too (two cycle families with nearly tied means), the lazy matrix is
squared repeatedly, so the gap ratio squares with every step.

``logsumexp``, a numpy transcription of ``scipy.special.logsumexp``,
serves the measure assembly.
"""

from __future__ import annotations

from collections import deque

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
        raise ConvergenceError(
            f"Perron iterate left the normal float range (smallest entry "
            f"{smallest:g} of a max-1 vector after {iterations} iterations)"
        )
    return x


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
    e = np.exp(logw)
    x = np.ones(e.shape[0])
    iterations = 0
    half_tol = tol / 2.0
    value = residual = np.inf

    def certify(vec):
        y = e @ vec
        d = np.log(y / vec)
        hi, lo = float(d.max()), float(d.min())
        return (hi + lo) / 2.0, (hi - lo) / 2.0, y

    # plain phase: the certifying product is also the update
    plain_budget = min(_PLAIN_BUDGET, max_iter)
    history = deque(maxlen=_PLAIN_STALL + 1)
    for _ in range(plain_budget):
        iterations += 1
        value, residual, y = certify(x)
        if residual <= half_tol:
            return value, np.log(x), residual, iterations
        history.append(residual)
        if len(history) > _PLAIN_STALL:
            # Escalate as soon as the residual has not shrunk over the
            # last _PLAIN_STALL steps, or its contraction over them,
            # carried over the rest of the budget, cannot reach tol.
            ratio = residual / history[0]
            steps_left = plain_budget - iterations
            if ratio >= 1.0 or residual * ratio ** (steps_left / _PLAIN_STALL) > half_tol:
                break
        x = _normalized(y, iterations)

    # lazy phase: update with E + I, certify on E
    lazy = e + np.eye(len(e))
    best = residual
    since_best = 0
    for _ in range(_LAZY_BUDGET):
        if iterations >= max_iter:
            break
        iterations += 1
        x = _normalized(lazy @ x, iterations)
        value, residual, _ = certify(x)
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
        value, residual, _ = certify(x)
        if residual <= half_tol:
            return value, np.log(x), residual, iterations

    if residual <= _NOISE_FLOOR_ACCEPT:
        return value, np.log(x), residual, iterations
    raise ConvergenceError(
        f"Perron enclosure stalled at half-width {residual:g} "
        f"(tolerance {tol:g}, {iterations} iterations)"
    )

