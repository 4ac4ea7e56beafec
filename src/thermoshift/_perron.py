"""Log-domain Perron eigenvalue solver.

Power iteration carried out entirely with log-sum-exp reductions, so
weighted matrices ``exp(L)`` never materialize and arbitrarily large
negative log-weights cannot overflow.  Convergence is certified by the
Collatz-Wielandt enclosure on the original matrix: for any positive
vector ``x``, ``min_i log (Ax)_i/x_i <= log lambda <= max_i log
(Ax)_i/x_i``.

Plain iteration converges at the spectral-gap rate and is tried first.
Two escalations handle hard supports without touching the certificate:

- when the enclosure stalls, or contracts too slowly to reach the
  tolerance within the plain budget, updates switch to the lazy matrix
  ``A + I`` (same eigenvectors, eigenvalue shifted by one), which mixes
  the phases of nearly periodic supports; a bare cycle, the
  low-temperature limit of a pinned potential, makes plain iterates
  rotate forever;
- if that also stalls (two cycle families with nearly tied means), the
  lazy matrix is repeatedly squared in the log domain, so the gap
  ratio squares with every step.

Every reduction goes through ``logsumexp`` below, a numpy transcription
of the algorithm in ``scipy.special.logsumexp``.
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


def _lse_matmul(a, b):
    """Log-domain matrix product: ``C_ij = LSE_k (a_ik + b_kj)``."""
    return logsumexp(a[:, :, None] + b[None, :, :], axis=1)


def _lazy(logw):
    """Log-weights of ``exp(logw) + I``."""
    out = logw.copy()
    diag = np.arange(logw.shape[0])
    out[diag, diag] = np.logaddexp(logw[diag, diag], 0.0)
    return out


def power_log_perron(logw, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS):
    """Dominant log-eigenvalue and log right eigenvector of ``exp(logw)``.

    Parameters
    ----------
    logw : (n, n) ndarray
        Log-weights, ``-inf`` on missing edges.  The support must be
        irreducible and every row must contain at least one finite entry.

    Returns
    -------
    value, log_vector, residual, iterations
        ``value`` encloses the log Perron eigenvalue to ``residual``;
        ``log_vector`` is normalized to ``max = 0``.

    Raises
    ------
    ConvergenceError
        If the enclosure width cannot be brought to ``tol`` (or at least
        to the floating-point noise floor) within the budgets.
    """
    n = logw.shape[0]
    u = np.zeros(n)
    iterations = 0
    half_tol = tol / 2.0
    value = residual = np.inf

    # plain phase: the certifying product is also the update
    plain_budget = min(_PLAIN_BUDGET, max_iter)
    history = deque(maxlen=_PLAIN_STALL + 1)
    for _ in range(plain_budget):
        iterations += 1
        z = logsumexp(logw + u[None, :], axis=1)
        d = z - u
        hi, lo = float(d.max()), float(d.min())
        value, residual = (hi + lo) / 2.0, (hi - lo) / 2.0
        if residual <= half_tol:
            return value, u, residual, iterations
        history.append(residual)
        if len(history) > _PLAIN_STALL:
            # Escalate as soon as the residual has not shrunk over the
            # last _PLAIN_STALL steps, or its contraction over them,
            # carried over the rest of the budget, cannot reach tol.
            ratio = residual / history[0]
            steps_left = plain_budget - iterations
            if ratio >= 1.0 or residual * ratio ** (steps_left / _PLAIN_STALL) > half_tol:
                break
        u = z - z.max()

    def certify(vec):
        z = logsumexp(logw + vec[None, :], axis=1)
        d = z - vec
        hi, lo = float(d.max()), float(d.min())
        return (hi + lo) / 2.0, (hi - lo) / 2.0

    # lazy phase: update with A + I, certify on A
    lazy = _lazy(logw)
    best = residual
    since_best = 0
    for _ in range(_LAZY_BUDGET):
        if iterations >= max_iter:
            break
        iterations += 1
        step = logsumexp(lazy + u[None, :], axis=1)
        u = step - step.max()
        value, residual = certify(u)
        if residual <= half_tol:
            return value, u, residual, iterations
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
        squared = _lse_matmul(squared, squared)
        squared -= squared.max()
        boost = logsumexp(squared + u[None, :], axis=1)
        u = boost - boost.max()
        value, residual = certify(u)
        if residual <= half_tol:
            return value, u, residual, iterations

    if residual <= _NOISE_FLOOR_ACCEPT:
        return value, u, residual, iterations
    raise ConvergenceError(
        f"Perron enclosure stalled at half-width {residual:g} "
        f"(tolerance {tol:g}, {iterations} iterations)"
    )


def log_perron_value(logw, tol=DEFAULT_TOL) -> float:
    """Log Perron eigenvalue of ``exp(logw)``, with internal shift for
    numerical headroom."""
    finite = logw[np.isfinite(logw)]
    shift = float(finite.max())
    value, _, _, _ = power_log_perron(logw - shift, tol=tol)
    return value + shift
