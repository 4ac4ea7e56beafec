"""Certified Perron eigensolve of edge-weighted graphs.

`solve_stack` is the one entry: rows of edge weights on one graph, such
as ``psi + t * phi`` for a grid of ``t``, the zero weights of a
subshift's transitions, or a critical component's weights.  Each row is
conjugated by a float max-plus eigenvector of its log-weights first
(tropical diagonal scaling, `_maxplus_frame`), so every row of the
matrix peaks near 0 and the iterates stay in the normal float range at
any temperature; an iterate that leaves it raises ``ConvergenceError``.
A stack of all-zero weights has the zero frame, so it runs no Karp
levels and no Bellman pass.
Both Perron sides of every row then go through one `perron_stack`; a
caller that reads only the values asks for the right sides alone.

Power iteration ``x <- E x`` runs on the linear-domain table ``E``,
formed once per solve: ``exp`` of the conjugated log-weights is taken on
the edge arrays alone and scattered into a zero-filled dense table, so
no transcendental runs over its padding.  The Collatz-Wielandt enclosure
``min_i (Ex)_i/x_i <= lambda <= max_i (Ex)_i/x_i``, taken in logs,
certifies the result to the fixed tolerance ``TOL``.  A conjugation
keeps the spectrum and the enclosure is certified on the conjugated
matrix, so frame rounding cannot weaken it.

Plain iteration is tried first, on the whole stack of matrices at once.
When its enclosure stalls, or contracts too slowly to reach the
tolerance within its budget, updates switch to the lazy matrix ``E + I``
(same eigenvectors), which mixes the phases of nearly periodic supports
such as a bare ground cycle.  If that stalls too (two cycle families
with nearly tied means), the lazy matrix is squared repeatedly, so the
gap ratio squares with every step.  Both later phases run on one matrix
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

TOL = 1e-13
_PLAIN_BUDGET = 2000
_PLAIN_STALL = 40
_LAZY_BUDGET = 2000
_LAZY_STALL = 80
_MAX_SQUARINGS = 60
_NOISE_FLOOR_ACCEPT = 1e-12
_SMALLEST_NORMAL = np.finfo(float).tiny


@dataclass(frozen=True)
class EigenSolve:
    """Eigensolves of a stack of edge-weight rows on one graph; row arrays
    carry the rows on their first axis.  Row ``s`` is solved by slices
    ``2s`` (right side) and ``2s + 1`` (left side) of the Perron stack,
    whose residuals and iteration counts are kept; a right-only solve
    solves row ``s`` by slice ``s`` and has no ``frame_left``."""

    value: np.ndarray
    maxplus_right: np.ndarray
    # conjugated log-weights on the edges, shape (T, E)
    frame_w: np.ndarray
    frame_right: np.ndarray
    # log pi = frame_left + frame_right (up to norm)
    frame_left: np.ndarray | None
    residuals: np.ndarray
    iterations: np.ndarray


def solve_stack(n: int, src, dst, w: np.ndarray, *, left: bool = True) -> EigenSolve:
    """Log Perron values and vectors of the rows of edge weights ``w``
    (shape ``(T, E)``) on the strongly connected graph ``src -> dst`` over
    ``n`` vertices.  Raises the ``ConvergenceError`` of the first row that
    fails, its right side's before its left side's.

    With ``left=False`` neither the left Bellman pass nor the left Perron
    slices run, for callers that read only ``value``: every field but
    ``frame_left`` equals that of the right side of the two-sided solve
    bit for bit, and only right sides can fail."""
    size = len(w)
    sides = 2 if left else 1
    # Conjugating the transposed frame again, by its left eigenvector,
    # keeps pi frame-sized.
    beta, right, frame_w, left_frame = _maxplus_frame(n, src, dst, w, left)
    frames = np.zeros((sides * size, n, n))
    frames[0::sides, src, dst] = np.exp(frame_w)
    if left:
        frames[1::2, dst, src] = np.exp(frame_w + left_frame[:, src] - left_frame[:, dst])
    values, vectors, residuals, iterations = perron_stack(frames)
    return EigenSolve(
        value=values[0::sides] + beta,
        maxplus_right=right,
        frame_w=frame_w,
        frame_right=vectors[0::sides],
        frame_left=vectors[1::2] + left_frame if left else None,
        residuals=residuals,
        iterations=iterations,
    )


def _longest_walks(n, tail_at, head_at, weights, target_at):
    """Best weight of a walk from each vertex to its row's target over
    the edges ``tail -> head``, for each row of a stack laid out flat
    (row ``s`` holds entries ``s*n .. s*n + n - 1``; ``tail_at``,
    ``head_at`` and ``target_at`` index that layout, ``weights`` is the
    flat stack of edge weights), by float Bellman passes up to the first
    that changes nothing; a row at its fixed point recomputes to the same
    values, and pinning the target at 0 keeps rounding from creeping."""
    dist = np.full(len(target_at) * n, -np.inf)
    dist[target_at] = 0.0
    for _ in range(n):
        step = dist.copy()
        np.maximum.at(step, tail_at, weights + dist[head_at])
        step[target_at] = 0.0
        if not np.count_nonzero(step != dist):
            break
        dist = step
    return dist


def _maxplus_frame(n, src, dst, w, with_left=True):
    """Float max-plus conditioning of each row of edge weights ``w`` (a
    stack of shape ``(T, E)``) on ``src -> dst``: the maximum cycle mean
    ``beta`` by Karp's recurrence (Karp 1978) over the edge arrays, in
    O(n E); a right max-plus eigenvector ``right`` of ``w - beta``; the
    conjugated weights ``frame_w``, whose rows peak at 0; and a left
    max-plus eigenvector ``left`` of ``frame_w``, or None when not
    ``with_left``.  Each comes back as an array over the rows.

    A stack whose weights are all zero, such as a subshift's transitions,
    takes the closed form: every cycle mean is 0 and so is every longest
    walk, which is what Karp's levels and both Bellman passes compute
    there (``+0.0`` even from ``-0.0`` weights).  Any nonzero weight in
    the stack sends every row down the general path."""
    size = len(w)
    if not w.any():
        left = np.zeros((size, n)) if with_left else None
        return np.zeros(size), np.zeros((size, n)), np.zeros(w.shape), left
    rows = np.arange(size)
    # Row s of the stack lives at entries s*n .. s*n + n - 1 of flat arrays.
    src_at, dst_at, flat_w = src, dst, w.ravel()
    if size > 1:
        offset = (rows * n)[:, None]
        src_at, dst_at = (offset + src).ravel(), (offset + dst).ravel()
    # level[k, s*n + v]: best weight of a k-edge walk from vertex 0 to v in row s
    level = np.full((n + 1, size * n), -np.inf)
    level[0, ::n] = 0.0
    for k in range(1, n + 1):
        np.maximum.at(level[k], dst_at, level[k - 1][src_at] + flat_w)
    walks = level.reshape(n + 1, size, n)
    reached = np.isfinite(walks[:n])
    gaps = np.where(reached, walks[n] - np.where(reached, walks[:n], 0.0), np.inf)
    means = (gaps / np.arange(n, 0, -1)[:, None, None]).min(axis=0)
    vertex = means.argmax(axis=1)
    beta = means[rows, vertex]
    # Every cycle on a best n-edge walk into that vertex is critical: walk
    # back over argmax parents to the first repeated vertex.
    seen = np.zeros((size, n), dtype=bool)
    walking = np.ones(size, dtype=bool)
    for k in range(n, 0, -1):
        seen[rows, vertex] = True
        score = (level[k - 1][src_at] + flat_w).reshape(size, -1)
        score[dst != vertex[:, None]] = -np.inf
        vertex = np.where(walking, src[score.argmax(axis=1)], vertex)
        walking &= ~seen[rows, vertex]
        if not np.count_nonzero(walking):
            break
    target_at = rows * n + vertex
    excess = flat_w - np.repeat(beta, len(src))
    right = _longest_walks(n, src_at, dst_at, excess, target_at)
    frame_w = excess + right[dst_at] - right[src_at]
    left = None
    if with_left:
        left = _longest_walks(n, dst_at, src_at, frame_w, target_at).reshape(size, n)
    return beta, right.reshape(size, n), frame_w.reshape(size, -1), left


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


def perron_stack(e):
    """Dominant log-eigenvalue and log right eigenvector of each slice of
    a stack ``e`` of shape ``(S, n, n)``, each slice bit for bit as if
    solved alone.

    ``e`` holds linear-domain weights, 0 on missing edges; the support of
    each slice must be irreducible and every row must peak near 1.
    Returns ``(values, log_vectors, residuals, iterations)`` as arrays
    over the slices: ``values`` enclose the log Perron eigenvalues to
    ``residuals``, and each log vector has ``max = 0``.

    The plain phase runs on the whole stack, one stacked product per
    step, and a slice leaves it once it certifies.  A slice that
    escalates finishes alone in the lazy phase and the squaring ladder,
    from its own iterate and iteration count.  Raises the
    ``ConvergenceError`` of the first slice whose enclosure cannot be
    brought to ``TOL`` (or at least to the floating-point noise floor)
    within the budgets, or whose iterate leaves the normal float range.
    """
    size, n = e.shape[:2]
    values = np.empty(size)
    residuals = np.empty(size)
    vectors = np.empty((size, n))
    iterations = np.empty(size, dtype=int)
    failures = {}

    # plain phase: the certifying product is also the update.  It keeps
    # the spread hi - lo, twice the residual (halving is exact), and
    # compares it with TOL.
    ring = _PLAIN_STALL + 1
    history = np.empty((ring, size))  # the spreads of the last `ring` steps
    # The stack holds the slices `live` with their matrices and iterates.
    # A slice with a verdict stops `waiting` but stays in the stack, its
    # steps unused, until a quarter of the stack is left to wait.
    live, stack, x = np.arange(size), e, np.ones((size, n))
    waiting, count = np.ones(size, dtype=bool), size
    escalated = []  # (slice, iterate, iterations, value, residual)
    steps = 0
    while count and steps < _PLAIN_BUDGET:
        steps += 1
        y = np.matmul(stack, x[:, :, None])[:, :, 0]
        d = np.log(y / x)
        hi, lo = np.maximum.reduce(d, axis=1), np.minimum.reduce(d, axis=1)
        spread = hi - lo
        history[steps % ring] = spread
        leave = spread <= TOL
        if count < live.size:
            leave &= waiting
        leaving = np.count_nonzero(leave)
        if leaving:
            done = live[leave]
            values[done], residuals[done] = (hi + lo)[leave] / 2.0, spread[leave] / 2.0
            vectors[done], iterations[done] = np.log(x[leave]), steps
        if steps > _PLAIN_STALL and leaving < count:
            # Escalate as soon as the residual has not shrunk over the
            # last _PLAIN_STALL steps, or its contraction over them,
            # carried over the rest of the budget, cannot reach tol.
            exponent = (_PLAIN_BUDGET - steps) / _PLAIN_STALL
            oldest = history[(steps + 1) % ring].tolist()
            open_ = (waiting & ~leave).tolist() if leaving else waiting.tolist()
            stalled = []
            for j, width in enumerate(spread.tolist()):
                if open_[j]:
                    ratio = width / oldest[j]
                    if ratio >= 1.0 or width * ratio ** exponent > TOL:
                        escalated.append((int(live[j]), x[j], steps, (hi[j] + lo[j]) / 2.0, width / 2.0))
                        stalled.append(j)
            if stalled:
                leave[stalled] = True
                leaving += len(stalled)
        if leaving:
            count -= leaving
            if not count:
                break
            waiting &= ~leave
            if 4 * count <= live.size:
                live, stack, y, hi, lo, spread, history, waiting = _compact(
                    waiting, live, stack, y, hi, lo, spread, history)
        x = y / np.maximum.reduce(y, axis=1, keepdims=True)
        if not np.minimum.reduce(x, axis=None) >= _SMALLEST_NORMAL:  # also catches nan
            smallest = np.minimum.reduce(x, axis=1)
            normal = smallest >= _SMALLEST_NORMAL
            for j in np.flatnonzero(waiting & ~normal).tolist():
                failures[int(live[j])] = _left_normal_range(smallest[j], steps)
            live, stack, x, hi, lo, spread, history, waiting = _compact(
                waiting & normal, live, stack, x, hi, lo, spread, history)
            count = live.size
    # a plain budget spent without a verdict escalates from the last update
    if count:
        for j in np.flatnonzero(waiting).tolist():
            escalated.append((int(live[j]), x[j], steps, (hi[j] + lo[j]) / 2.0, float(spread[j]) / 2.0))

    for s, *plain_end in escalated:
        try:
            values[s], vectors[s], residuals[s], iterations[s] = _escalate(e[s], *plain_end)
        except ConvergenceError as exc:
            failures[s] = exc
    if failures:
        raise failures[min(failures)]
    return values, vectors, residuals, iterations


def _compact(keep, *arrays):
    """The rows ``keep`` of each array (the columns of the last, the
    spread history), and an all-True waiting mask for them."""
    *rows, history = arrays
    return (*(a[keep] for a in rows), history[:, keep], np.ones(np.count_nonzero(keep), dtype=bool))


def _escalate(e, x, iterations, value, residual):
    """The lazy phase and the squaring ladder of one matrix ``e``, from the
    plain phase's last iterate ``x``, count, value and residual."""
    half_tol = TOL / 2.0

    # lazy phase: update with E + I, certify on E
    lazy = e + np.eye(len(e))
    best = residual
    since_best = 0
    for _ in range(_LAZY_BUDGET):
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
        f"(tolerance {TOL:g}, {iterations} iterations)"
    )
