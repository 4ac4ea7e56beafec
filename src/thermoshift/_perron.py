"""Certified Perron eigensolve of edge-weighted graphs.

`solve_stack` is the one entry: rows of edge weights on one graph, such
as ``psi + t * phi`` for a grid of ``t``, the zero weights of a
subshift's transitions, or a critical component's weights.  Each row is
conjugated by a float max-plus eigenvector of its log-weights first
(tropical diagonal scaling, `_maxplus_frame`), so every row of the
matrix peaks near 0 and the iterates stay in the normal float range at
any temperature; an iterate that leaves it raises ``ConvergenceError``,
as where a product underflows to 0 (whose log is taken as ``-inf``
without a warning).  The frame's maximum cycle mean ``beta`` and right
eigenvector come from Howard's policy iteration on a graph of at least
``_HOWARD_STATES`` (64) states where it certifies the row's critical
class unique, and from Karp's recurrence and a Bellman pass elsewhere;
a policy step that finds one mean reached from every vertex improves
the bias alone, the first time by value-iteration sweeps.
Before any ``exp`` a row is refused with ``ValidationError`` whose
frame is not finite, as where the walk sums of weights near the float
limit overflow, or lost its precision, as where rounding at that size
leaves a conjugated weight outside the range of ``exp``.  A stack of
all-zero weights has the zero frame, so it runs no policy iteration, no
Karp levels and no Bellman pass.
Both Perron sides of every row then go through one `perron_stack`; a
caller that reads only the values asks for the right sides alone.

Power iteration ``x <- E x`` runs on the linear-domain table ``E``,
formed once per solve: ``exp`` of the conjugated log-weights is taken on
the edge arrays alone and scattered into a zero-filled dense table, so
no transcendental runs over its padding.  The Collatz-Wielandt enclosure
``min_i (Ex)_i/x_i <= lambda <= max_i (Ex)_i/x_i``, taken in logs,
certifies the result to the fixed tolerance ``TOL``; it holds for any
positive ``x``, so a slice in its first plain phase takes it only at
step 1 and every ``_BLOCK``-th step, and bare products ``x <- E x``
(no log, bound or normalization) between.  A conjugation keeps the
spectrum and the enclosure is certified on the conjugated matrix, so
frame rounding cannot weaken it.

Every slice starts with plain steps, on the whole stack of matrices at
once.  At a fixed probe step each open slice's contraction predicts the
plain steps it still needs; a slice that would need more than four Noda
steps are counted to cost, from ``n`` alone, switches to Noda's
iteration (Noda 1971), as does a slice whose contraction over a longer
window later predicts as much, or stalls.  A Noda step solves
``(sigma I - E) z = x`` at the Collatz-Wielandt upper bound
``sigma = max_i (Ex)_i/x_i``, so every iterate stays positive and the
bounds converge quadratically (Elsner 1976), or halve per step where the
two top eigenvalues nearly merge, as on two tied loops.  It runs in the
same stacked loop, one batched solve per step over the switched slices,
and the same enclosure on ``E`` certifies it.  The counted cost grows
faster than ``n`` and passes the step budget at about 500 states, so
larger graphs never switch at the probe and stay plain unless they
stall.  The 3- to 9-state N(0, 1) potentials at ``t = 8`` of
``tests/test_perron.py`` certify every slice in 11 or 12 steps, where
plain steps alone took 995 to 1,931.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

TOL = 1e-13
_BUDGET = 2000  # steps per slice, plain and Noda together
_PROBE = 8  # the step that measures each slice's contraction
_PROBE_WINDOW = 4
# Products per enclosure in the first plain phase; `_PROBE`, `_PROBE_WINDOW`,
# `_STALL` and `_BUDGET` are its multiples, so their steps take one.
_BLOCK = 4
_STALL = 40
_NOISE_FLOOR_ACCEPT = 1e-12
_NODA_FLOATS = 2 ** 20  # matrix entries that one batched Noda solve copies
_SMALLEST_NORMAL = np.finfo(float).tiny
_LOG_MAX = float(np.log(np.finfo(float).max))
_LOG_SMALLEST_NORMAL = float(np.log(_SMALLEST_NORMAL))
# From this many states `_maxplus_frame` tries Howard's policy iteration
# before Karp's levels.  On the N(0, 1) frames of the benchmark's warm
# (t = 1) and cold (t >= 500) workloads the Howard route of a frame took
# 0.97-1.21 times the Karp route's time at 25-36 states, 0.72-0.83 at
# 48-49, 0.59-0.71 at 64 and 0.37 at 144 (interleaved medians of 60
# rounds); a row that ends uncertified (tied values) pays both.  A
# crossover at 48 showed no gain end to end: the warm workload read
# ops_per_s 1.1% lower and op_tail_ms 5.5% higher than at 64 (medians of
# 10 interleaved pairs).  Below 64 every Tier-1 corpus graph keeps Karp's
# bits.
_HOWARD_STATES = 64
_HOWARD_STEPS = 64  # policy steps per row before it falls back to Karp
# Value-iteration sweeps that choose Howard's first policy, and again its
# policy at the first bias step.  A sweep costs about a tenth of a policy
# step; 10 took the least time on the warm frames of 100-144 states (3, 3
# and 2 policy steps; 8 sweeps left 3 at 144 states and 2 on the cold
# 100-state frames, where 10 leave 1).
_LOOKAHEAD = 10


@dataclass(frozen=True)
class EigenSolve:
    """Eigensolves of a stack of edge-weight rows on one graph; row arrays
    carry the rows on their first axis.  Row ``s`` is solved by slices
    ``2s`` (right side) and ``2s + 1`` (left side) of the Perron stack,
    whose residuals, iteration counts and certifying phases are kept; a
    right-only solve solves row ``s`` by slice ``s`` and has no
    ``frame_left``."""

    value: np.ndarray
    maxplus_right: np.ndarray
    # conjugated log-weights on the edges, shape (T, E)
    frame_w: np.ndarray
    frame_right: np.ndarray
    # log pi = frame_left + frame_right (up to norm)
    frame_left: np.ndarray | None
    residuals: np.ndarray
    iterations: np.ndarray
    # True where the slice certified in Noda's phase, False in the plain
    noda: np.ndarray


def solve_stack(n: int, src, dst, w: np.ndarray, *, left: bool = True) -> EigenSolve:
    """Log Perron values and vectors of the rows of edge weights ``w``
    (shape ``(T, E)``) on the strongly connected graph ``src -> dst`` over
    ``n`` vertices.  Before any Perron step, raises the ``ValidationError``
    of the first row it refuses: one whose max-plus frame is not finite,
    as where its walk sums pass the float range, or where a conjugated
    weight (right or left) passes ln of the float maximum or every edge
    out of a vertex falls below ln of the smallest normal.  Else raises
    the ``ConvergenceError`` of the first row that fails, its right
    side's before its left side's.

    With ``left=False`` neither the left Bellman pass nor the left Perron
    slices run, for callers that read only ``value``: every field but
    ``frame_left`` equals that of the right side of the two-sided solve
    bit for bit, and only right sides can fail."""
    size = len(w)
    sides = 2 if left else 1
    # Conjugating the transposed frame again, by its left eigenvector,
    # keeps pi frame-sized.
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        beta, right, frame_w, left_frame = _maxplus_frame(n, src, dst, w, left)
        refused = _refused(n, src, frame_w)
        if left:
            left_w = frame_w + left_frame[:, src] - left_frame[:, dst]
            refused = np.maximum(refused, _refused(n, dst, left_w))
    if refused.any():
        raise ValidationError(_REFUSALS[refused[refused > 0][0]])
    frames = np.zeros((sides * size, n, n))
    frames[0::sides, src, dst] = np.exp(frame_w)
    if left:
        frames[1::2, dst, src] = np.exp(left_w)
    values, vectors, residuals, iterations, noda = perron_stack(frames)
    return EigenSolve(
        value=values[0::sides] + beta,
        maxplus_right=right,
        frame_w=frame_w,
        frame_right=vectors[0::sides],
        frame_left=vectors[1::2] + left_frame if left else None,
        residuals=residuals,
        iterations=iterations,
        noda=noda,
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
    ``beta``; a right max-plus eigenvector ``right`` of ``w - beta``, 0 at
    a vertex of a critical cycle (the row's target); the conjugated
    weights ``frame_w``, whose rows peak at 0; and a left max-plus
    eigenvector ``left`` of ``frame_w``, 0 at the target, or None when
    not ``with_left``.  Each comes back as an array over the rows.

    On a graph of at least ``_HOWARD_STATES`` states each row first runs
    Howard's policy iteration (`_howard`); a row it certifies takes
    ``beta``, the target and ``right`` from there.  Every other row, and
    every row of a smaller graph, takes ``beta`` and the target from
    Karp's recurrence (`_karp`) and ``right`` from a Bellman pass.  The
    left side is a Bellman pass on every row.

    A stack whose weights are all zero, such as a subshift's transitions,
    takes the closed form: every cycle mean is 0 and so is every longest
    walk, which is what Karp's levels and both Bellman passes compute
    there (``+0.0`` even from ``-0.0`` weights).  Any nonzero weight in
    the stack sends every row down the general path."""
    size = len(w)
    if not w.any():
        left = np.zeros((size, n)) if with_left else None
        return np.zeros(size), np.zeros((size, n)), np.zeros(w.shape), left
    if n < _HOWARD_STATES:
        beta, target, right = _karp(n, src, dst, w)
    else:
        certified, beta, target, right = _howard(n, src, dst, w)
        karp = ~certified
        if karp.any():
            beta[karp], target[karp], right[karp] = _karp(n, src, dst, w[karp])
    src_at, dst_at = _flat(n, size, src), _flat(n, size, dst)
    right = right.ravel()
    frame_w = w.ravel() - np.repeat(beta, len(src)) + right[dst_at] - right[src_at]
    left = None
    if with_left:
        target_at = np.arange(size) * n + target
        left = _longest_walks(n, dst_at, src_at, frame_w, target_at).reshape(size, n)
    return beta, right.reshape(size, n), frame_w.reshape(size, -1), left


_REFUSALS = (
    None,
    "edge weights whose max-plus frame lost its precision: a conjugated weight passes "
    "ln of the float maximum, or every edge out of a vertex falls below ln of the "
    "smallest normal, as where the weights are too large for the float spacing of "
    "their walk sums",
    "edge weights whose max-plus frame is not finite: their walk sums pass the float range",
)


def _refused(n, src, conj):
    """Why each row of conjugated weights ``conj`` (on the edges out of
    ``src``) cannot be exponentiated, as an index into ``_REFUSALS``: 2
    where it is not finite, 1 where its ``exp`` would overflow or leave a
    vertex with no out-edge in the normal range, else 0."""
    peak, low = np.maximum.reduce(conj, axis=1), np.minimum.reduce(conj, axis=1)
    lost = peak > _LOG_MAX
    if not low.min() >= _LOG_SMALLEST_NORMAL:  # then look at each vertex
        top = np.full(len(conj) * n, -np.inf)
        np.fmax.at(top, _flat(n, len(conj), src), conj.ravel())  # skips nan, without a warning
        lost |= np.minimum.reduce(top.reshape(len(conj), n), axis=1) < _LOG_SMALLEST_NORMAL
    return np.where(np.isfinite(peak) & np.isfinite(low), lost, 2)


def _flat(n, size, index):
    """Vertex ``index`` for a stack of ``size`` rows laid out flat: row
    ``s`` lives at entries ``s*n .. s*n + n - 1``."""
    return ((np.arange(size) * n)[:, None] + index).ravel()


def _karp(n, src, dst, w):
    """The maximum cycle mean ``beta`` of each row of ``w`` by Karp's
    recurrence (Karp 1978) over the edge arrays, in O(n E); a target, a
    vertex of a cycle of that mean (the first repeated vertex on a best
    n-edge walk into a vertex that attains it); and the best weight of a
    walk from each vertex to the target under ``w - beta``."""
    size = len(w)
    rows = np.arange(size)
    src_at, dst_at = _flat(n, size, src), _flat(n, size, dst)
    flat_w = w.ravel()
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
    excess = flat_w - np.repeat(beta, len(src))
    right = _longest_walks(n, src_at, dst_at, excess, rows * n + vertex)
    return beta, vertex, right.reshape(size, n)


def _howard(n, src, dst, w):
    """Multichain policy iteration (Howard's algorithm for the maximum
    cycle mean; Cochet-Terrasson, Cohen, Gaubert, McGettrick and Quadrat
    1998) on each row of ``w``, as ``(certified, beta, target, bias)``
    over the rows.

    A policy picks one out-edge per vertex; the first is greedy after
    ``_LOOKAHEAD`` value-iteration sweeps.  Each step evaluates the policy
    by pointer doubling (`_policy_values`): the mean of each policy cycle,
    and the bias, the policy walk's weight less those means up to the
    smallest vertex of its cycle, where it is 0.  It then improves the
    mean reached from a vertex where it can, else the bias, each to the
    best edge; a gain must pass the row's tolerance, ``n * 2**-36``
    times its largest weight, so that rounding cannot cycle.  The first
    such bias step instead takes the greedy policy after ``_LOOKAHEAD``
    sweeps on from the bias, and only once per row, so that the
    iteration still ends: at 100 to 144 states it cut the steps from 4-6
    to 2-3.

    A row that the step leaves unchanged is certified if every sum is
    finite, its policy has one cycle and exactly ``n`` edges have slack
    ``w - beta + bias(dst) - bias(src)`` at or above minus the tolerance:
    then the near-saturated edges are the policy, its cycle is the one
    critical class, and every other cycle holds an edge below minus the
    tolerance, so its mean is below ``beta`` by about ``2**-36`` times
    the largest weight or more.  A certified row's figures depend on its
    final policy alone, not on the sweeps and steps that led there.
    Tied classes, non-finite sums and ``_HOWARD_STEPS`` spent leave the
    row uncertified, and its other fields unused.  Every figure of a row,
    and its number of steps, comes from that row alone, so a stacked row
    equals its solve alone bit for bit.  Edges may come in any order."""
    size = len(w)
    certified = np.zeros(size, dtype=bool)
    beta, target, bias = np.full(size, np.nan), np.zeros(size, dtype=np.intp), np.full((size, n), np.nan)
    # Edges grouped by source, slot-major: slot k of vertex v holds its
    # k-th out-edge, or past its last a loop of weight -inf.
    degree = np.bincount(src, minlength=n)
    width = int(degree.max())
    slot = np.arange(width)[:, None]
    real = slot < degree
    edge = np.argsort(src, kind="stable")[np.where(real, np.cumsum(degree) - degree + slot, 0)]
    head = np.where(real, dst[edge], np.arange(n))
    depth = (n - 1).bit_length()  # 2**depth policy steps reach a cycle
    scale = np.abs(w).max(axis=1)
    live = np.flatnonzero(np.isfinite(scale))
    ws, tol = np.where(real, w[live][:, edge], -np.inf), n * 2.0 ** -36 * scale[live, None]
    rows = live.size
    if not rows:
        return certified, beta, target, bias
    # Rows laid out flat: the heads, and each vertex's slot 0.
    at = head + (np.arange(rows) * n)[:, None, None]
    cell = (np.arange(rows) * (width * n))[:, None] + np.arange(n)

    policy = _greedy(ws, ws, at)
    swept = np.zeros(rows, dtype=bool)  # rows past their first bias step
    for _ in range(_HOWARD_STEPS):
        chosen = (cell + policy * n).ravel()
        values = _policy_values(at.ravel()[chosen], ws.ravel()[chosen], depth)
        named, eta, gain = (a.reshape(rows, n) for a in values)
        gain_at = gain.ravel()[at]
        # improve the mean reached first, then the bias, over the edges
        # into the best mean; on a row of one mean only the bias can improve
        eta_at = eta.ravel()[at]
        best = np.maximum.reduce(eta_at, axis=1)
        step = np.where(eta_at == best[:, None], ws - best[:, None] + gain_at, -np.inf)
        top = np.maximum.reduce(step, axis=1)
        up = best > eta + tol
        up = np.where(up.any(axis=1)[:, None], up, (best == eta) & (top > gain + tol))
        moved = np.logical_or.reduce(up, axis=1)
        one_mean = (eta == eta[:, :1]).all(axis=1)
        sweep = moved & one_mean & ~swept
        if sweep.any():
            # a row's first bias step sweeps on from the bias, as its
            # first policy was chosen, and takes the greedy policy
            swept |= sweep
            k = np.flatnonzero(sweep)
            policy[k] = _greedy(step[k], ws[k] - eta[k, :1, None], at[:k.size])
            up[k] = False
        switch = np.flatnonzero(up)
        if switch.size:  # to the first slot that attains the best
            row, vertex = np.divmod(switch, n)
            policy[row, vertex] = step[row, :, vertex].argmax(axis=1)
        if moved.all():
            continue
        stay = ~moved
        done = live[stay]
        near = step[stay] - gain[stay][:, None] >= -tol[stay, :, None]
        certified[done] = (
            (np.add.reduce(named[stay], axis=1) == 1)
            & (np.add.reduce(near.reshape(done.size, -1), axis=1) == n)
            & np.isfinite(gain[stay]).all(axis=1))
        beta[done], target[done], bias[done] = eta[stay, 0], named[stay].argmax(axis=1), gain[stay]
        if not moved.any():
            break
        live, ws, tol, policy, swept = live[moved], ws[moved], tol[moved], policy[moved], swept[moved]
        rows = live.size
        at, cell = at[:rows], cell[:rows]
    return certified, beta, target, bias


def _greedy(walk, weights, at):
    """The first slot of each vertex that attains the best walk after
    ``_LOOKAHEAD`` value-iteration sweeps over the slot-major ``weights``
    from the slot values ``walk``, whose heads are ``at`` (laid out flat);
    a nan slot where the sweeps overflow."""
    for _ in range(_LOOKAHEAD):
        walk = weights + np.maximum.reduce(walk, axis=1).ravel()[at]
    return walk.argmax(axis=1)


def _policy_values(succ, cost, depth):
    """Policy evaluation by pointer doubling, over vertices laid out flat
    whose policy edges lead to ``succ`` with weights ``cost``, each
    reaching a cycle within ``2**depth`` steps: whether each vertex names
    its cycle (is the smallest vertex on it), the mean of the cycle that
    each vertex reaches, and the bias, the weight of the policy walk less
    that mean per edge up to the named vertex, where it is 0."""
    vertex = np.arange(len(succ))
    low, jump = vertex, succ
    for _ in range(depth):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    root = low[jump]
    named = root == vertex
    on = np.zeros(len(succ), dtype=bool)  # the vertices on cycles
    on[jump] = True
    ring = root[on]
    # the cycle mean at each named vertex; no other entry is read
    mean = np.bincount(ring, cost[on], len(succ)) / np.maximum(np.bincount(ring, None, len(succ)), 1)
    eta = mean[root]
    gain = np.where(named, 0.0, cost - eta)
    jump = np.where(named, vertex, succ)
    for _ in range(depth):
        gain = gain + gain[jump]
        jump = jump[jump]
    return named, eta, gain


def _left_normal_range(smallest, iterations) -> ConvergenceError:
    return ConvergenceError(
        f"Perron iterate left the normal float range (smallest entry "
        f"{smallest:g} of the iterate after {iterations} iterations)"
    )


def _stalled(residual, iterations) -> ConvergenceError:
    return ConvergenceError(
        f"Perron enclosure stalled at half-width {residual:g} "
        f"(tolerance {TOL:g}, {iterations} iterations)"
    )


# A product that underflows to 0 takes log -inf, and a bare one that
# overflows gives inf and then nan, without a warning: the iterate that
# holds them leaves the normal float range and is refused at its check.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def perron_stack(e):
    """Dominant log-eigenvalue and log right eigenvector of each slice of
    a stack ``e`` of shape ``(S, n, n)``, each slice bit for bit as if
    solved alone.

    ``e`` holds linear-domain weights, 0 on missing edges; the support of
    each slice must be irreducible and every row must peak near 1.
    Returns ``(values, log_vectors, residuals, iterations, noda)`` as
    arrays over the slices: ``values`` enclose the log Perron eigenvalues
    to ``residuals``, each log vector has ``max = 0``, and ``noda`` is
    True where the slice certified in Noda's phase.

    Every step takes one stacked product ``E x``, which certifies and, in
    the plain phase, is the update; a slice leaves once it certifies.  A
    slice never in Noda's phase takes the enclosure only at step 1 and
    every ``_BLOCK``-th step, bare products between (in one inner loop
    while every waiting slice is such), so it counts 1 or a multiple of
    ``_BLOCK`` products, the iterations returned.  At step ``_PROBE`` a
    slice whose contraction over the last ``_PROBE_WINDOW`` steps predicts
    more plain steps than four Noda steps are counted to cost switches to
    Noda's phase, as does a slice whose contraction over the last
    ``_STALL`` steps later predicts as much, or more than the budget
    holds; where four Noda steps count for more than the budget, from
    about 500 states, no slice switches at the probe.  A Noda step solves
    ``(sigma I - E) z = x`` at the Collatz-Wielandt upper bound ``sigma``,
    one batched solve over the switched slices; a solve that is not
    positive, finite and in the normal range sends its slice back to plain
    steps.  A slice that stalls in Noda's phase, or spends the budget, is
    accepted at the floating-point noise floor or refused.  Raises the
    ``ConvergenceError`` of the first refused slice, or of the first whose
    iterate leaves the normal float range.
    """
    size, n = e.shape[:2]
    values = np.empty(size)
    residuals = np.empty(size)
    vectors = np.empty((size, n))
    iterations = np.empty(size, dtype=int)
    noda = np.zeros(size, dtype=bool)
    failures = {}
    # Plain steps that cost about as much as four Noda steps, at or above
    # every measured cost of a Noda step (in plain steps: 7 at n = 32, 12
    # at 64, 23-47 at 128, 78-84 at 192, 69-107 at 256, 173-205 at 1,024,
    # measured when each step took the enclosure; it counts products).
    # From n of about 500 it passes the budget: there no slice switches at
    # the probe, and only a stall sends one to Noda's phase.
    horizon = 4 * (2 + n / 8 + (n / 24) ** 2)
    probe = _PROBE if horizon < _BUDGET else 0

    ring = _STALL + 1
    history = np.empty((ring, size))  # the spreads of the last `ring` steps, nan if not taken
    # The stack holds the slices `live` with their matrices and iterates,
    # the step at which each switched to Noda's phase (0: plain), and
    # whether it is `blocked`: in its first plain phase, or done.  A slice
    # with a verdict stops `waiting` but stays in the stack, its steps
    # unused, until a quarter of the stack is left to wait.
    live, stack, x = np.arange(size), e, np.ones((size, n))
    since, blocked = np.zeros(size, dtype=int), np.ones(size, dtype=bool)
    waiting, count = np.ones(size, dtype=bool), size
    steps = 0
    while count:
        steps += 1
        y = np.matmul(stack, x[:, :, None])[:, :, 0]
        ratio = y / x
        d = np.log(ratio)
        hi, lo = np.maximum.reduce(d, axis=1), np.minimum.reduce(d, axis=1)
        # The spread hi - lo is twice the residual (halving is exact).
        spread = np.subtract(hi, lo, out=history[steps % ring])
        bare = steps > 1 and steps % _BLOCK  # a step between the checks of blocked slices
        if bare:
            spread[blocked] = np.nan
        leave = spread <= TOL
        if count < live.size:
            leave &= waiting
        certified = leave
        if steps == probe or steps > _STALL:
            # A slice is slow when its spread has not shrunk over the last
            # `window` steps of its phase, or shrinks too slowly to reach
            # TOL within the budget (in the plain phase: within what
            # Noda's steps are counted to cost).
            window = _PROBE_WINDOW if steps == probe else _STALL
            left = _BUDGET - steps
            widths, oldest, start = spread.tolist(), history[(steps - window) % ring].tolist(), since.tolist()
            stalled = []
            for j in (waiting & ~leave).nonzero()[0].tolist():
                slow = steps - start[j] > window and _too_slow(
                    widths[j], oldest[j], window, left if start[j] else min(horizon, left))
                if steps == _BUDGET or (slow and start[j]):
                    stalled.append(j)
                elif slow:
                    since[j], blocked[j] = steps, False
            if stalled:
                # a stall in Noda's phase, or the budget spent: accepted
                # at the noise floor, refused above it
                certified = leave.copy()
                leave[stalled] = True
                for j in stalled:
                    if spread[j] / 2.0 <= _NOISE_FLOOR_ACCEPT:
                        certified[j] = True
                    else:
                        failures[int(live[j])] = _stalled(spread[j] / 2.0, steps)
        leaving = np.count_nonzero(leave)
        if leaving:
            done = live[certified]
            values[done], residuals[done] = (hi + lo)[certified] / 2.0, spread[certified] / 2.0
            kept = x[certified]
            if steps > 1:  # a bare iterate, scaled back to max 1
                kept /= np.maximum.reduce(kept, axis=1, keepdims=True)
            vectors[done], iterations[done] = np.log(kept), steps
            noda[done] = since[certified] > 0
            since[leave] = 0
            count -= leaving
            if not count:
                break
            waiting &= ~leave
            blocked |= leave  # a verdict's steps are unused
        update = y / np.maximum.reduce(y, axis=1, keepdims=True)
        if bare:
            update[blocked] = y[blocked]
        rows = since.nonzero()[0]  # the waiting slices in Noda's phase
        if rows.size:
            z, good = _noda_steps(stack, rows, x, ratio)
            update[rows[good]] = z[good]
            since[rows[~good]] = 0
        x = update
        if leaving and 4 * count <= live.size:
            live, stack, x, since, blocked, history, waiting = _compact(
                waiting, live, stack, x, since, blocked, history)
        if blocked.all():  # bare products up to the next check, in one loop
            for _ in range(-(steps + 1) % _BLOCK):
                steps += 1
                history[steps % ring] = np.nan
                x = np.matmul(stack, x[:, :, None])[:, :, 0]
        if not np.minimum.reduce(x, axis=None) >= _SMALLEST_NORMAL:  # also catches nan
            smallest = np.minimum.reduce(x, axis=1)
            normal = smallest >= _SMALLEST_NORMAL
            if (steps + 1) % _BLOCK:  # blocked slices are checked before their next check
                normal |= blocked
            for j in np.flatnonzero(waiting & ~normal).tolist():
                failures[int(live[j])] = _left_normal_range(smallest[j], steps)
            live, stack, x, since, blocked, history, waiting = _compact(
                waiting & normal, live, stack, x, since, blocked, history)
            count = live.size
    if failures:
        raise failures[min(failures)]
    return values, vectors, residuals, iterations, noda


def _compact(keep, *arrays):
    """The rows ``keep`` of each array (the columns of the last, the
    spread history), and an all-True waiting mask for them."""
    *rows, history = arrays
    return (*(a[keep] for a in rows), history[:, keep], np.ones(np.count_nonzero(keep), dtype=bool))


def _too_slow(width, oldest, window, horizon):
    """Whether a spread that went from ``oldest`` to ``width`` over
    ``window`` steps, contracting at that rate for ``horizon`` more
    steps, stays above ``TOL``."""
    ratio = width / oldest
    return ratio >= 1.0 or width * ratio ** (horizon / window) > TOL


def _noda_steps(stack, rows, x, ratio):
    """Noda's update (Noda 1971) of the iterates ``x[rows]`` of the slices
    ``stack[rows]``, whose products ``E x`` are ``ratio * x``:
    ``(sigma I - E)^-1 x`` at the Collatz-Wielandt upper bound
    ``sigma = max ratio``, scaled to ``max = 1``, and whether it is
    positive, finite and in the normal range.  As ``sigma`` is at or above the Perron root, ``sigma I - E``
    is an M-matrix and the update is positive up to rounding; the bounds
    converge quadratically (Elsner 1976).  The solve runs on ``E``
    conjugated by ``diag(x)``, whose Perron vector is near the ones, so
    that its rounding is small against every entry of the update, not
    only against the largest.  The slices are solved in batches of at
    most ``_NODA_FLOATS`` matrix entries, or one at a time, as each batch
    holds two copies of its matrices (the conjugate and LAPACK's)."""
    group = max(1, _NODA_FLOATS // stack[0].size)
    if rows.size > group:
        parts = [_noda_steps(stack, rows[k:k + group], x, ratio) for k in range(0, rows.size, group)]
        return np.concatenate([z for z, _ in parts]), np.concatenate([good for _, good in parts])
    x, ratio = x[rows], ratio[rows]
    sigma = np.maximum.reduce(ratio, axis=1)
    a = stack[rows]  # a copy, conjugated in place
    a *= x[:, None, :]
    a /= x[:, :, None]
    a.reshape(len(a), -1)[:, ::a.shape[1] + 1] -= sigma[:, None]
    z = x * _solved(a, np.full(x.shape + (1,), -1.0))[:, :, 0]
    top = np.maximum.reduce(z, axis=1, keepdims=True)
    with np.errstate(all="ignore"):  # rows that fail are refused below
        z /= top
    return z, (top[:, 0] > 0.0) & (np.minimum.reduce(z, axis=1) >= _SMALLEST_NORMAL)


def _solved(a, b):
    """``np.linalg.solve`` over a stack, with nan for each slice singular
    to working precision (which makes a batched call raise for all)."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.nan)
        return np.concatenate([_solved(a[k:k + 1], b[k:k + 1]) for k in range(len(a))])
