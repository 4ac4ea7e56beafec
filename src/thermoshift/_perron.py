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
Karp levels, no Bellman pass and no refusal: its conjugated weights are
all 0.
Both Perron sides of every row then go through one `perron_stack`, for
every caller: a caller that reads only the values reads the right sides.

Power iteration ``x <- E x`` runs on the linear-domain table ``E``,
formed once per solve: ``exp`` of the conjugated log-weights is taken on
the edge arrays alone and scattered into a zero-filled dense table, so
no transcendental runs over its padding.  The Collatz-Wielandt enclosure
``min_i (Ex)_i/x_i <= lambda <= max_i (Ex)_i/x_i``, taken in logs,
certifies the result to the fixed tolerance ``TOL``.  A conjugation
keeps the spectrum and the enclosure is certified on the conjugated
matrix, so frame rounding cannot weaken it.

The enclosure holds for any positive ``x``, so one schedule decides
which products take it: a slice in its first plain phase takes it at
step 1 and every ``_BLOCK``-th step, with bare products ``x <- E x`` (no
log, bound or normalization) between, and a slice in Noda's phase, or
sent back from it, at every step.  At each step that takes its
enclosure a slice is refused if its iterate left the normal float range;
else it certifies, or reads the budget ``_BUDGET``, the probe (at step
``_PROBE``) and the stall window, so a budget ends a run at any value.
Every slice with a verdict leaves the stack at once.

Every slice starts with plain steps, on the whole stack of matrices at
once.  At the probe each open slice's contraction predicts the plain
steps it still needs; a slice that would need more than four Noda steps
are counted to cost, from ``n`` alone, switches to Noda's iteration
(Noda 1971), as does a slice whose contraction over a longer window
later predicts as much, or stalls.  A Noda step solves
``(sigma I - E) z = x`` at the Collatz-Wielandt upper bound
``sigma = max_i (Ex)_i/x_i``, so every iterate stays positive and the
bounds converge quadratically (Elsner 1976), or halve per step where the
two top eigenvalues nearly merge, as on two tied loops.  It runs in the
same stacked loop, one batched solve per step over the switched slices,
and the same enclosure on ``E`` certifies it.  The counted cost grows
faster than ``n`` and passes the step budget at about 500 states, so
larger graphs never switch at the probe and stay plain unless they
stall.  The 3- to 9-state N(0, 1) potentials at ``t = 8`` of
``tests/test_perron.py`` certify every slice in 11 steps, where plain
steps alone took 995 to 1,931.

Before those phases, on a graph of at most ``_SQUARE_STATES`` (32)
states, every slice that step 1 leaves open, and whose step-1 update is
in the normal range, takes ``P^(2^K) x`` as its next iterate, ``x``
being that update: its matrix is squared ``K`` times (``_SQUARINGS``,
7), one batched product per squaring over those slices, with no scaling
between squarings.  As its rows peak at 1, a slice of at most 32 states
has ``|P|_inf <= 32`` and ``|P^128|_inf <= 2^640``, far inside the float
range, and the iterate is scaled once, at the end.  A slice whose second
eigenvalue is below about 0.8 of the Perron root then certifies at its
next check, step 4, as does a frame at low temperature, which starts
near its Perron vector; the squarings only choose the iterate, and the
enclosure on the true product ``E x`` still decides.  A slice they do
not finish goes on through the phases above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

# The enclosure's width at which a slice certifies: the library's contract.
TOL = 1e-13
# Steps per slice, plain and Noda together: ends every run at some verdict.
_BUDGET = 2000
# The step at which a slice whose contraction over the last `_BLOCK` steps
# is slow switches to Noda's phase, before any stall (BENCH_42.json).
_PROBE = 8
# Products per enclosure in the first plain phase (BENCH_42.json); `_PROBE`
# and `_STALL` are its multiples, so both windows read spreads that were taken.
_BLOCK = 4
# Steps over which a spread that does not shrink is a stall, which sends a
# plain slice to Noda's phase and ends a Noda slice.
_STALL = 40
# Half-width accepted where a stall or the budget ends a run; above it the
# slice is refused.
_NOISE_FLOOR_ACCEPT = 1e-12
# Matrix entries that one batched Noda solve copies: bounds its memory, as
# from 725 states on each slice is solved alone.
_NODA_FLOATS = 2 ** 20
# A slice of at most `_SQUARE_STATES` states that step 1 leaves open takes
# P^(2^_SQUARINGS) times its step-1 update as its next iterate, which most
# such slices certify at step 4 in fewer products (BENCH_42.json).
_SQUARE_STATES = 32
_SQUARINGS = 7
# The normal float range, in which every iterate and its logs must stay.
_SMALLEST_NORMAL = np.finfo(float).tiny
_LOG_MAX = float(np.log(np.finfo(float).max))
_LOG_SMALLEST_NORMAL = float(np.log(_SMALLEST_NORMAL))
# From this many states `_maxplus_frame` tries Howard's policy iteration
# before Karp's levels; each is the faster on one side (BENCH_42.json).
_HOWARD_STATES = 64
# Policy steps per row before it falls back to Karp: ends every row.
_HOWARD_STEPS = 64
# Value-iteration sweeps before Howard's first policy and first bias step:
# fewer policy steps (BENCH_42.json), the same certified rows.
_LOOKAHEAD = 10


@dataclass(frozen=True)
class EigenSolve:
    """Eigensolves of a stack of edge-weight rows on one graph; row arrays
    carry the rows on their first axis.  Row ``s`` is solved by slices
    ``2s`` (right side) and ``2s + 1`` (left side) of the Perron stack,
    whose residuals, iteration counts and certifying phases are kept."""

    value: np.ndarray
    maxplus_right: np.ndarray
    # conjugated log-weights on the edges, shape (T, E)
    frame_w: np.ndarray
    frame_right: np.ndarray
    # log pi = frame_left + frame_right (up to norm)
    frame_left: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    # True where the slice certified in Noda's phase, False in the plain
    noda: np.ndarray


def solve_stack(n: int, src, dst, w: np.ndarray) -> EigenSolve:
    """Log Perron values and vectors of the rows of edge weights ``w``
    (shape ``(T, E)``) on the strongly connected graph ``src -> dst`` over
    ``n`` vertices.  Before any Perron step, raises the ``ValidationError``
    of the first row it refuses: one whose max-plus frame is not finite,
    as where its walk sums pass the float range, or where a conjugated
    weight (right or left) passes ln of the float maximum or every edge
    out of a vertex falls below ln of the smallest normal.  Else raises
    the ``ConvergenceError`` of the first row that fails, its right
    side's before its left side's."""
    # Conjugating the transposed frame again, by its left eigenvector,
    # keeps pi frame-sized.
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        beta, right, frame_w, left = _maxplus_frame(n, src, dst, w)
        left_w = frame_w + left[:, src] - left[:, dst]
        # the zero frame of an all-zero stack has weights 0, never refused
        if np.count_nonzero(w):
            # One pass over both sides: a row's left weights leave their
            # heads, as the tails of a second copy of the vertices.
            refused = _refused(2 * n, np.concatenate((src, dst + n)),
                               np.concatenate((frame_w, left_w), axis=1))
            if np.count_nonzero(refused):
                raise ValidationError(_REFUSALS[refused[refused > 0][0]])
    frames = np.zeros((2 * len(w), n, n))
    frames[0::2, src, dst] = np.exp(frame_w)
    frames[1::2, dst, src] = np.exp(left_w)
    values, vectors, residuals, iterations, noda = perron_stack(frames)
    return EigenSolve(
        value=values[0::2] + beta,
        maxplus_right=right,
        frame_w=frame_w,
        frame_right=vectors[0::2],
        frame_left=vectors[1::2] + left,
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


def _maxplus_frame(n, src, dst, w):
    """Float max-plus conditioning of each row of edge weights ``w`` (a
    stack of shape ``(T, E)``) on ``src -> dst``: the maximum cycle mean
    ``beta``; a right max-plus eigenvector ``right`` of ``w - beta``, 0 at
    a vertex of a critical cycle (the row's target); the conjugated
    weights ``frame_w``, whose rows peak at 0; and a left max-plus
    eigenvector ``left`` of ``frame_w``, 0 at the target.  Each comes
    back as an array over the rows.

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
    if not np.count_nonzero(w):
        return np.zeros(size), np.zeros((size, n)), np.zeros(w.shape), np.zeros((size, n))
    if n < _HOWARD_STATES:
        beta, target, right = _karp(n, src, dst, w)
    else:
        certified, beta, target, right = _howard(n, src, dst, w)
        karp = ~certified
        if np.count_nonzero(karp):
            beta[karp], target[karp], right[karp] = _karp(n, src, dst, w[karp])
    src_at, dst_at = _flat(n, size, src), _flat(n, size, dst)
    right = right.ravel()
    frame_w = (w - beta[:, None]).ravel() + right[dst_at] - right[src_at]
    left = _longest_walks(n, dst_at, src_at, frame_w, np.arange(size) * n + target)
    return beta, right.reshape(size, n), frame_w.reshape(size, -1), left.reshape(size, n)


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
    if not np.minimum.reduce(low) >= _LOG_SMALLEST_NORMAL:  # then look at each vertex
        top = np.full(len(conj) * n, -np.inf)
        np.fmax.at(top, _flat(n, len(conj), src), conj.ravel())  # skips nan, without a warning
        lost |= np.minimum.reduce(top.reshape(len(conj), n), axis=1) < _LOG_SMALLEST_NORMAL
    return np.where(np.isfinite(peak) & np.isfinite(low), lost, 2)


def _flat(n, size, index):
    """Vertex ``index`` for a stack of ``size`` rows laid out flat: row
    ``s`` lives at entries ``s*n .. s*n + n - 1``, so a stack of one
    keeps ``index`` itself."""
    if size == 1:
        return index
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
    means = np.minimum.reduce(gaps / np.arange(n, 0, -1)[:, None, None], axis=0)
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
    excess = (w - beta[:, None]).ravel()
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
    live = np.isfinite(scale).nonzero()[0]
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
            k = sweep.nonzero()[0]
            policy[k] = _greedy(step[k], ws[k] - eta[k, :1, None], at[:k.size])
            up[k] = False
        row, vertex = up.nonzero()
        if row.size:  # to the first slot that attains the best
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


# A product that underflows to 0 takes log -inf, and a bare one that
# overflows gives inf and then nan, without a warning: the iterate that
# holds them leaves the normal float range and is refused before its
# product next takes the enclosure.
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

    Every step takes one stacked product ``E x`` (`_product`), and one
    schedule (`_schedule`) decides from the step and each slice's phase
    whether the slice takes the enclosure on it: in its first plain phase
    at step 1 and every ``_BLOCK``-th step, its products between bare (not
    normalized), so that it returns ``iterations`` 1 or a multiple of
    ``_BLOCK``; in Noda's phase, or plain again after it, at every step.
    At each step that takes its enclosure a slice is refused if its
    iterate left the normal float range; else it certifies, or reads the
    budget, the probe and the stall window.  The stack drops every slice
    with a verdict at once.

    The phases are those of the module docstring.  The probe looks back
    ``_BLOCK`` steps, the stall window ``_STALL`` steps of the
    slice's phase.  A squared slice that certifies at step 4 returns
    ``iterations`` 4 (the squarings are not counted) and ``noda`` False.
    A squared iterate, or a Noda solve, that is not finite, positive and
    in the normal range is not taken; the Noda solve's slice goes back to
    plain steps.  A slice that stalls in Noda's phase, or takes its
    enclosure at or past ``_BUDGET`` steps, is accepted at the
    floating-point noise floor or refused.  Raises the
    ``ConvergenceError`` of the first refused slice.
    """
    size, n = e.shape[:2]
    values = np.empty(size)
    residuals = np.empty(size)
    vectors = np.empty((size, n))
    iterations = np.empty(size, dtype=int)
    noda = np.zeros(size, dtype=bool)
    failures = {}
    # Plain steps counted to cost as much as four Noda steps, from n alone:
    # at or above every measured cost of a Noda step (BENCH_42.json).
    # From n of about 500 it passes the budget: there no slice switches at
    # the probe, and only a stall sends one to Noda's phase.
    horizon = 4 * (2 + n / 8 + (n / 24) ** 2)
    probe = _PROBE if horizon < _BUDGET else 0

    ring = _STALL + 1
    history = np.empty((ring, size))  # the spreads of the last `ring` steps, nan if not taken
    # The stack holds the open slices `live` with their matrices, iterates
    # and phases: `since` is 0 in the first plain phase, the step at which
    # the slice switched to Noda's phase, or -1 once sent back from it.
    live, stack, x, since = np.arange(size), e, np.ones((size, n)), np.zeros(size, dtype=int)
    steps = 0
    while live.size:
        check, bare = _schedule(steps, since)
        for steps in range(steps + 1, check):  # a bare product for every slice
            history[steps % ring] = np.nan
            x = _product(stack, x)
        steps = check
        first = steps == 1  # x is the all-ones start: in range, at max 1
        if not first and not np.minimum.reduce(x, axis=None) >= _SMALLEST_NORMAL:  # also catches nan
            smallest = np.minimum.reduce(x, axis=1)
            out = ~(smallest >= _SMALLEST_NORMAL)
            if bare is not None:
                out &= ~bare
            for j in out.nonzero()[0].tolist():
                failures[int(live[j])] = ConvergenceError(
                    f"Perron iterate left the normal float range (smallest entry "
                    f"{smallest[j]:g} of the iterate after {steps - 1} iterations)")
            history, live, stack, x, since, bare = _compact(~out, history, live, stack, x, since, bare)
        y = _product(stack, x)
        ratio = y if first else y / x
        d = np.log(ratio)
        hi, lo = np.maximum.reduce(d, axis=1), np.minimum.reduce(d, axis=1)
        # The spread hi - lo is twice the residual (halving is exact).
        spread = np.subtract(hi, lo, out=history[steps % ring])
        if bare is not None:
            spread[bare] = np.nan
        leave = spread <= TOL
        certified = leave
        # A slice is slow when its spread has not shrunk over the last
        # `window` steps of its phase, or shrinks too slowly to reach TOL
        # within the budget (in the plain phase: within what Noda's steps
        # are counted to cost); before step `window + 1` none can be.
        window = _BLOCK if steps == probe else _STALL
        left = _BUDGET - steps
        if steps > window or left <= 0:
            widths, oldest, phase = spread.tolist(), history[(steps - window) % ring].tolist(), since.tolist()
            stalled = []
            for j in (~leave if bare is None else ~(leave | bare)).nonzero()[0].tolist():
                start = max(phase[j], 0)
                slow = steps - start > window and _too_slow(
                    widths[j], oldest[j], window, left if start else min(horizon, left))
                if left <= 0 or (slow and start):
                    stalled.append(j)
                elif slow:
                    since[j] = steps
            if stalled:
                # a stall in Noda's phase, or the budget spent: accepted at
                # the noise floor, refused above it
                certified = leave.copy()
                leave[stalled] = True
                for j in stalled:
                    if spread[j] / 2.0 <= _NOISE_FLOOR_ACCEPT:
                        certified[j] = True
                    else:
                        failures[int(live[j])] = ConvergenceError(
                            f"Perron enclosure stalled at half-width {spread[j] / 2.0:g} "
                            f"(tolerance {TOL:g}, {steps} iterations)")
        leaving = np.count_nonzero(leave)
        if leaving:
            done = live[certified]
            values[done], residuals[done] = (hi + lo)[certified] / 2.0, spread[certified] / 2.0
            if first:
                vectors[done] = 0.0
            else:
                kept = x[certified]  # bare in the first plain phase: scaled back to max 1
                vectors[done] = np.log(kept / np.maximum.reduce(kept, axis=1, keepdims=True))
            iterations[done], noda[done] = steps, since[certified] > 0
            if leaving == live.size:
                break
            history, live, stack, x, y, ratio, spread, since, bare = _compact(
                ~leave, history, live, stack, x, y, ratio, spread, since, bare)
        scale = np.maximum.reduce(y, axis=1, keepdims=True)
        if bare is not None:
            scale[bare] = 1.0  # a bare product is its own update
        update = y / scale
        if first and n <= _SQUARE_STATES:
            # the open slices whose step-1 update is in the normal range, if any
            rows = (np.minimum.reduce(update, axis=1) >= _SMALLEST_NORMAL).nonzero()[0]
            z = _squared_steps(stack, rows, update)
            good = np.logical_and.reduce(np.isfinite(z), axis=1) & (
                np.minimum.reduce(z, axis=1) >= _SMALLEST_NORMAL)
            update[rows[good]] = z[good]
        rows = (since > 0).nonzero()[0]  # the slices in Noda's phase
        if rows.size:
            z, good = _noda_steps(stack, rows, x, ratio)
            update[rows[good]] = z[good]
            since[rows[~good]] = -1
        x = update
    if failures:
        raise failures[min(failures)]
    return values, vectors, residuals, iterations, noda


def _schedule(step, since):
    """The next step after ``step`` at which a slice takes the
    Collatz-Wielandt enclosure, and a mask of the slices that take none
    there, by their phase ``since``, or None where every slice takes it: a
    slice in its first plain phase (0) takes it at step 1 and every
    ``_BLOCK``-th step, every other slice at every step.  Every product
    before that step is bare."""
    block = (step // _BLOCK + 1) * _BLOCK if step else 1
    if block > step + 1 and np.count_nonzero(since):
        return step + 1, since == 0
    return block, None


def _product(stack, x):
    """``E x`` for each slice ``E`` of ``stack`` and its row of ``x``."""
    return np.matmul(stack, x[:, :, None])[:, :, 0]


def _compact(keep, history, *rows):
    """The columns ``keep`` of the spread history, and the rows ``keep``
    of every other array (None stays None)."""
    return (history[:, keep], *(None if a is None else a[keep] for a in rows))


def _too_slow(width, oldest, window, horizon):
    """Whether a spread that went from ``oldest`` to ``width`` over
    ``window`` steps, contracting at that rate for ``horizon`` more
    steps, stays above ``TOL``."""
    ratio = width / oldest
    return ratio >= 1.0 or width * ratio ** (horizon / window) > TOL


def _squared_steps(stack, rows, x):
    """``P^(2^K) x[rows]`` for the slices ``P`` of ``stack[rows]``, ``K``
    being ``_SQUARINGS``, scaled to ``max = 1``: each slice is squared
    ``K`` times, one batched product per squaring, and only the product
    is scaled.  The rows of ``P`` peak at 1, so on ``n`` states
    ``|P|_inf <= n`` and ``|P^(2^K)|_inf <= n^(2^K)``, 2^640 at
    ``_SQUARE_STATES``; a power that still leaves the float range gives
    an iterate that is not finite, which the caller does not take."""
    p = stack[rows]
    for _ in range(_SQUARINGS):
        p = np.matmul(p, p)
    z = _product(p, x[rows])
    z /= np.maximum.reduce(z, axis=1, keepdims=True)
    return z


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
