"""Ergodic optimization: maximal ergodic averages and ground states.

The largest space average of a locally constant potential over invariant
measures equals the maximum mean cycle weight of its edge graph; the
maximizing measures are exactly the invariant measures carried by the
critical subgraph (edges saturating the max-plus Bellman equation that
lie on cycles).  These are computed exactly, in integer arithmetic on one
common dyadic scale of the edge weights, with `Fraction` only in the
result: the float max-plus frame proposes a maximizing cycle and exact
Bellman passes confirm or correct it (see `maxplus`), once per potential
and vertex order (see `_edgegraph.maxplus_data`).

The ground entropy and the ground-state bound are pressures on the
critical classes that the analysis stores (`maxplus.MaxPlusData`), so no
call searches the graph again: exact on a class that is a simple cycle,
the topological entropy of the subshift when every edge is critical, and
elsewhere Perron values from `_perron.solve_stack`, certified as every
eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._edgegraph import edge_weights, graph_order, maxplus_data
from ._perron import solve_stack
from .errors import CheckFailedError
from .potentials import Potential, _require_over, zero_potential
from .sft import Block, Sft, block_graph, topological_entropy


@dataclass(frozen=True)
class MaximizationResult:
    """Outcome of maximizing the ergodic average of a potential.

    ``beta`` is the maximal average; ``critical_edges`` span the
    subgraph carrying every maximizing measure; ``witness_cycle`` is the
    simple cycle of that subgraph found by starting at its first state
    (in ``states`` order) and following the first critical successor
    until a state repeats, rotated to start at its first state; its mean
    weight is exactly ``beta``.  ``ground_entropy`` is the topological
    entropy of the critical subgraph; ``unique_flag`` is True iff the
    witness uses every critical edge, i.e. the subgraph is a single
    simple cycle, in which case the maximizing measure is unique and has
    zero entropy.
    """

    beta: float
    critical_edges: tuple[tuple[Block, Block], ...]
    witness_cycle: tuple[Block, ...]
    ground_entropy: float
    unique_flag: bool
    states: tuple[Block, ...] = field(repr=False)


def max_ergodic_average(sft: Sft, phi: Potential) -> MaximizationResult:
    """Maximal space average of ``phi`` over invariant measures, with the
    critical subgraph that supports every maximizing measure."""
    _require_over(sft, phi)
    order = graph_order(phi.memory)
    states, src, _ = block_graph(sft, order)
    data = maxplus_data(phi, order)
    critical = sorted(data.critical)
    if len(critical) == len(src):
        # every edge is critical: the critical subshift is the subshift
        ground = topological_entropy(sft)
    else:
        ground = _critical_pressure(data.classes, [np.zeros(len(c)) for c in data.classes])
    return MaximizationResult(
        beta=float(data.beta),
        critical_edges=tuple((states[i], states[j]) for i, j in critical),
        witness_cycle=tuple(states[i] for i in data.witness),
        ground_entropy=ground,
        unique_flag=len(data.witness) == len(data.critical),
        states=states,
    )


def _critical_pressure(classes, weights) -> float:
    """Largest pressure over the critical ``classes`` of their edge
    ``weights``, one array aligned with each class: the exact mean on a
    simple cycle, else the certified Perron value of `solve_stack`."""
    best = -math.inf
    for edges, w in zip(classes, weights):
        # a strongly connected class is a simple cycle iff it has as many
        # edges as vertices
        if len(edges) == len({i for i, _ in edges}):
            value = math.fsum(w.tolist()) / len(edges)
        else:
            pairs = np.array(edges)
            vertices, local = np.unique(pairs, return_inverse=True)
            src, dst = local.reshape(pairs.shape).T
            value = float(solve_stack(len(vertices), src, dst, w[None]).value[0])
        best = max(best, value)
    return best


def ground_state_pressure_bound(sft: Sft, psi: Potential, phi: Potential) -> float:
    """A certified upper bound for the ``psi``-pressure of every measure
    maximizing ``phi``: the pressure of ``psi`` restricted to the
    critical subgraph of ``phi``.

    Exact (cycle average of ``psi``) on a component of the critical
    subgraph that is a simple cycle; otherwise the certified Perron value
    of the ``psi``-weighted component in a max-plus frame.
    """
    _require_over(sft, psi, phi)
    order = graph_order(psi.memory, phi.memory)
    states, src, dst = block_graph(sft, order)
    n = len(states)
    classes = maxplus_data(phi, order).classes
    # Edges are numbered in row-major order, so their keys are sorted.
    keys, w = src * n + dst, edge_weights(psi, order)
    weights = [w[np.searchsorted(keys, [i * n + j for i, j in edges])] for edges in classes]
    return _critical_pressure(classes, weights)


@dataclass(frozen=True)
class ZeroTemperatureRow:
    """One row of the cooling diagnostics table."""

    t: float
    phi_average: float
    entropy: float
    defect: float
    bound: float


def zero_temperature_diagnostics(
    sft: Sft, phi: Potential, t_list
) -> list[ZeroTemperatureRow]:
    """Equilibrium averages of ``phi`` along the ray ``t -> t * phi``.

    For each ``t`` the defect ``beta - integral(phi, mu_t)`` is
    nonnegative, bounded by ``h(f) / t`` and non-increasing in ``t``;
    violations beyond round-off signal a numerical fault and raise.  The
    ray is one `paths.sweep`, which raises what `paths.sample_at` raises
    at its first failing point before any row is checked.
    """
    from .paths import sweep  # here, so that maximizing loads no ray code
    from .transfer import _checked_grid

    ts = _checked_grid("t_list", t_list, positive=True)
    beta = max_ergodic_average(sft, phi).beta
    h_top = topological_entropy(sft)
    rows = []
    previous = -math.inf
    for s in sweep(sft, zero_potential(sft), phi, ts):
        defect, bound = beta - s.phi_avg, h_top / s.t
        if defect < -1e-12:
            raise CheckFailedError(f"negative defect {defect} at t={s.t}")
        if defect > bound + 1e-9:
            raise CheckFailedError(f"defect {defect} exceeds bound h(f)/t = {bound} at t={s.t}")
        if s.phi_avg < previous - 1e-12:
            raise CheckFailedError(f"phi average decreased along the ray at t={s.t}")
        previous = s.phi_avg
        rows.append(ZeroTemperatureRow(s.t, s.phi_avg, s.entropy, defect, bound))
    return rows
