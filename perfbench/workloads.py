"""The four workloads: seeded inputs and the fixed, ordered list of
operations each one replays.

``build(name, seed, lib, workdir)`` returns a list of ``Op``.  An op's
``run`` makes the calls into thermoshift and returns a small, comparable
record of the outputs; its ``check`` compares one such record with the
independent references of ``checks``.  Every name of the program is
looked up on its module at call time (``lib.transfer.pressure...``), so
that the tracer can wrap it.

The seed perturbs the potential values and draws the solver targets; the
make-up of each list (systems, transition matrices, memories and the
order of the operations) is the same for every seed, so every seed
exercises the same layers with the same operation mix.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as C

WORKLOADS = ("warm", "cold", "ray", "cli")

# Reference length of one pass on the machine described in README.md.  A
# run replays ``round(seconds / NOMINAL_PASS_S)`` whole passes, so the
# work done depends on ``--seconds`` only, never on the clock.
NOMINAL_PASS_S = {"warm": 1.0, "cold": 5.0, "ray": 5.0, "cli": 5.0}

GOLDEN = [[1, 1], [1, 0]]
SWEEP_GRID = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0, 30.0)
SWEEP_GRID_2 = (0.25, 0.75, 1.5, 2.5, 3.5, 5.0, 7.0, 9.0, 11.0, 13.5, 17.5, 22.5, 27.5, 35.0)
PIN0 = {(0, 0): 0.0, (0, 1): -1.0, (1, 0): -1.0}
BERNOULLI = {(0,): 0.0, (1,): -1.0}
# Nearly periodic support (|lambda_2 / lambda_1| ~ 0.9998 at t = 10): the
# Perron plain phase spends its whole budget before the lazy phase.
LAZY_CASE = {(0, 0): 0.500, (0, 1): 1.589, (1, 0): 1.103, (1, 1): -1.099}
# Low-span, nearly periodic input on which the eigensolve stalls at a
# round-off floor and raises ConvergenceError at t = 1.
STALL_TRANSITIONS = [[0, 1], [1, 1]]
STALL_CASE = {(0, 1, 0): 18.62, (0, 1, 1): 5.52, (1, 0, 1): -7.36,
              (1, 1, 0): 2.86, (1, 1, 1): 0.29}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    argv: list | None = None  # cli workload: the command line after "thermoshift"
    in_process: bool = False  # a cli command replayed through cli.run_command


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def build(name: str, seed: int, lib, workdir) -> list:
    draw = Draw(name, seed)
    return {"warm": _warm, "cold": _cold, "ray": _ray, "cli": _cli}[name](draw, lib, workdir)


# --- inputs ----------------------------------------------------------------

# Every value table is a fixed base table plus a seeded perturbation of
# this standard deviation, and every random transition matrix is fixed.
# The seed thus changes every input the program sees, while the spectral
# gaps, and with them the Perron iteration counts, stay close to those of
# the base: a pass costs about the same on every seed.
JITTER = 0.02
_BASE_SEED = 20260810


class Draw:
    """The inputs of one workload for one seed, drawn in a fixed order."""

    def __init__(self, workload, seed):
        self._key = WORKLOADS.index(workload)
        self._rng = np.random.default_rng([seed, self._key])
        self._slot = 0

    def _base(self):
        self._slot += 1
        return np.random.default_rng([_BASE_SEED, self._key, self._slot])

    def primitive(self, n, density=0.6, self_loop=False):
        """A fixed random primitive 0/1 matrix (optionally with ``0 -> 0``)."""
        base = self._base()
        while True:
            m = (base.random((n, n)) < density).astype(np.int8)
            if (m[0, 0] or not self_loop) and C.is_primitive(m):
                return m

    def table(self, transitions, memory, pin=None):
        """Base N(0, 1) values plus the seeded jitter.  With ``pin``, the
        value of that word is raised 0.5 above every other, so that the
        fixed point it closes is the unique ground state."""
        words = C.admissible_words(transitions, memory)
        values = self._base().normal(size=len(words)) + JITTER * self._rng.normal(size=len(words))
        table = dict(zip(words, values.tolist()))
        if pin is not None:
            table[pin] = max(v for w, v in table.items() if w != pin) + 0.5
        return table

    def uniform(self, low, high, size=None):
        return self._rng.uniform(low, high, size)


class System:
    """One subshift with its transition matrix kept for the checker."""

    def __init__(self, lib, kind, n=None, transitions=None):
        if kind == "golden":
            self.sft = lib.sft.golden_mean_shift()
            self.transitions = np.array(GOLDEN)
        elif kind == "full":
            self.sft = lib.sft.full_shift(n)
            self.transitions = np.ones((n, n), dtype=np.int8)
        else:
            self.sft = lib.sft.build_sft(len(transitions), np.asarray(transitions).tolist())
            self.transitions = np.asarray(transitions)
        self.kind = kind
        self.label = kind if kind == "golden" else f"{kind}{len(self.transitions)}"
        self._h_top = None

    @property
    def h_top(self):
        if self._h_top is None:
            self._h_top = C.topological_entropy(self.transitions)
        return self._h_top

    def potential(self, lib, table, memory):
        return lib.potentials.Potential(self.sft, memory, table)


# --- warm: moderate temperatures, plain Perron phase -----------------------

WARM_RANDOM = ((3, 2), (4, 3), (5, 2), (6, 3), (8, 2))


def _warm(draw, lib, workdir):
    systems = [(System(lib, "golden"), m) for m in (1, 2, 3)]
    systems += [(System(lib, "full", n), m) for n in range(2, 13) for m in (1, 2, 3)]
    systems += [(System(lib, "rand", transitions=draw.primitive(n)), m)
                for n, m in WARM_RANDOM]
    ops = []
    for system, memory in systems:
        table = draw.table(system.transitions, memory)
        phi = system.potential(lib, table, memory)
        zero = system.potential(lib, {w: 0.0 for w in table}, memory)
        ray = C.Ray(system.transitions, table, memory)
        for t, pot in ((0.0, zero), (1.0, phi)):
            ops.append(Op(
                f"equilibrium[{system.label},m{memory},t{t:g}]",
                _equilibrium_op(lib, system.sft, pot, phi),
                _warm_check(system, memory, table, ray, t),
            ))
    return ops


def _equilibrium_op(lib, sft, pot, phi):
    def run():
        result, mu = lib.transfer.pressure_and_equilibrium(sft, pot)
        return result.value, result.residual, mu.entropy, lib.transfer.integrate(mu, phi)
    return run


def _warm_check(system, memory, table, ray, t):
    def check(out):
        p, residual, entropy, integral = out
        problems = []
        if residual > 1e-12:
            problems.append(f"certified residual {residual!r} above 1e-12")
        problems += C.check_identity(p, entropy, t, integral)
        problems += C.check_pressure(p, ray.pressure(t))
        problems += C.check_slope(integral, ray.slope(t))
        problems += C.check_entropy_range(entropy, system.h_top)
        if t == 0.0:
            expected = (C.GOLDEN_ENTROPY if system.kind == "golden"
                        else np.log(len(system.transitions)) if system.kind == "full"
                        else system.h_top)
            problems += C.check_closed_form(p, expected, "topological entropy")
            problems += C.check_closed_form(entropy, expected, "entropy of the maximal measure")
        if system.kind == "full" and memory == 1:
            values = [table[(s,)] for s in range(len(system.transitions))]
            problems += C.check_closed_form(
                p, C.full_shift_memory1_pressure(values, t), "memory-1 pressure")
        return problems
    return check


# --- cold: low temperatures, exact max-plus work ---------------------------

COLD_SYSTEMS = (
    ("golden", None, 2), ("full", 2, 2), ("full", 3, 2), ("full", 2, 3),
    ("full", 4, 2), ("rand", 5, 2), ("full", 6, 2), ("full", 8, 2),
    ("full", 3, 3), ("full", 4, 3), ("full", 5, 3), ("rand", 8, 3), ("full", 7, 3),
    ("full", 8, 3), ("full", 10, 3),
)
COLD_TS = (500.0, 1e4)


class _ColdReference:
    """Exact data for one system: by enumeration when the block graph is
    small, otherwise from the witness cycle of the program's own
    maximization, which its check verifies exactly first."""

    def __init__(self, system, memory, phi_table, psi_table):
        self.system, self.memory = system, memory
        self.phi, self.psi = phi_table, psi_table
        self.states, _ = C.edge_words(system.transitions, memory)
        self.small = len(self.states) <= C.ENUMERATION_MAX_STATES
        self.beta = None
        self.unique_cycle = None  # state blocks of the unique maximizing cycle
        if self.small:
            states, means = C.exact_cycle_means(system.transitions, phi_table, memory)
            self.beta = max(mean for mean, _ in means)
            best = [cycle for mean, cycle in means if mean == self.beta]
            if len(best) == 1:
                self.unique_cycle = tuple(states[i] for i in best[0])

    def witness_problems(self, result):
        beta, witness, critical, ground_entropy, unique = result
        problems = []
        index = {b: i for i, b in enumerate(self.states)}
        for a, b in zip(witness, witness[1:] + witness[:1]):
            if a not in index or b not in index or a[1:] != b[:-1] or \
                    not self.system.transitions[a[-1], b[-1]]:
                return [f"witness {witness} is not a cycle of the block graph"]
        mean = C.cycle_word_mean(self.phi, self.memory, witness)
        if float(mean) != beta:
            problems.append(f"witness mean {float(mean)!r} is not beta {beta!r}")
        if self.small:
            if float(self.beta) != beta:
                problems.append(f"beta {beta!r} against enumerated {float(self.beta)!r}")
            if unique != (self.unique_cycle is not None):
                problems.append(f"unique flag {unique} against the enumeration")
        else:
            self.beta = mean
            if unique:
                self.unique_cycle = witness
        if unique:
            cycle = set(zip(witness, witness[1:] + witness[:1]))
            if set(critical) != cycle or ground_entropy != 0.0:
                problems.append("a unique ground state must be its witness cycle, entropy 0")
        if not 0.0 <= ground_entropy <= self.system.h_top + 1e-9:
            problems.append(f"ground entropy {ground_entropy!r} out of range")
        return problems


def _cold(draw, lib, workdir):
    ops = []
    for kind, n, memory in COLD_SYSTEMS:
        system = (System(lib, kind, n) if kind != "rand"
                  else System(lib, kind, transitions=draw.primitive(n, self_loop=True)))
        phi_table = (dict(PIN0) if kind == "golden"
                     else draw.table(system.transitions, memory, pin=(0,) * memory))
        psi_table = draw.table(system.transitions, 1)
        phi = system.potential(lib, phi_table, memory)
        psi = system.potential(lib, psi_table, 1)
        ref = _ColdReference(system, memory, phi_table, psi_table)
        label = f"{system.label},m{memory}"
        ops.append(Op(f"maximize[{label}]", _maximize_op(lib, system.sft, phi),
                      ref.witness_problems))
        ops.append(Op(f"ground-bound[{label}]",
                      lambda s=system.sft, a=psi, b=phi:
                      lib.ergopt.ground_state_pressure_bound(s, a, b),
                      _ground_check(ref)))
        for t in COLD_TS:
            pot = system.potential(lib, {w: t * v for w, v in phi_table.items()}, memory)
            ops.append(Op(f"equilibrium[{label},t{t:g}]",
                          _equilibrium_op(lib, system.sft, pot, phi),
                          _cold_check(ref, t)))
    return ops


def _maximize_op(lib, sft, phi):
    def run():
        r = lib.ergopt.max_ergodic_average(sft, phi)
        return r.beta, r.witness_cycle, r.critical_edges, r.ground_entropy, r.unique_flag
    return run


def _ground_check(ref):
    def check(alpha):
        problems = []
        psi_pressure = C.Ray(ref.system.transitions, ref.psi, 1).pressure(1.0)
        if alpha > psi_pressure + 1e-9:
            problems.append(f"ground bound {alpha!r} exceeds P(psi) = {psi_pressure!r}")
        if ref.unique_cycle is not None:
            expected = float(C.cycle_word_mean(ref.psi, 1, ref.unique_cycle))
            if abs(alpha - expected) > C.CLOSED_FORM_TOL * max(1.0, abs(expected)):
                problems.append(f"ground bound {alpha!r} is not the psi mean "
                                f"{expected!r} of the unique ground cycle")
        return problems
    return check


def _cold_check(ref, t):
    def check(out):
        p, residual, entropy, integral = out
        if ref.beta is None:
            return ["no verified beta for this system"]
        problems = [] if residual <= 1e-12 else [f"residual {residual!r} above 1e-12"]
        problems += C.check_entropy_range(entropy, ref.system.h_top)
        return problems + C.check_low_temperature(
            p, entropy, integral, t, float(ref.beta), ref.system.h_top)
    return check


# --- ray: intermediate-value solves and sweeps ----------------------------

def _ray(draw, lib, workdir):
    ops = []
    zero_of = {}

    def zero(system, memory):
        key = (system.label, memory)
        if key not in zero_of:
            zero_of[key] = system.potential(
                lib, {w: 0.0 for w in C.admissible_words(system.transitions, memory)}, memory)
        return zero_of[key]

    bern_sys = System(lib, "full", 2)
    bern = bern_sys.potential(lib, BERNOULLI, 1)
    golden = System(lib, "golden")
    pin0 = lib.potentials.fixed_point_potential(golden.sft, 0)
    pin0_ray = C.Ray(golden.transitions, PIN0, 2)
    full3 = System(lib, "full", 3)
    phi3_table = draw.table(full3.transitions, 2, pin=(0, 0))
    psi3_table = draw.table(full3.transitions, 1)
    phi3 = full3.potential(lib, phi3_table, 2)
    psi3 = full3.potential(lib, psi3_table, 1)
    ray3 = C.Ray(full3.transitions, phi3_table, 2, psi3_table, 1)
    rand4 = System(lib, "rand", transitions=draw.primitive(4, self_loop=True))
    phi4_table = draw.table(rand4.transitions, 2, pin=(0, 0))
    phi4 = rand4.potential(lib, phi4_table, 2)

    for t in draw.uniform(1.0, 10.0, 3):
        a = C.bernoulli_entropy(C.bernoulli_q(t))
        ops.append(Op(f"solve-entropy[bernoulli,a{a:.4g}]",
                      _solve_entropy_op(lib, bern_sys.sft, bern, a),
                      _bernoulli_check(a)))
    for t in draw.uniform(1.0, 2.5, 3):
        a = pin0_ray.psi_pressure(t)
        ops.append(Op(f"solve-entropy[golden-pin0,a{a:.4g}]",
                      _solve_entropy_op(lib, golden.sft, pin0, a),
                      lambda out, a=a: C.check_solve(out, a, pin0_ray.psi_pressure)))
    for t in draw.uniform(2.0, 4.0, 3):
        target = ray3.psi_pressure(t)
        ops.append(Op(f"solve-pressure[full3,b{target:.4g}]",
                      _solve_pressure_op(lib, full3.sft, psi3, phi3, target),
                      lambda out, b=target: C.check_solve(out, b, ray3.psi_pressure)))
    rand4_ray = C.Ray(rand4.transitions, phi4_table, 2)
    sweeps = (
        ("bernoulli", bern_sys.sft, zero(bern_sys, 1), bern,
         C.Ray(bern_sys.transitions, BERNOULLI, 1), True, SWEEP_GRID),
        ("golden-pin0", golden.sft, zero(golden, 1), pin0, pin0_ray, True, SWEEP_GRID),
        ("golden-pin0,grid2", golden.sft, zero(golden, 1), pin0, pin0_ray, True, SWEEP_GRID_2),
        ("full3", full3.sft, psi3, phi3, ray3, False, SWEEP_GRID),
        ("rand4", rand4.sft, zero(rand4, 1), phi4, rand4_ray, True, SWEEP_GRID),
        ("rand4,grid2", rand4.sft, zero(rand4, 1), phi4, rand4_ray, True, SWEEP_GRID_2),
    )
    for label, sft, psi, phi, ray, psi_zero, grid in sweeps:
        ops.append(Op(f"sweep[{label}]", _sweep_op(lib, sft, psi, phi, grid),
                      lambda out, ray=ray, z=psi_zero: C.check_sweep(out, ray, z)))

    lazy_sys = System(lib, "full", 2)
    lazy = lazy_sys.potential(lib, LAZY_CASE, 2)
    ops.append(Op("sample[lazy-phase,t10]",
                  _sample_op(lib, lazy_sys.sft, zero(lazy_sys, 2), lazy, 10.0),
                  _sample_check(C.Ray(lazy_sys.transitions, LAZY_CASE, 2), 10.0)))
    stall_sys = System(lib, "rand", transitions=STALL_TRANSITIONS)
    stall = stall_sys.potential(lib, STALL_CASE, 3)
    ops.append(Op("sample[stall,t1]",
                  _sample_op(lib, stall_sys.sft, zero(stall_sys, 3), stall, 1.0),
                  _sample_check(C.Ray(stall_sys.transitions, STALL_CASE, 3), 1.0)))
    return ops


def _report(r):
    return r.t_found, r.achieved, r.residual, r.bracket[0], r.bracket[1]


def _solve_entropy_op(lib, sft, phi, a):
    return lambda: _report(lib.paths.solve_intermediate_entropy(sft, phi, a))


def _solve_pressure_op(lib, sft, psi, phi, target):
    return lambda: _report(lib.paths.solve_intermediate_pressure(sft, psi, phi, target))


def _row(s):
    return s.t, s.pressure, s.entropy, s.phi_avg, s.psi_pressure


def _sweep_op(lib, sft, psi, phi, grid):
    return lambda: tuple(_row(s) for s in lib.paths.sweep(sft, psi, phi, grid))


def _sample_op(lib, sft, psi, phi, t):
    return lambda: _row(lib.paths.sample_at(sft, psi, phi, t))


def _sample_check(ray, t):
    def check(out):
        return C.check_sweep([out], ray, True)
    return check


def _bernoulli_check(a):
    def check(out):
        q_of = C.bernoulli_q
        problems = C.check_solve(out, a, lambda t: C.bernoulli_entropy(q_of(t)))
        expected = C.bernoulli_t_for_entropy(a)
        q = q_of(expected)
        allowed = 2 * C.SOLVER_TOL / (expected * q * (1 - q)) + 1e-9
        if abs(out[0] - expected) > allowed:
            problems.append(f"t_found {out[0]!r} against the inversion t = {expected!r}")
        return problems
    return check


# --- cli: one fresh process per command ------------------------------------

CSV_HEADER = b"t,pressure,entropy,phi_avg,psi_pressure"


def _key(word, alphabet):
    return ("," if alphabet > 10 else "").join(str(s) for s in word)


def _config(transitions, potentials):
    n = len(transitions)
    return {
        "alphabet": n,
        "transitions": np.asarray(transitions).tolist(),
        "potentials": {
            name: {"memory": memory,
                   "values": {_key(w, n): v for w, v in table.items()}}
            for name, (table, memory) in potentials.items()
        },
    }


def _cli(draw, lib, workdir):
    golden = np.array(GOLDEN)
    phi_a = draw.table(golden, 2)
    psi_a = draw.table(golden, 1)
    big = draw.primitive(12)
    phi_b = draw.table(big, 2)
    psi_b = draw.table(big, 1)
    path_a = workdir / "golden.json"
    path_b = workdir / "alphabet12.json"
    path_a.write_text(json.dumps(_config(golden, {
        "pin0": (PIN0, 2), "phi": (phi_a, 2), "psi": (psi_a, 1)})))
    path_b.write_text(json.dumps(_config(big, {"phi": (phi_b, 2), "psi": (psi_b, 1)})))
    a, b = str(path_a), str(path_b)

    pin0_ray = C.Ray(golden, PIN0, 2)
    ray_a = C.Ray(golden, phi_a, 2, psi_a, 1)
    entropy_target = round(pin0_ray.psi_pressure(draw.uniform(0.5, 4.0)), 6)
    pressure_target = round(ray_a.psi_pressure(draw.uniform(1.0, 6.0)), 6)
    steps = 21
    commands = (
        (["entropy", a], lambda d: C.check_closed_form(
            d["entropy_nats"], C.GOLDEN_ENTROPY, "golden-mean entropy")),
        (["pressure", b, "--phi", "phi"], lambda d: C.check_pressure(
            d["pressure_nats"], C.Ray(big, phi_b, 2).pressure(1.0))),
        (["equilibrium", a, "--phi", "phi"], _cli_equilibrium_check(C.Ray(golden, phi_a, 2))),
        (["maximize", b, "--phi", "phi"], _cli_maximize_check(big, phi_b, 2)),
        (["path", a, "--phi", "pin0", "--csv", "--t-max", "10", "--steps", str(steps)],
         _cli_path_check(pin0_ray, steps)),
        (["solve-entropy", a, "--phi", "pin0", "--target", repr(entropy_target)],
         lambda d: C.check_solve(_cli_report(d), entropy_target, pin0_ray.psi_pressure)),
        (["solve-pressure", a, "--phi", "phi", "--psi", "psi", "--target", repr(pressure_target)],
         lambda d: C.check_solve(_cli_report(d), pressure_target, ray_a.psi_pressure)),
        (["check", a, "--t-max", "2", "--steps", "5"],
         lambda d: [] if d["ok"] is True else ["built-in checks failed"]),
    )
    ops = []
    for argv, check in commands:
        ops.append(Op(f"cli[{argv[0]},{argv[1].rsplit('/', 1)[-1]}]",
                      _cli_op(argv), _cli_check(argv, check), argv))
    return ops


def _cli_op(argv):
    command = [sys.executable, "-m", "thermoshift", *argv]

    def run():
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return done.returncode, done.stdout
    return run


def _cli_check(argv, check):
    def run_check(out):
        code, stdout = out
        if code != 0:
            return [f"exit code {code}"]
        if argv[0] == "path":
            return check(stdout)
        return check(json.loads(stdout))
    return run_check


def _cli_report(d):
    return d["t_found"], d["achieved"], d["residual"], d["bracket"][0], d["bracket"][1]


def _cli_equilibrium_check(ray):
    def check(d):
        p, h = d["pressure_nats"], d["entropy_nats"]
        problems = C.check_pressure(p, ray.pressure(1.0))
        problems += C.check_slope(p - h, ray.slope(1.0))
        if abs(sum(d["stationary"]) - 1.0) > 1e-12:
            problems.append("stationary vector does not sum to 1")
        if any(abs(sum(row) - 1.0) > 1e-12 for row in d["kernel"]):
            problems.append("kernel is not row-stochastic")
        return problems
    return check


def _cli_maximize_check(transitions, table, memory):
    def check(d):
        n = len(transitions)
        parse = (lambda s: tuple(int(x) for x in s.split(","))) if n > 10 else \
            (lambda s: tuple(int(x) for x in s))
        witness = tuple(parse(s) for s in d["witness_cycle"])
        mean = float(C.cycle_word_mean(table, memory, witness))
        return [] if mean == d["beta"] else [f"witness mean {mean!r} is not beta {d['beta']!r}"]
    return check


def _cli_path_check(ray, steps):
    def check(stdout):
        lines = stdout.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return [f"CSV header {lines[:1]!r}"]
        rows = [tuple(float(x) for x in line.split(b",")) for line in lines[1:]]
        if len(rows) != steps:
            return [f"{len(rows)} CSV rows, expected {steps}"]
        return C.check_sweep(rows, ray, True)
    return check
