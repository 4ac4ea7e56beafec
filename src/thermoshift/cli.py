"""Command-line interface: JSON config in, JSON or CSV results out.

Results go to stdout only and diagnostics to stderr only, so output can
be piped into plotting or analysis tools.  Exit codes: 0 success,
2 usage error, 3 configuration error, 4 solver domain error (target out
of range or unreachable), 5 convergence or consistency failure.

Only the layers every command uses (`config`, `errors`, `potentials` and
`sft`) are imported with this module; each command imports the rest of
what it runs when it runs, so ``entropy`` never loads `transfer`,
``maximize`` never loads `paths` and ``path`` never loads `ergopt`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from .config import SystemConfig, block_to_str, parse_config
from .errors import (
    CheckFailedError,
    ConvergenceError,
    MonotonicityError,
    ParseError,
    SolveError,
    ValidationError,
)
from .potentials import Potential, zero_potential
from .sft import topological_entropy

if TYPE_CHECKING:
    from .paths import PathSample

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_CONVERGENCE = 5

_LN2 = math.log(2.0)

CSV_HEADER = "t,pressure,entropy,phi_avg,psi_pressure"


class _UsageError(Exception):
    pass


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoshift",
        description="Pressure, equilibrium states and intermediate-value "
        "solvers on subshifts of finite type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to the JSON system configuration")
        sp.add_argument(
            "--bits",
            action="store_true",
            help="report log-based outputs in bits instead of nats",
        )
        return sp

    command("entropy", "topological entropy of the configured subshift")

    sp = command("pressure", "topological pressure of a potential")
    sp.add_argument("--phi", metavar="NAME", help="potential name (default: zero)")

    sp = command("equilibrium", "unique equilibrium state of a potential")
    sp.add_argument("--phi", metavar="NAME", help="potential name (default: zero)")

    sp = command("maximize", "maximal ergodic average and critical subgraph")
    sp.add_argument("--phi", metavar="NAME", help="potential name (default: zero)")

    sp = command("path", "sweep the ray psi + t*phi over a parameter grid")
    sp.add_argument("--phi", metavar="NAME", required=True, help="ray direction")
    sp.add_argument("--psi", metavar="NAME", help="ray start (default: zero)")
    sp.add_argument("--t-max", type=_finite_float, default=10.0, help="last grid point")
    sp.add_argument("--steps", type=int, default=101, help="number of grid points")
    sp.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")

    sp = command("solve-entropy", "find t whose equilibrium entropy hits a target")
    sp.add_argument("--phi", metavar="NAME", required=True, help="ray direction")
    sp.add_argument("--target", type=_finite_float, required=True, help="entropy target (nats)")
    sp.add_argument("--tol", type=_finite_float, default=1e-8, help="residual tolerance")

    sp = command("solve-pressure", "find t whose equilibrium psi-pressure hits a target")
    sp.add_argument("--phi", metavar="NAME", required=True, help="ray direction")
    sp.add_argument("--psi", metavar="NAME", help="reference potential (default: zero)")
    sp.add_argument("--target", type=_finite_float, required=True, help="pressure target (nats)")
    sp.add_argument("--tol", type=_finite_float, default=1e-8, help="residual tolerance")

    sp = command("check", "run built-in consistency checks on the configuration")
    sp.add_argument("--t-max", type=_finite_float, default=4.0, help="sweep extent for checks")
    sp.add_argument("--steps", type=int, default=17, help="sweep points for checks")

    return parser


def _lookup(config: SystemConfig, name: str | None) -> Potential:
    if name is None:
        return zero_potential(config.sft)
    try:
        return config.potentials[name]
    except KeyError:
        raise _UsageError(
            f"unknown potential {name!r}; config defines {sorted(config.potentials)}"
        ) from None


def _unit(value: float, bits: bool) -> float:
    return value / _LN2 if bits else value


def _sample_dict(sample: PathSample, bits: bool) -> dict:
    """A path sample in its output units; the keys are in `CSV_HEADER`
    order, so a CSV row is the values."""
    return {
        "t": sample.t,
        "pressure": _unit(sample.pressure, bits),
        "entropy": _unit(sample.entropy, bits),
        "phi_avg": _unit(sample.phi_avg, bits),
        "psi_pressure": _unit(sample.psi_pressure, bits),
    }


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_command(args: argparse.Namespace) -> tuple[str, int]:
    """Execute one parsed command; returns (stdout payload, exit code)."""
    config = parse_config(args.config)
    sft = config.sft
    bits = getattr(args, "bits", False)
    if getattr(args, "tol", 1.0) <= 0:
        raise _UsageError("--tol must be positive")
    suffix = "bits" if bits else "nats"

    if args.command == "entropy":
        value = _unit(topological_entropy(sft), bits)
        return _dump({f"entropy_{suffix}": value}), EXIT_OK

    if args.command == "pressure":
        from .transfer import pressure

        phi = _lookup(config, args.phi)
        result = pressure(sft, phi)
        return _dump(
            {
                f"pressure_{suffix}": _unit(result.value, bits),
                "residual": result.residual,
                "iterations": result.iterations,
            }
        ), EXIT_OK

    if args.command == "equilibrium":
        from .transfer import pressure_and_equilibrium

        phi = _lookup(config, args.phi)
        result, mu = pressure_and_equilibrium(sft, phi)
        return _dump(
            {
                "order": mu.order,
                "states": [block_to_str(b, sft.alphabet_size) for b in mu.states],
                "stationary": mu.stationary.tolist(),
                "kernel": mu.kernel.tolist(),
                f"entropy_{suffix}": _unit(mu.entropy, bits),
                f"pressure_{suffix}": _unit(result.value, bits),
            }
        ), EXIT_OK

    if args.command == "maximize":
        from .ergopt import max_ergodic_average

        phi = _lookup(config, args.phi)
        result = max_ergodic_average(sft, phi)
        fmt = lambda b: block_to_str(b, sft.alphabet_size)
        return _dump(
            {
                "beta": _unit(result.beta, bits),
                "witness_cycle": [fmt(b) for b in result.witness_cycle],
                "critical_edges": [[fmt(b), fmt(c)] for b, c in result.critical_edges],
                f"ground_entropy_{suffix}": _unit(result.ground_entropy, bits),
                "unique": result.unique_flag,
            }
        ), EXIT_OK

    if args.command == "path":
        from .paths import sweep

        phi = _lookup(config, args.phi)
        psi = _lookup(config, args.psi)
        samples = sweep(sft, psi, phi, _grid(args))
        if args.csv:
            lines = [CSV_HEADER]
            for s in samples:
                lines.append(",".join(f"{x:.17g}" for x in _sample_dict(s, bits).values()))
            return "\n".join(lines) + "\n", EXIT_OK
        return _dump({"samples": [_sample_dict(s, bits) for s in samples]}), EXIT_OK

    if args.command == "solve-entropy":
        from .paths import solve_intermediate_entropy

        phi = _lookup(config, args.phi)
        report = solve_intermediate_entropy(sft, phi, args.target, tol=args.tol)
        return _dump(_report_dict(report, bits)), EXIT_OK

    if args.command == "solve-pressure":
        from .paths import solve_intermediate_pressure

        phi = _lookup(config, args.phi)
        psi = _lookup(config, args.psi)
        report = solve_intermediate_pressure(sft, psi, phi, args.target, tol=args.tol)
        return _dump(_report_dict(report, bits)), EXIT_OK

    if args.command == "check":
        return _run_checks(config, args)

    raise _UsageError(f"unknown command {args.command!r}")


def _grid(args: argparse.Namespace) -> np.ndarray:
    if args.steps < 1:
        raise _UsageError("--steps must be >= 1")
    if args.t_max < 0 or (args.t_max == 0 and args.steps > 1):
        raise _UsageError("--t-max must be positive")
    return np.linspace(0.0, args.t_max, args.steps)


def _report_dict(report, bits: bool) -> dict:
    return {
        "target": _unit(report.target, bits),
        "t_found": report.t_found,
        "achieved": _unit(report.achieved, bits),
        "residual": _unit(report.residual, bits),
        "bracket": list(report.bracket),
        "iterations": report.iterations,
        "trace": [_sample_dict(s, bits) for s in report.trace],
    }


def _run_checks(config: SystemConfig, args: argparse.Namespace) -> tuple[str, int]:
    from .paths import entropy_monotonicity_check, sweep
    from .transfer import lipschitz_check, variational_identity_check

    sft = config.sft
    grid = _grid(args)
    checks = []
    names = sorted(config.potentials)

    for name in names:
        report = variational_identity_check(sft, config.potentials[name])
        checks.append(
            {"name": f"variational-identity[{name}]", "ok": report.ok, "gap": report.gap}
        )

    for a_idx, name_a in enumerate(names):
        for name_b in names[a_idx + 1 :]:
            entry = {"name": f"pressure-lipschitz[{name_a},{name_b}]"}
            try:
                report = lipschitz_check(
                    sft, config.potentials[name_a], config.potentials[name_b]
                )
                entry.update(ok=True, gap=report.pressure_gap, bound=report.sup_norm_bound)
            except CheckFailedError as exc:
                entry.update(ok=False, detail=str(exc))
            checks.append(entry)

    zero = zero_potential(sft)
    for name in names:
        phi = config.potentials[name]
        entry = {"name": f"entropy-monotone[{name}]"}
        try:
            report = entropy_monotonicity_check(sweep(sft, zero, phi, grid))
            entry.update(ok=True, max_increase=report.max_increase)
        except MonotonicityError as exc:
            entry.update(ok=False, detail=str(exc))
        checks.append(entry)

    all_ok = all(c["ok"] for c in checks)
    code = EXIT_OK if all_ok else EXIT_CONVERGENCE
    return _dump({"ok": all_ok, "checks": checks}), code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        payload, code = run_command(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolveError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except CheckFailedError as exc:
        print(f"consistency check failed: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE

    sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
