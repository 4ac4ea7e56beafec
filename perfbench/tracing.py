"""Per-layer spans and counts, recorded from outside the program.

The tracer wraps the names each thermoshift module imports from the
layer below (``thermoshift.transfer.power_log_perron``,
``thermoshift.paths.pressure_and_equilibrium``, ...) and the module
attributes the benchmark itself calls.  Each wrapped call records a span
(layer, start, end, parent) in memory; ``install`` returns a function
that puts every original back.  No file of the program changes.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (layer, attribute, modules whose binding of that attribute is wrapped)
_CALLERS = ("transfer", "ergopt", "paths", "cli")
PATCHES = (
    ("sft.build", "full_shift", ("sft",)),
    ("sft.build", "golden_mean_shift", ("sft",)),
    ("sft.build", "build_sft", ("sft", "config")),
    ("sft.entropy", "topological_entropy", _CALLERS),
    ("potentials.combine", "combine", _CALLERS),
    ("edgegraph", "build_edge_graph", ("transfer", "ergopt")),
    ("perron", "power_log_perron", ("transfer",)),
    ("maxplus", "analyze", ("maxplus",)),
    ("transfer", "pressure", _CALLERS),
    ("transfer", "pressure_and_equilibrium", _CALLERS),
    ("transfer", "equilibrium_state", _CALLERS),
    ("transfer.integrate", "integrate", _CALLERS),
    ("ergopt", "max_ergodic_average", _CALLERS),
    ("ergopt", "ground_state_pressure_bound", _CALLERS),
    ("paths", "sample_at", ("paths",)),
    ("paths", "sweep", ("paths", "cli")),
    ("paths", "solve_intermediate_entropy", ("paths", "cli")),
    ("paths", "solve_intermediate_pressure", ("paths", "cli")),
    ("config.parse", "parse_config", ("cli",)),
    ("cli.run_command", "run_command", ("cli",)),
)

# Layers whose spans contain spans of other layers: report self time.
SELF_TIMED = ("transfer", "ergopt", "paths")


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, attribute]
        self.counts = {
            "perron.iterations": 0,
            "perron.iterations_max": 0,
            "perron.failed": 0,
            "maxplus.states_max": 0,
        }
        self._stack = []

    def _wrap(self, layer, attr, original):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [layer, perf_counter(), None, stack[-1] if stack else -1, attr]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                if layer == "perron":
                    counts["perron.failed"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if layer == "perron":
                counts["perron.iterations"] += result[3]
                counts["perron.iterations_max"] = max(counts["perron.iterations_max"], result[3])
            elif layer == "maxplus":
                counts["maxplus.states_max"] = max(counts["maxplus.states_max"], args[0])
            return result

        return traced

    def install(self):
        """Wrap every binding in PATCHES; returns the undo function."""
        undo = []
        for layer, attr, modules in PATCHES:
            for name in modules:
                module = importlib.import_module(f"thermoshift.{name}")
                if hasattr(module, attr):  # not every caller imports every name
                    original = getattr(module, attr)
                    setattr(module, attr, self._wrap(layer, attr, original))
                    undo.append((module, attr, original))

        def uninstall():
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)
        return uninstall

    def layer_times(self):
        """Total and self milliseconds and call count per layer."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (layer, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(layer, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["total_ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - child[k]) * 1e3
        return out

    def calls(self, attrs):
        return sum(1 for span in self.spans if span[4] in attrs)

    def metrics(self):
        times = self.layer_times()

        def get(layer, key):
            return times.get(layer, {}).get(key, 0)

        def ms(layer):
            return get(layer, "self_ms" if layer in SELF_TIMED else "total_ms")

        return {
            "config.parse_ms": ms("config.parse"),
            "sft.build_ms": ms("sft.build"),
            "sft.entropy_calls": get("sft.entropy", "calls"),
            "sft.entropy_ms": ms("sft.entropy"),
            "potentials.combine_calls": get("potentials.combine", "calls"),
            "potentials.combine_ms": ms("potentials.combine"),
            "edgegraph.build_calls": get("edgegraph", "calls"),
            "edgegraph.build_ms": ms("edgegraph"),
            "perron.solves": get("perron", "calls"),
            "perron.iterations": self.counts["perron.iterations"],
            "perron.iterations_max": self.counts["perron.iterations_max"],
            "perron.ms": ms("perron"),
            "perron.failed": self.counts["perron.failed"],
            "maxplus.analyze_calls": get("maxplus", "calls"),
            "maxplus.analyze_ms": ms("maxplus"),
            "maxplus.states_max": self.counts["maxplus.states_max"],
            "transfer.equilibria": self.calls(("pressure_and_equilibrium", "equilibrium_state")),
            "transfer.self_ms": ms("transfer"),
            "transfer.integrate_ms": ms("transfer.integrate"),
            "ergopt.self_ms": ms("ergopt"),
            "paths.solves": self.calls(("solve_intermediate_entropy", "solve_intermediate_pressure")),
            "paths.probes": self.calls(("sample_at",)),
            "paths.self_ms": ms("paths"),
        }

    def dump(self, path, extra):
        origin = min((s[1] for s in self.spans), default=0.0)
        payload = dict(extra)
        payload["layers"] = self.layer_times()
        payload["counts"] = dict(self.counts)
        payload["spans"] = [
            [layer, attr, round((start - origin) * 1e3, 6), round((end - origin) * 1e3, 6), parent]
            for layer, start, end, parent, attr in self.spans
        ]
        payload["span_fields"] = ["layer", "call", "start_ms", "end_ms", "parent"]
        path.write_text(json.dumps(payload))
