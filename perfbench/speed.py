"""Host speed probes, and scaling of measured times to a reference speed.

The hosts this benchmark runs on are shared: the same single-threaded
code runs about 1.6 times slower in some stretches than in others, and
a stretch can last longer than a whole run.  A median over passes
cannot remove that, so every time is scaled by the speed the host shows
at that moment.  Just before each operation, outside its timed region, a
probe is timed, and

    scaled = measured * reference / median(the probes around the operation)

``probe`` times a fixed numpy kernel the program never calls, for code
that runs in this process; ``child_probe`` times a fresh interpreter
importing numpy, for the cli children and the set-up and import figures,
whose process start-up and imports slow down differently.  Each
reference is a typical time of its probe on the reference host (see
README.md), so scaled figures read close to that host's wall-clock
figures.  The unscaled figures are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

REFERENCE_S = 4.0e-4
CHILD_REFERENCE_S = 0.15
WINDOW = 2  # probes on each side of an operation in the rolling median


def _kernel():
    # numpy is imported here, not at module level, so that importing this
    # module does not shorten the program's own timed import of numpy
    import numpy as np

    x = np.linspace(-1.0, 1.0, 144).reshape(12, 12)
    for _ in range(30):
        z = x - x.max(axis=1, keepdims=True)
        x = np.log(np.exp(z).sum(axis=1, keepdims=True)) + z
    return x


def probe():
    """Seconds the kernel takes now; the first, cache-warming run is
    not timed."""
    _kernel()
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def child_probe():
    """Seconds a fresh interpreter takes to start and import numpy: the
    probe for work done in child processes and fresh interpreters, whose
    start-up and imports slow down differently from in-process code."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - start


def scale(times, probes, reference=REFERENCE_S):
    """Scale each time by the rolling median of the probes around it."""
    out = []
    for k, t in enumerate(times):
        near = probes[max(0, k - WINDOW): k + WINDOW + 1]
        out.append(t * reference / statistics.median(near))
    return out
