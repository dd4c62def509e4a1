"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x for minutes at a time, so raw wall times of the same code spread more
between runs than any useful regression bound. The measuring worker
therefore interleaves its ops with a fixed piece of reference work that does
not touch mlestep, with one BLAS thread: a pure-Python arithmetic loop,
string formatting and small dense solves, about a third of the time each.
Kernels of one kind track the host badly, because slowdowns of different
character come and go: in two runs of several minutes each, interleaving
candidate kernels with ops of every workload on a shared 2-vCPU host, the
log-time of the small solves alone moved 1.1x as much as simulate's in one
and 1.3x as much as every op's in the other, while this mix moved with each
op at a slope of 0.96 to 1.12 and a residual standard deviation over ~8 s
windows of 0.04 (long_chain) to 0.09 (twostep_paths).

Times are reported in reference seconds: wall seconds scaled by NOMINAL_S
over the reference work's time next to them, i.e. as they would read on a
host where the reference work takes NOMINAL_S (a fixed constant, of the
order of its time on a 2-vCPU x86-64 cloud VM; each run's record keeps the
wall times and the reference times). A change to mlestep moves these times
in the same proportion as it moves wall times; a change of host speed moves
the ops and the reference work alike and cancels.
"""

import time

import numpy as np

NOMINAL_S = 0.05

_rng = np.random.default_rng(20160130)
_MATRIX = _rng.random((48, 48)) + 48.0 * np.eye(48)
_RHS = _rng.random(48)
_LOOP_STEPS = 300_000
_ROWS = 12_000
_SOLVES = 700


def _reference_work() -> None:
    acc = 0.0
    for i in range(_LOOP_STEPS):
        acc += i * 0.5
    "\n".join(f"{i},{i * 0.37:.17g},{acc * 1e-9:.17g}" for i in range(_ROWS))
    for _ in range(_SOLVES):
        np.linalg.solve(_MATRIX, _RHS)


def reference_s() -> float:
    """Wall time of one run of the reference work."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0
