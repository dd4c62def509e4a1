"""One benchmark process: set-up, then a closed loop of timed operations.

Started by run.py, which times its set-up from outside. It prints a ready
line when set-up is done and, unless started with --setup-only, one JSON
line with the loop's result and the environment record when it ends.
"""

import os

# one BLAS thread, pinned before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
READY = "perfbench-ready"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mlestep  # noqa: E402

if not Path(mlestep.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: mlestep was imported from {mlestep.__file__}, not from {SRC}")

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


class Loop:
    """Closed loop: the next op starts when the previous one and its check
    have finished. Runs whole cycles of the workload's request mix until
    ``seconds`` have passed, so every run sees the same mix.

    With a tracer, cycles alternate untraced and traced, so both halves see
    the same machine conditions; spans and counters come from the traced
    cycles, and the ratio of the two work rates is the tracing overhead.

    Times are given in reference seconds (see calibrate.py). The reference
    work runs three times before the loop and after every step of an op (an
    op of several steps calls the pause it is given between them), as many
    times as it takes to fill a fifth of the step's wall time and at least
    once. Each step's wall time is scaled by NOMINAL_S over the mean
    reference time on either side of it, so that a change of host speed
    within a run, or within a long op, cancels too; an op's latency is the
    sum over its steps.
    """

    def __init__(self, workload, seconds: float, tracer=None):
        self.wall = ([], [])  # untraced, traced op wall times
        self.latencies = ([], [])  # the same in reference seconds
        # reference times, one list before the loop and one after each step
        self.reference = [[calibrate.reference_s() for _ in range(3)]]
        self.completed = [0, 0]
        self.attempted = 0
        self.failed = 0
        self.traced_bytes = 0
        wl = workload
        start = time.perf_counter()
        i = 0
        while True:
            traced = tracer is not None and (i // wl.cycle) % 2 == 1
            bytes_before = getattr(wl, "bytes_written", 0)
            with tracer.installed() if traced else contextlib.nullcontext():
                for _ in range(wl.cycle):
                    self._op(wl, i, traced, tracer)
                    i += 1
            if traced:
                self.traced_bytes += getattr(wl, "bytes_written", 0) - bytes_before
            if time.perf_counter() - start >= seconds and (tracer is None or traced):
                break

    def _op(self, wl, i: int, traced: bool, tracer) -> None:
        wall, latency = 0.0, 0.0
        step_start = time.perf_counter()

        def pause() -> None:
            nonlocal wall, latency, step_start
            step = time.perf_counter() - step_start
            after = []
            with tracer.suspended() if traced else contextlib.nullcontext():
                while sum(after) < 0.2 * step or not after:
                    after.append(calibrate.reference_s())
            reference = statistics.mean(self.reference[-1] + after)
            self.reference.append(after)
            wall += step
            latency += step * calibrate.NOMINAL_S / reference
            step_start = time.perf_counter()

        try:
            output = wl.op(i, pause)
        except Exception:
            traceback.print_exc()
            output = None
        pause()
        self.wall[traced].append(wall)
        self.latencies[traced].append(latency)
        bad = wl.units_per_op
        if output is not None:
            with tracer.suspended() if traced else contextlib.nullcontext():
                try:
                    bad = wl.check(i, output)
                except Exception:
                    traceback.print_exc()
        self.attempted += wl.units_per_op
        self.failed += bad
        self.completed[traced] += wl.units_per_op - bad

    def ops(self, traced: bool = False) -> int:
        return len(self.latencies[traced])

    def scale(self) -> float:
        """Reference seconds per wall second over the whole run."""
        return calibrate.NOMINAL_S / statistics.mean(sum(self.reference, []))

    def work_per_s(self, traced: bool = False) -> float:
        """Work completed per reference second of op time."""
        return self.completed[traced] / sum(self.latencies[traced])


def end_to_end_metrics(loop: Loop) -> dict:
    lat = np.asarray(loop.latencies[False])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "work_per_s": {"value": loop.work_per_s(), "unit": "1/s"},
        "op_p50_s": {"value": float(np.percentile(lat, 50)), "unit": "s"},
        "op_p90_s": {"value": float(np.percentile(lat, 90)), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = BENCH / "out" / f"work-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    setup_tracer = spans.Tracer()
    try:
        if args.trace:
            with setup_tracer.installed():
                wl.setup()
        else:
            wl.setup()
        print(READY, flush=True)
        if args.setup_only:
            return 0

        if args.trace:
            tracer = spans.Tracer()
            loop = Loop(wl, args.seconds, tracer)
            metrics = spans.per_layer_metrics(
                tracer, setup_tracer, loop.ops(traced=True), loop.traced_bytes,
                loop.work_per_s(traced=False), loop.work_per_s(traced=True),
            )
            tracer.dump(BENCH / "out" / f"spans-{args.workload}.npz")
        else:
            loop = Loop(wl, args.seconds)
            metrics = end_to_end_metrics(loop)
    finally:
        if hasattr(wl, "close"):
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "unit_of_work": wl.unit,
        "sizes": wl.sizes(),
        "ops": {"untraced": loop.ops(), "traced": loop.ops(traced=True)},
        "latencies_s": {"untraced": loop.latencies[False], "traced": loop.latencies[True]},
        "wall_latencies_s": {"untraced": loop.wall[False], "traced": loop.wall[True]},
        "reference_nominal_s": calibrate.NOMINAL_S,
        "reference_s": loop.reference,
        "reference_scale": loop.scale(),
        "environment": environment(),
    }
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps({"record": record, "result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
