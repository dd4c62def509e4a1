"""mlestep benchmark.

    python3 perfbench/run.py --workload <mc_compare|twostep_paths|long_chain>
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a source checkout; mlestep is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json; with --trace 1 the per-layer ones, from a run that
traces every other cycle of operations. --smoke runs every workload at its
smallest size.

This launcher uses only the standard library. It starts the worker process
that measures, and, for set-up time, two more worker processes that stop
after set-up: setup_s is the median of the three, each timed from process
start to the worker's ready line and given in reference seconds with the
measuring worker's scale (see calibrate.py). Each run's environment record
is written to perfbench/out/ and to standard error.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
READY = "perfbench-ready"
WORKLOADS = ("mc_compare", "twostep_paths", "long_chain")
SETUP_SAMPLES = 3


def _run(args, setup_only: bool):
    """Run one worker to its end; return (set-up seconds, stdout after ready)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        setup_s = None
        for line in proc.stdout:
            if line.strip() == READY:
                setup_s = time.perf_counter() - started
                break
        rest = proc.stdout.read()
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if setup_s is None or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup_s, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, one set-up")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mlestep" / "__init__.py").is_file():
        print(f"error: no mlestep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    samples = 1 if args.trace or args.smoke else SETUP_SAMPLES
    try:
        setup = [_run(args, setup_only=True)[0] for _ in range(samples - 1)]
        setup_s, out = _run(args, setup_only=False)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(setup_s)

    payload = json.loads(out.strip().splitlines()[-1])
    record, result = payload["record"], payload["result"]
    scale = record["reference_scale"]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup) * scale, "unit": "s"}
    record["setup_wall_s"] = setup
    record["result"] = result
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
