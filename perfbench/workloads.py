"""The benchmark's workloads.

Each workload makes its inputs from the seed alone, runs one operation at a
time through mlestep's public functions (a closed loop with one client), and
checks every output against an independent recomputation, with a tolerance
rather than a digest so that a change of the information oracle or of the
summation order does not read as a failure.

Operations resolve mlestep functions as module attributes at call time, so a
tracer installed on those attributes sees them. An operation of several
steps calls the ``pause`` it is given between them, and the loop times the
host's speed there. Checks run with the tracer suspended and are not part of
an operation's latency.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

cli = importlib.import_module("mlestep.cli")
mc = importlib.import_module("mlestep.mc")
models = importlib.import_module("mlestep.models")
preliminary = importlib.import_module("mlestep.preliminary")
process = importlib.import_module("mlestep.process")
simulate = importlib.import_module("mlestep.simulate")

QUANTILE_LEVELS = (5, 25, 50, 75, 95)


def _same(actual, expected, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(np.allclose(actual, expected, rtol=rtol, atol=atol))


class McCompare:
    """compare_estimators on example2 (theta0=0.5, n=1e4) over the three
    pipelines of test_efficiency_ordering_example2; one op is one call on a
    fresh block of seeds.

    Chosen because simulate is about 80% of each replication (every pipeline
    re-simulates the same seeds), so a batched or common-random-numbers
    engine shows here, and the information oracle shows in set-up; fisher
    does almost no work here, and density and cli none.
    """

    name = "mc_compare"
    unit = "replications"
    cycle = 1
    THETA0 = 0.5
    DELTA = 0.75
    GRID_POINTS = 512
    # (preliminary, process, information method)
    PIPELINES = (
        ("emm", "none", "observed"),
        ("mle", "one-step", "factorized"),
        ("mle", "full-mle", "observed"),
    )

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.n = 1_000 if smoke else 10_000
        self.seeds_per_op = 2 if smoke else 4
        # None runs the oracle at its default length
        self.oracle_length = 20_000 if smoke else None
        # the direct recomputation costs about half an op, so spot-check;
        # odd, so that traced and untraced ops are both checked
        self.check_every = 3
        self.seed_origin = int(np.random.default_rng(seed).integers(0, 2**31))
        self.units_per_op = self.seeds_per_op * len(self.PIPELINES)

    def sizes(self) -> dict:
        return {
            "model": "example2", "theta0": self.THETA0, "n": self.n, "delta": self.DELTA,
            "seeds_per_op": self.seeds_per_op, "pipelines": len(self.PIPELINES),
            "oracle_length": self.oracle_length, "check_every": self.check_every,
        }

    def setup(self) -> None:
        model = models.get_model("example2")
        extra = () if self.oracle_length is None else (self.oracle_length,)
        info = mc.oracle_information(model, self.THETA0, *extra)
        self.reference = tuple(tuple(row) for row in info.matrix.tolist())

    def _block(self, i: int) -> int:
        return self.seed_origin + i * self.seeds_per_op

    def op(self, i: int, pause):
        cfgs = [
            mc.McConfig(
                "example2", self.THETA0, self.n, self.DELTA,
                preliminary=prelim, process=proc, fisher_method=fisher,
                replications=self.seeds_per_op, base_seed=self._block(i),
                grid_points=self.GRID_POINTS, reference_information=self.reference,
            )
            for prelim, proc, fisher in self.PIPELINES
        ]
        return mc.compare_estimators(cfgs, workers=1)

    def _direct_terminals(self, seed: int) -> dict:
        """simulate -> preliminary -> process for one seed, without run_study."""
        model = models.get_model("example2")
        traj = simulate.simulate(model, self.THETA0, self.n, seed=seed)
        N = preliminary.learning_length(self.n, self.DELTA)
        prelim = preliminary.mle(traj, N, model, self.GRID_POINTS)
        return {
            "emm+none": preliminary.emm(traj, N, model).theta,
            "mle+one-step": process.one_step_path(
                traj, model, prelim, "factorized", stride=self.n
            ).terminal,
            "mle+full-mle": process.full_mle_path(
                traj, model, self.GRID_POINTS, [self.n]
            ).terminal,
        }

    def check(self, i: int, rows) -> int:
        """Failed replications: those a study dropped, plus every replication
        of a pipeline whose summary disagrees with the direct recomputation."""
        failed = sum(self.seeds_per_op - row["replications_used"] for row in rows)
        if i % self.check_every:
            return failed
        base = self._block(i)
        direct = [self._direct_terminals(base + k) for k in range(self.seeds_per_op)]
        for row in rows:
            terminals = np.array([d[row["pipeline"]] for d in direct])
            errors = np.sqrt(self.n) * (terminals - self.THETA0)
            variance = np.atleast_2d(np.cov(errors, rowvar=False))
            quantiles = [np.percentile(errors, p, axis=0) for p in QUANTILE_LEVELS]
            ok = row["replications_used"] == self.seeds_per_op and _same(row["variance"], variance)
            ok = ok and all(
                _same(row["quantiles"][p], q) for p, q in zip(QUANTILE_LEVELS, quantiles)
            )
            if not ok:
                failed += self.seeds_per_op
        return min(failed, self.units_per_op)


class TwostepPaths:
    """Stride-1 two_step_path requests (the CLI default for n <= 1e4) on
    pre-simulated example1 (theta=2.5) and example2 (theta=0.5) trajectories
    of a few thousand transitions with the short learning interval
    delta=0.375, cycling through the preliminaries and information methods,
    and after each cycle to the next of CHAINS trajectories per model.

    Chosen because the cost is O(n*|ks|) in likelihood and fisher, and the
    factorized requests are slower only because noise_information runs a
    quadrature on every call, so a noise_information cache and a single
    eigen-decomposition show here, while simulate does no timed work.
    """

    name = "twostep_paths"
    unit = "requests"
    DELTA = 0.375
    THETA = {"example1": 2.5, "example2": 0.5}
    # (model, preliminary, information method). The observed information is
    # left out: on windows of a few dozen transitions the negative Hessian is
    # often not positive definite, and two_step_path then refuses the request
    # by design (DegenerateInformationError near k = N+1 for 12 of 30
    # example1 seeds, and for some example2 seeds). A third of the requests
    # are factorized, which costs about 3x a plugin request, so the median op
    # stays among the plugin requests and the 90th percentile among the
    # factorized ones rather than falling between the two.
    REQUESTS = (
        ("example1", "mle", "plugin"),
        ("example1", "bayes", "factorized"),
        ("example1", "emm", "plugin"),
        ("example2", "mle", "factorized"),
        ("example2", "bayes", "plugin"),
        ("example2", "emm", "plugin"),
    )
    cycle = len(REQUESTS)
    # the check recomputes every CHECK_STRIDE-th estimate on its own
    CHECK_STRIDE = 97
    # The cost of a request depends on its chain (the quadrature of a
    # factorized request adapts to the estimates), so a run cycles through
    # several chains per model rather than timing one.
    CHAINS = 8

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.n = 200 if smoke else 2_000
        rng = np.random.default_rng(seed)
        self.chain_seeds = {
            name: [int(x) for x in rng.integers(0, 2**31, size=self.CHAINS)] for name in self.THETA
        }
        self.units_per_op = 1

    def sizes(self) -> dict:
        return {
            "n": self.n, "delta": self.DELTA, "stride": 1, "chains_per_model": self.CHAINS,
            "requests_per_cycle": self.cycle, "check_stride": self.CHECK_STRIDE,
        }

    def setup(self) -> None:
        self.inputs = {}
        for name, theta in self.THETA.items():
            model = models.get_model(name)
            self.inputs[name] = [
                (model, simulate.simulate(model, theta, self.n, seed=seed))
                for seed in self.chain_seeds[name]
            ]

    def _input(self, i: int):
        name, prelim_kind, fisher = self.REQUESTS[i % self.cycle]
        model, traj = self.inputs[name][(i // self.cycle) % self.CHAINS]
        return model, traj, prelim_kind, fisher

    def op(self, i: int, pause):
        model, traj, prelim_kind, fisher = self._input(i)
        N = preliminary.learning_length(traj.n, self.DELTA)
        prelim = getattr(preliminary, prelim_kind)(traj, N, model)
        return prelim, process.two_step_path(traj, model, prelim, fisher, 1)

    def check(self, i: int, output) -> int:
        """A stride-1 path, subsampled, must equal the stride-s path."""
        prelim, path = output
        model, traj, _, fisher = self._input(i)
        N = prelim.learning_length
        coarse = process.two_step_path(traj, model, prelim, fisher, self.CHECK_STRIDE)
        ok = np.array_equal(path.ks, np.arange(N + 1, traj.n + 1))
        ok = ok and _same(path.thetas[coarse.ks - (N + 1)], coarse.thetas)
        return 0 if ok else 1


class LongChain:
    """One long example2 chain (n=1e5) per op, driven through cli.main into a
    fresh directory: simulate --format json, estimate --process recurrent,
    estimate --process one-step --stride 1, kde.

    Chosen because simulate runs one long scalar chain rather than many
    short ones and process runs the online O(1)-per-step recursion rather
    than per-k re-estimation, and because it is the only workload for
    density, cli and file I/O.
    """

    name = "long_chain"
    unit = "sessions"
    cycle = 1
    THETA0 = 0.5
    DELTA = 0.75  # the CLI default

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.n = 2_000 if smoke else 100_000
        self.seed_origin = int(np.random.default_rng(seed).integers(0, 2**31))
        self.workdir = workdir
        self.units_per_op = 1
        self.bytes_written = 0

    def sizes(self) -> dict:
        return {"model": "example2", "theta0": self.THETA0, "n": self.n, "commands_per_op": 4}

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._devnull = open(os.devnull, "w")

    def close(self) -> None:
        if hasattr(self, "_devnull"):
            self._devnull.close()

    def _files(self, i: int) -> dict:
        d = self.workdir / f"op{i}"
        return {
            "dir": d,
            "trajectory": d / "trajectory.json",
            "recurrent": d / "recurrent.csv",
            "one_step": d / "one_step.csv",
            "density": d / "density.csv",
        }

    def op(self, i: int, pause):
        f = self._files(i)
        f["dir"].mkdir()
        trajectory = str(f["trajectory"])
        commands = (
            ["simulate", "--model", "example2", "--theta", str(self.THETA0), "--n", str(self.n),
             "--seed", str(self.seed_origin + i), "--format", "json", "--out", trajectory],
            ["estimate", "--input", trajectory, "--process", "recurrent",
             "--out", str(f["recurrent"])],
            ["estimate", "--input", trajectory, "--process", "one-step", "--stride", "1",
             "--out", str(f["one_step"])],
            ["kde", "--input", trajectory, "--out", str(f["density"])],
        )
        # the commands print one JSON line each; keep the result line alone
        for step, argv in enumerate(commands):
            if step:
                pause()
            with contextlib.redirect_stdout(self._devnull):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"mlestep {' '.join(argv)} failed")
        return f

    def check(self, i: int, f) -> int:
        """Recurrent CSV equals the batch second-preliminary path within 1e-10
        (criterion 4); the one-step terminal matches a direct recomputation;
        the density has mass ~1; the first op's chain matches simulate()."""
        try:
            traj = simulate.read_trajectory_json(f["trajectory"])
            model = models.get_model(traj.model_name)
            ok = traj.n == self.n and traj.seed == self.seed_origin + i
            if i == 0:
                direct = simulate.simulate(model, self.THETA0, self.n, seed=traj.seed)
                ok = ok and _same(traj.observations, direct.observations, rtol=0.0)
            N = preliminary.learning_length(traj.n, self.DELTA)
            prelim = preliminary.mle(traj, N, model)
            batch = process.second_preliminary_path(traj, model, prelim, "observed", stride=1)
            rec = np.loadtxt(f["recurrent"], delimiter=",", skiprows=2, usecols=(0, 2), ndmin=2)
            ok = ok and np.array_equal(rec[:, 0], batch.ks)
            ok = ok and _same(rec[:, 1], batch.thetas[:, 0], rtol=0.0, atol=1e-10)
            one_step = process.one_step_path(traj, model, prelim, "observed", stride=traj.n)
            summary = json.loads(f["one_step"].with_suffix(".summary.json").read_text())
            ok = ok and _same(summary["terminal"], one_step.terminal, rtol=0.0, atol=1e-10)
            density = np.loadtxt(f["density"], delimiter=",", skiprows=2, ndmin=2)
            mass = float(np.trapezoid(density[:, 1], density[:, 0]))
            ok = ok and abs(mass - 1.0) < 1e-3
            self.bytes_written += sum(p.stat().st_size for p in f["dir"].iterdir())
        finally:
            shutil.rmtree(f["dir"], ignore_errors=True)
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (McCompare, TwostepPaths, LongChain)}
