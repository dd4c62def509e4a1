"""Monte Carlo study harness for the estimator pipelines.

A study runs M independent replications of simulate -> preliminary ->
process, collects the terminal errors normalized by sqrt(n), and compares
their spread against the inverse of a reference information matrix: the
configured one, or the information tabulated by ``oracle_information``.
Replications use seeds base_seed + i, so a report is a pure function of its
configuration.

The engine simulates the seeds in blocks (see _block_bounds), each block in
one simulate_paths call, and runs every study that shares the block's
trajectories on each row before it drops the block: studies compared side
by side then simulate each seed once (common random numbers).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import MlestepError, StudyError
from .fisher import FisherMatrix, _checked, _stored_noise_information, invert_fisher
from .models import ModelSpec, _finite_reals, _require_numbers, get_model
from .process import STRIDED_PROCESSES, Pipeline
from .simulate import Trajectory, _check_chain, _write_csv, _write_json, simulate, simulate_paths

__all__ = [
    "McConfig",
    "McReport",
    "run_study",
    "compare_estimators",
    "oracle_information",
    "mc_config_from_dict",
    "report_to_json_dict",
    "write_report_json",
    "write_report_csv",
]

QUANTILE_LEVELS = (5, 25, 50, 75, 95)
# the standard normal quantiles at QUANTILE_LEVELS: the bits scipy's
# norm.ppf(levels / 100) gives, not symmetric in the last digit
_GAUSSIAN_Z = np.array([-1.6448536269514729, -0.6744897501960817, 0.0, 0.6744897501960817, 1.6448536269514722])

# a block simulates at most _BLOCK_ROWS rows together and holds at most about
# _BLOCK_BYTES of noise and states: 64 rows at n = 1e4, 10 rows at n = 1e5
_BLOCK_ROWS = 64
_BLOCK_BYTES = 16 * 2**20
# np.linalg.LinAlgError is a ValueError
_FAILURES = (MlestepError, ValueError, FloatingPointError)


@dataclass(frozen=True)
class McConfig:
    """Configuration of one Monte Carlo study; ``spec`` is its pipeline and
    ``model`` the registered model, resolved here: a worker process started
    by spawn or forkserver holds only the built-ins in its registry."""

    model_name: str
    theta0: np.ndarray
    n: int
    delta: float
    preliminary: str = Pipeline.preliminary
    process: str = Pipeline.process
    fisher_method: str = Pipeline.fisher_method
    replications: int = 300
    base_seed: int = 0
    burn_in: int = 1000
    x_init: float = 0.0
    grid_points: int = Pipeline.grid_points
    # explicit d x d reference information; skips oracle_information when set
    reference_information: tuple | None = None
    spec: Pipeline = field(init=False, repr=False, compare=False)
    model: ModelSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Pipeline and _check_chain below own the rules of the fields they take
        _require_numbers(n=self.n, replications=self.replications, base_seed=self.base_seed)
        theta0 = np.atleast_1d(_finite_reals(self.theta0, "theta0", "finite and real"))
        object.__setattr__(self, "theta0", theta0)
        if self.replications < 2:
            raise ValueError("a study needs at least 2 replications")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        # a study reads terminals only, so its batch paths emit k = n alone
        stride = self.n if self.process in STRIDED_PROCESSES else None
        object.__setattr__(self, "spec", Pipeline(
            self.delta, self.preliminary, self.process, self.fisher_method, stride,
            self.grid_points,
        ))
        self.spec.learning_length(self.n)
        model = get_model(self.model_name)
        object.__setattr__(self, "model", model)
        _check_chain(model, theta0, self.n, self.burn_in, self.x_init, "theta0")
        d = model.dim
        if self.reference_information is not None:
            what = f"a finite real {d} x {d} matrix"
            _finite_reals(self.reference_information, "reference_information", what, (d, d))
        # the checked numbers as Python int/float (the annotations are strings
        # here); only now, since an earlier int() would turn burn_in=2.5 into 2
        cast = {"int": int, "float": float}
        for f in fields(self):
            if f.type in cast:
                object.__setattr__(self, f.name, cast[f.type](getattr(self, f.name)))

    def to_json_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        payload["theta0"] = self.theta0.tolist()
        if self.reference_information is not None:
            payload["reference_information"] = np.asarray(self.reference_information).tolist()
        return payload


def mc_config_from_dict(payload: dict) -> McConfig:
    if not isinstance(payload, dict):
        raise ValueError(f"a study config must be a JSON object, got {payload!r}")
    payload = dict(payload)
    if "stride" in payload:  # older config files; a study reads terminals only
        del payload["stride"]
        warnings.warn("study config key 'stride' is deprecated and ignored", FutureWarning, 2)
    init_fields = [f for f in fields(McConfig) if f.init]
    extra = set(payload) - {f.name for f in init_fields}
    missing = [f.name for f in init_fields if f.default is MISSING and f.name not in payload]
    if extra:
        raise ValueError(f"unknown study config fields: {sorted(extra)}")
    if missing:
        raise ValueError(f"study config lacks required fields: {missing}")
    return McConfig(**payload)


@dataclass(frozen=True)
class McReport:
    """Aggregate result of a Monte Carlo study."""

    config: McConfig
    terminal_errors: np.ndarray
    empirical_covariance: np.ndarray
    reference_information_inverse: np.ndarray
    quantiles: dict
    seeds: np.ndarray
    failures: tuple = field(default_factory=tuple)

    @property
    def replications_used(self) -> int:
        return self.terminal_errors.shape[0]

    @property
    def mean_error(self) -> np.ndarray:
        """Mean of the sqrt(n)-scaled terminal errors e, shape (d,)."""
        return self.terminal_errors.mean(axis=0)

    @property
    def mse(self) -> np.ndarray:
        """Mean of e e^T over the sqrt(n)-scaled terminal errors, shape (d, d):
        the covariance plus the squared bias, so a biased study shows here."""
        errors = self.terminal_errors
        return errors.T @ errors / errors.shape[0]


def oracle_information(model: ModelSpec, theta0, n_oracle=None) -> FisherMatrix:
    """The information I(theta0) = I_g E[dS dS^T(theta0, X)], X under the
    chain's invariant law, tabulated from the invariant-density equation.

    A Nystrom solve (_stationary) on a graded grid of half-width L: L starts
    at 12 sigma, sigma the noise support's width / 24 (1 for the standard
    normal), and doubles, at most 5 times, until I moves by less than 1e-6
    relative and the mass beyond the half-window before is below 1e-6. A law
    the grid cannot resolve raises MlestepError naming the model and L: I
    unsettled after 5 doublings, a mass beyond the half-window before that
    is above 1e-6 and no smaller than at the doubling before (a transient
    law), or a stationary vector that is not finite and nonnegative.
    ``n_oracle`` is deprecated and ignored.
    """
    if n_oracle is not None:
        _require_numbers(n_oracle=n_oracle)
        warnings.warn("oracle_information's n_oracle is deprecated and ignored", FutureWarning, 2)
    theta0 = _check_chain(model, theta0, 1, 0, 0.0, "theta0")
    noise_info = _stored_noise_information(model.noise)
    where = f"the invariant law of model {model.name!r} at theta0={theta0.tolist()}"
    lo, hi = model.noise.support
    sigma = (hi - lo) / 24.0
    # the first grid is centred at 0, the later ones at its mean, so that the
    # fine part of the grid covers the law's centre wherever theta0 puts it
    centre, half, info, tail = 0.0, 6.0 * sigma, None, np.inf
    for _ in range(6):
        half *= 2.0
        x, q = _stationary(model, theta0, centre, half, sigma)
        # q sums to 1: an entry below -1e-12 is no rounding
        if not (np.isfinite(q).all() and q.min() >= -1e-12):
            raise MlestepError(f"{where} gives a stationary vector that is not finite and "
                               f"nonnegative on the half-window {half:g}")
        previous, previous_tail = info, tail
        with np.errstate(all="ignore"):
            grad = model.drift.dS(theta0, x)
            info = noise_info * np.einsum("j,ja,jb->ab", q, grad, grad)
        if previous is None:
            centre = float(q @ x)
            continue
        tail = q[np.abs(x - centre) > 0.5 * half].sum()
        if np.abs(info - previous).max() <= 1e-6 * np.abs(info).max() and tail <= 1e-6:
            return _checked(info, "oracle")
        if tail > 1e-6 and tail >= previous_tail:
            break
    raise MlestepError(f"{where} is not resolved by the half-window {half:g}: the "
                       "information or the mass beyond the window before has not settled")


def _stationary(model: ModelSpec, theta0: np.ndarray, centre: float, half: float, sigma: float):
    """The nodes x and the stationary vector q (sum 1) of the chain on a grid
    over [centre - half, centre + half]: x = centre + h_inf u - (h_inf - h_0)
    a tanh(u / a) at integer u, spaced h_0 = 0.06 sigma at the centre and
    h_inf = 0.3 sigma in the tails, with weights w = dx/du. The kernel
    P_ij = w_i g(x_i - S(theta0, x_j)), its columns normalised, has q as the
    solution of (P - 1) q = 0 with its first row replaced by sum(q) = 1, NaN
    where the kernel is not finite."""
    fine, coarse, bend = 0.06 * sigma, 0.3 * sigma, 6.0
    steps = int(np.ceil((half + (coarse - fine) * bend) / coarse))
    u = np.arange(-steps, steps + 1, dtype=float)
    x = centre + coarse * u - (coarse - fine) * bend * np.tanh(u / bend)
    with np.errstate(all="ignore"):
        kernel = model.noise.g(x[:, np.newaxis] - model.drift.S(theta0, x))
        kernel *= (fine + (coarse - fine) * np.tanh(u / bend) ** 2)[:, np.newaxis]
        kernel /= kernel.sum(axis=0)
    kernel[np.diag_indices(x.size)] -= 1.0
    kernel[0] = 1.0
    rhs = np.zeros(x.size)
    rhs[0] = 1.0
    return x, np.linalg.solve(kernel, rhs)


def _replicate(cfg: McConfig, traj: Trajectory, model: ModelSpec) -> np.ndarray:
    """One replication: the terminal estimate of cfg's pipeline on traj."""
    prelim, path = cfg.spec.run(traj, model)
    return prelim.theta if path is None else path.terminal


def _outcome(fn, *args, **kwargs) -> tuple:
    """(value, None), or (None, message) when fn fails."""
    try:
        return fn(*args, **kwargs), None
    except _FAILURES as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _run_block(cfgs: tuple, start: int, stop: int) -> list[list[tuple]]:
    """Outcomes of replications start..stop-1 for each study of a group.

    The group shares its trajectories (see _trajectory_key), so the block is
    simulated once. If any row fails, the block is simulated again seed by
    seed, so that only the failing rows fail, with simulate's message.
    """
    head = cfgs[0]
    model = head.model
    seeds = [int(head.base_seed + i) for i in range(start, stop)]
    sim = dict(burn_in=head.burn_in, x_init=head.x_init)
    try:
        rows = simulate_paths(model, head.theta0, head.n, seeds, **sim)
    except _FAILURES:
        trajs = [_outcome(simulate, model, head.theta0, head.n, seed, **sim) for seed in seeds]
    else:
        trajs = [
            (Trajectory(row, head.theta0, seed, head.burn_in, model.name, head.x_init), None)
            for seed, row in zip(seeds, rows)
        ]
    return [
        [(None, fail) if traj is None else _outcome(_replicate, cfg, traj, model)
         for traj, fail in trajs]
        for cfg in cfgs
    ]


def _trajectory_key(cfg: McConfig) -> tuple:
    """Studies with equal keys simulate exactly the same trajectories."""
    return (
        cfg.model_name, cfg.theta0.tobytes(), cfg.n, cfg.base_seed, cfg.replications,
        cfg.burn_in, cfg.x_init,
    )


def _block_bounds(cfg: McConfig, workers: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of cfg's replications, rows spread evenly.

    A block has at most _BLOCK_ROWS rows and _BLOCK_BYTES of noise and states
    (one row at least). With several workers the block count is rounded up to
    a multiple of the worker count, so each process runs an equal share.
    """
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (16 * (cfg.burn_in + cfg.n + 1))))
    count = -(-cfg.replications // rows)
    count = min(cfg.replications, -(-count // workers) * workers)
    edges = [cfg.replications * j // count for j in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _run_replications(cfgs: Sequence[McConfig], workers: int) -> list[list[tuple]]:
    """Per study, the (terminal or None, failure message or None) of each
    replication. The result does not depend on the worker count."""
    groups: dict = {}
    for index, cfg in enumerate(cfgs):
        groups.setdefault(_trajectory_key(cfg), []).append(index)
    jobs, owners = [], []
    for members in groups.values():
        for start, stop in _block_bounds(cfgs[members[0]], workers):
            jobs.append((tuple(cfgs[i] for i in members), start, stop))
            owners.append(members)
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_run_block, *zip(*jobs)))
    else:
        blocks = [_run_block(*job) for job in jobs]
    outcomes: list[list[tuple]] = [[] for _ in cfgs]
    for members, block in zip(owners, blocks):
        for index, rows in zip(members, block):
            outcomes[index].extend(rows)
    return outcomes


def _quantile_table(errors: np.ndarray, ref_inv: np.ndarray) -> dict:
    sd = np.sqrt(np.diag(ref_inv))
    empirical = np.percentile(errors, QUANTILE_LEVELS, axis=0)
    return {
        "empirical": {p: row.tolist() for p, row in zip(QUANTILE_LEVELS, empirical)},
        "gaussian": {p: (z * sd).tolist() for p, z in zip(QUANTILE_LEVELS, _GAUSSIAN_Z)},
    }


def _reference_inverse(cfg: McConfig) -> np.ndarray:
    if cfg.reference_information is not None:
        reference = FisherMatrix(np.asarray(cfg.reference_information, dtype=float), "reference")
    else:
        reference = oracle_information(cfg.model, cfg.theta0)
    return invert_fisher(reference)


def _report(cfg: McConfig, ref_inv: np.ndarray, outcomes: list[tuple]) -> McReport:
    rows, failures = [], []
    for index, (theta, message) in enumerate(outcomes):
        if message is None:
            rows.append(theta)
        else:
            failures.append((index, message))
    if len(failures) > 0.1 * cfg.replications:
        raise StudyError(
            f"{len(failures)} of {cfg.replications} replications failed; "
            f"first: {failures[0][1]}"
        )
    terminals = np.asarray(rows, dtype=float)
    errors = np.sqrt(cfg.n) * (terminals - cfg.theta0[np.newaxis, :])
    cov = np.atleast_2d(np.cov(errors, rowvar=False))
    return McReport(
        config=cfg,
        terminal_errors=errors,
        empirical_covariance=cov,
        reference_information_inverse=ref_inv,
        quantiles=_quantile_table(errors, ref_inv),
        seeds=cfg.base_seed + np.arange(cfg.replications),
        failures=tuple(failures),
    )


def _run_studies(cfgs: Sequence[McConfig], workers: int) -> list[McReport]:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ref_invs = [_reference_inverse(cfg) for cfg in cfgs]
    outcomes = _run_replications(cfgs, workers)
    return [_report(*item) for item in zip(cfgs, ref_invs, outcomes)]


def run_study(cfg: McConfig, workers: int = 1) -> McReport:
    """Run the configured study and aggregate the terminal errors.

    Replication i uses seed base_seed + i. Failed replications are recorded
    and skipped; the study errors out if more than 10 percent fail. The
    report is identical whichever worker count executes it; workers > 1
    runs blocks of replications in that many processes at most.
    """
    return _run_studies([cfg], workers)[0]


def compare_estimators(cfgs: Sequence[McConfig], workers: int = 1) -> list[dict]:
    """Run several pipelines over a shared model/theta0/n and tabulate them.

    Studies that also share base_seed, replications, burn_in and x_init run
    on the same simulated trajectories, each simulated once.
    """
    if not cfgs:
        raise ValueError("no study configurations given")
    base = cfgs[0]
    for cfg in cfgs[1:]:
        if (
            cfg.model_name != base.model_name
            or not np.array_equal(cfg.theta0, base.theta0)
            or cfg.n != base.n
        ):
            raise ValueError("compared studies must share model, theta0, and n")
    return [
        {
            "pipeline": f"{cfg.preliminary}+{cfg.process}",
            "delta": cfg.delta,
            "variance": report.empirical_covariance.tolist(),
            "mean_error": report.mean_error.tolist(),
            "mse": report.mse.tolist(),
            "quantiles": report.quantiles["empirical"],
            "replications_used": report.replications_used,
        }
        for cfg, report in zip(cfgs, _run_studies(cfgs, workers))
    ]


# --- Serialization --------------------------------------------------------------


def report_to_json_dict(report: McReport) -> dict:
    return {
        "config": report.config.to_json_dict(),
        "terminal_errors": report.terminal_errors.tolist(),
        "empirical_covariance": report.empirical_covariance.tolist(),
        "mean_error": report.mean_error.tolist(),
        "mse": report.mse.tolist(),
        "reference_information_inverse": report.reference_information_inverse.tolist(),
        "quantiles": {
            side: {str(p): v for p, v in table.items()}
            for side, table in report.quantiles.items()
        },
        "seeds": report.seeds.tolist(),
        "failures": [list(f) for f in report.failures],
    }


def write_report_json(report: McReport, path) -> None:
    _write_json(path, report_to_json_dict(report))


def write_report_csv(report: McReport, path) -> None:
    """One row per successful replication, config echo in a leading # line."""
    d = report.terminal_errors.shape[1]
    ok_indices = sorted(
        set(range(report.config.replications)) - {i for i, _ in report.failures}
    )
    header = "replication,seed," + ",".join(f"err_{i + 1}" for i in range(d))
    rows = ((i, report.seeds[i], *errors) for i, errors in zip(ok_indices, report.terminal_errors.tolist()))
    _write_csv(path, report.config.to_json_dict(), header, "%d,%d" + ",%.17g" * d + "\n", rows)
