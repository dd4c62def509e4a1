"""Census of the grid ``mle``, ``full_mle_path`` and ``bayes``, or of the estimator paths, over a fixed request set.

A request is a built-in model, a learning length N, a grid size and a seed:
the chain ``simulate(model, theta0, N, seed)``, its ``mle`` over all N
transitions and its ``full_mle_path`` at the checkpoints N // 3 and N. Each
request runs three ways: as ``mle`` chooses (natural), with the certified
argmax forced, and with the full grid scan forced. Its ``bayes`` (uniform
prior, the same grid size) runs once, as it chooses. The full set is the
three built-ins x N in {17, 100, 1e3, 1e4} x grid_points in {3, 64, 512,
513} x seeds 0..49, plus 4096 points for seeds 0..4: 2,460 requests. The
sample (``--sample``) is 12 of them.

The JSON record (``--out``, or a summary on stdout) holds a sha256 digest of
the natural estimates' bytes, of the forced certified argmax indices, of
the flat-likelihood outputs and of the ``bayes`` estimates with their
log_posterior_mass; the refusals by type and message, of ``mle`` and of
``bayes``; the
certificate's calls and fallbacks, natural and forced; the passes per
natural ``mle`` over the N transitions (``_learning_loglik`` and, where the
tree refines at a score root, ``loglik_grad``); and per request the
estimate, its diagnostics, the score |sum of loglik_grad| at it, and the
``bayes`` theta and log_posterior_mass.

The path set (``--paths``) is the three built-ins x n in {300, 2000} x
seeds 0..3 x delta in {0.375, 0.75} x the preliminaries mle, bayes and emm
(144 requests, as ``Pipeline`` runs them with the default grid), each
followed by the observed, plugin and factorized information x the one-step,
second-preliminary and two-step paths at stride 1 and the recurrent path
(1,728 requests): 1,872 in all. Its sample (``--paths --sample``) is n =
300 and seed 0: 234 requests. Its record holds a sha256 digest of each
process's ks and theta bytes and of the preliminaries' theta and
diagnostics, the refusals by type and message per process, a digest and
count of the INFO log lines, and per path its theta bytes (base64).

``--compare OTHER_TREE`` runs the same set from the tree OTHER_TREE (a
checkout with ``src/mlestep``) in a second process and prints the
differences. For the mle set: per model and N, the largest |delta theta|
between the two trees' estimates and the median and largest |score| at
each tree's answers; the largest |delta| of the ``bayes`` theta and
log_posterior_mass, absolute, in the value's ulp and relative in units of
eps; then which digests and refusals differ. For the path set: per process (and per preliminary), how
many paths differ and the largest |delta|, absolute and relative to the
path's largest |value|; then which digests, refusals and INFO lines differ.

Exit status 1 if, in the tree run here, the three ways disagree on an
estimate, its diagnostics or a refusal, or an estimate lies outside the
projected box or below the grid maximum's likelihood by more than 1e-12 of
max(1, |maximum|).

    python tools/census.py --sample
    python tools/census.py --out census.json --compare ../parent
    python tools/census.py --paths --compare ../parent
"""

from __future__ import annotations

import argparse
import base64
import collections
import hashlib
import json
import logging
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MODELS = {"example1": 2.5, "example2": 0.5, "linear": 0.5}
LIKELIHOOD_TOL = 1e-12
# an estimate within this fraction of the box width from its edge is on it
EDGE = 1e-5


def requests(sample: bool) -> list[tuple[str, int, int, int]]:
    if sample:
        return [(m, N, g, 0) for m in MODELS for N in (17, 1000) for g in (3, 512)]
    full = [(m, N, g, s) for m in MODELS for N in (17, 100, 1000, 10_000) for g in (3, 64, 512, 513) for s in range(50)]
    return full + [(m, N, 4096, s) for m in MODELS for N in (17, 100, 1000, 10_000) for s in range(5)]


PRELIMINARIES = ("mle", "bayes", "emm")
METHODS = ("observed", "plugin", "factorized")
PROCESSES = ("one-step", "second-preliminary", "two-step", "recurrent")


def path_requests(sample: bool) -> list[tuple[str, int, int, float, str]]:
    """The path set's preliminaries: model, n, seed, delta, preliminary."""
    ns, seeds = ((300,), (0,)) if sample else ((300, 2000), range(4))
    return [(m, n, s, delta, prelim) for m in MODELS for n in ns for s in seeds for delta in (0.375, 0.75) for prelim in PRELIMINARIES]


class _Spy:
    """Counts the calls of ``module.name`` (if the module has it) and keeps
    what each returned, until ``close``."""

    def __init__(self, module, name: str):
        self.module, self.name, self.calls, self.results = module, name, 0, []
        self.original = getattr(module, name, None)
        if self.original is not None:
            setattr(module, name, self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        result = self.original(*args, **kwargs)
        self.results.append(result)
        return result

    def close(self) -> None:
        if self.original is not None:
            setattr(self.module, self.name, self.original)


def _index(found):
    """The certified argmax's index: it returns the index, or the index and
    the maximum, or None for a fallback."""
    return found if found is None or isinstance(found, int) else int(found[0])


def run(sample: bool) -> dict:
    """The census record of the tree that ``mlestep`` is imported from."""
    import numpy as np

    import mlestep as ms
    from mlestep import preliminary
    from mlestep.likelihood import loglik_grad

    start = time.perf_counter()
    digests = {key: hashlib.sha256() for key in ("theta", "certified_index", "flat", "bayes")}
    refusals, bayes_refusals, failures, rows = collections.Counter(), collections.Counter(), [], []
    certificate = collections.Counter()
    passes = {"loglik": collections.Counter(), "score": collections.Counter()}

    def three_ways(traj, N, model, grid_points):
        """The outcome of mle and full_mle_path for each way, in order
        natural, certified, exact."""
        outcomes = []
        for way in ("natural", "certified", "exact"):
            forced = None if way == "natural" else preliminary._certifies
            if forced is not None:
                preliminary._certifies = lambda *args, way=way: way == "certified"
            spies = [_Spy(preliminary, name) for name in ("_certified_argmax", "_learning_loglik", "loglik_grad")]
            try:
                est = ms.mle(traj, N, model, grid_points)
                if way == "natural":
                    passes["loglik"][spies[1].calls] += 1
                    passes["score"][spies[2].calls if spies[2].original else None] += 1
                path = ms.full_mle_path(traj, model, grid_points, [max(1, N // 3), N]).thetas
                outcome = (est.theta.tobytes(), est.diagnostics, path.tobytes(), None)
            except Exception as exc:
                est, outcome = None, (None, None, None, f"{type(exc).__name__}: {exc}")
            finally:
                for spy in spies:
                    spy.close()
                if forced is not None:
                    preliminary._certifies = forced
            found = [_index(r) for r in spies[0].results]
            certificate[f"{way}_calls"] += len(found)
            certificate[f"{way}_fallbacks"] += found.count(None)
            outcomes.append((outcome, est, found))
        return outcomes

    for name, N, grid_points, seed in requests(sample):
        model = ms.get_model(name)
        traj = ms.simulate(model, MODELS[name], N, seed=seed)
        (natural, est, _), (certified, _, found), (exact, _, _) = three_ways(traj, N, model, grid_points)
        row = {"model": name, "N": N, "grid_points": grid_points, "seed": seed, "refusal": natural[3]}
        try:
            post = ms.bayes(traj, N, model, grid_points=grid_points)
            digests["bayes"].update(post.theta.tobytes() + repr(post.diagnostics["log_posterior_mass"]).encode())
            row.update(bayes_theta=float(post.theta[0]), bayes_mass=post.diagnostics["log_posterior_mass"])
        except Exception as exc:
            bayes_refusals[f"{type(exc).__name__}: {exc}"] += 1
        if natural != certified or natural != exact:
            failures.append(f"{name} N={N} grid_points={grid_points} seed={seed}: the three ways disagree")
        digests["certified_index"].update(repr(found).encode())
        if est is None:
            refusals[natural[3]] += 1
            rows.append(row)
            continue
        digests["theta"].update(natural[0] + natural[2])
        theta, value = float(est.theta[0]), est.diagnostics["loglik"]
        if est.diagnostics["flat_likelihood"]:
            digests["flat"].update(natural[0] + repr(value).encode())
        values = preliminary._grid_loglik(preliminary._grid(model, grid_points), traj, N, model)
        top, lo, hi = float(values.max()), float(model.domain.lower[0]), float(model.domain.upper[0])
        obs = traj.observations
        terms = loglik_grad(est.theta, obs[:N], obs[1 : N + 1], model)
        row.update(
            theta=theta,
            path=np.frombuffer(natural[2]).tolist(),
            loglik=value,
            flat=est.diagnostics["flat_likelihood"],
            grid_max=top,
            edge=min(theta - lo, hi - theta) <= EDGE * (hi - lo),
            score=float(np.sum(terms)),
        )
        if not value >= top - LIKELIHOOD_TOL * max(1.0, abs(top)):
            failures.append(f"{name} N={N} grid_points={grid_points} seed={seed}: loglik {value!r} below the grid maximum {top!r}")
        if model.domain.project(est.theta)[0] != theta:
            failures.append(f"{name} N={N} grid_points={grid_points} seed={seed}: theta {theta!r} outside the box")
        rows.append(row)

    return {
        "set": "sample" if sample else "full",
        "requests": len(rows),
        "runtime_s": round(time.perf_counter() - start, 1),
        "digests": {key: d.hexdigest() for key, d in digests.items()},
        "refusals": dict(refusals),
        "bayes_refusals": dict(bayes_refusals),
        "certificate": dict(certificate),
        "passes_per_natural_mle": {k: {str(n): c for n, c in sorted(v.items(), key=str)} for k, v in passes.items()},
        "failures": failures,
        "results": rows,
    }


class _Lines(logging.Handler):
    """Keeps the message of every record it handles."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.lines = []

    def emit(self, record) -> None:
        self.lines.append(record.getMessage())


def run_paths(sample: bool) -> dict:
    """The path census record of the tree that ``mlestep`` is imported from."""
    import mlestep as ms
    from mlestep.process import PROCESS_KINDS

    start = time.perf_counter()
    digests = {key: hashlib.sha256() for key in ("preliminary", *PROCESSES, "info")}
    refusals = {key: collections.Counter() for key in ("preliminary", *PROCESSES)}
    rows, info_lines = [], 0
    logger, handler = logging.getLogger("mlestep"), _Lines()
    level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(handler)

    def attempt(key: dict, kind: str, call, *args):
        """call(*args) as request ``key``: its result, or None and its refusal
        counted under ``kind``; its INFO lines are digested."""
        nonlocal info_lines
        handler.lines.clear()
        try:
            result, refusal = call(*args), None
        except Exception as exc:
            result, refusal = None, f"{type(exc).__name__}: {exc}"
            refusals[kind][refusal] += 1
        info_lines += len(handler.lines)
        digests["info"].update(repr((key, handler.lines)).encode())
        rows.append(dict(key, refusal=refusal, info=len(handler.lines)))
        return result

    try:
        for name, n, seed, delta, kind in path_requests(sample):
            model = ms.get_model(name)
            traj = ms.simulate(model, MODELS[name], n, seed=seed)
            key = {"model": name, "n": n, "seed": seed, "delta": delta, "preliminary": kind}
            outcome = attempt(key, "preliminary", ms.Pipeline(delta, kind, "none").run, traj, model)
            if outcome is None:
                continue
            prelim = outcome[0]
            digests["preliminary"].update(prelim.theta.tobytes() + repr(prelim.diagnostics).encode())
            rows[-1]["theta"] = base64.b64encode(prelim.theta.tobytes()).decode()
            for method in METHODS:
                for process in PROCESSES:
                    strided = () if process == "recurrent" else (1,)
                    path = attempt(dict(key, method=method, process=process), process,
                                   PROCESS_KINDS[process], traj, model, prelim, method, *strided)
                    if path is not None:
                        digests[process].update(path.ks.tobytes() + path.thetas.tobytes())
                        rows[-1]["theta"] = base64.b64encode(path.thetas.tobytes()).decode()
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)

    return {
        "set": "paths-sample" if sample else "paths",
        "requests": len(rows),
        "runtime_s": round(time.perf_counter() - start, 1),
        "digests": {key: d.hexdigest() for key, d in digests.items()},
        "refusals": {key: dict(c) for key, c in refusals.items()},
        "info_lines": info_lines,
        "results": rows,
    }


def _summary(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "results"}


def compare(mine: dict, other: dict) -> str:
    """The table of max |delta theta| and |score| per model and N, and the
    parts of the two records that differ. The |score| columns leave out the
    requests answered at the box edge by either tree, where the score need
    not vanish."""
    import numpy as np

    lines = [
        "model     N      max|dtheta| mle  max|dtheta| path  edges  |score| here: median, max   |score| other: median, max",
    ]
    groups = collections.defaultdict(list)
    for a, b in zip(mine["results"], other["results"]):
        assert (a["model"], a["N"], a["grid_points"], a["seed"]) == (b["model"], b["N"], b["grid_points"], b["seed"])
        if a["refusal"] is None and b["refusal"] is None:
            groups[a["model"], a["N"]].append((a, b))
    for (name, N), pairs in groups.items():
        d_mle = max(abs(a["theta"] - b["theta"]) for a, b in pairs)
        d_path = max(max(abs(x - y) for x, y in zip(a["path"], b["path"])) for a, b in pairs)
        inner = [(a, b) for a, b in pairs if not (a["edge"] or b["edge"])]
        here = np.abs([a["score"] for a, _ in inner])
        there = np.abs([b["score"] for _, b in inner])
        lines.append(
            f"{name:9s} {N:<6d} {d_mle:<16.2g} {d_path:<17.2g} {len(pairs) - len(inner):<6d} "
            f"{np.median(here):<10.2g} {here.max():<17.2g} {np.median(there):<10.2g} {there.max():.2g}"
        )
    below = sum(a["loglik"] < b["loglik"] - LIKELIHOOD_TOL * max(1.0, abs(b["loglik"])) for pairs in groups.values() for a, b in pairs)
    lines.append(f"estimates whose loglik lies below the other tree's beyond the tolerance: {below}")
    for key in ("bayes_theta", "bayes_mass"):
        pairs = [(a[key], b[key]) for a, b in zip(mine["results"], other["results"]) if key in a and key in b]
        # |delta| in the value's ulp, and relative to the value in units of eps
        moved = np.array([(abs(x - y), abs(x - y) / np.spacing(max(abs(x), abs(y))), abs(x - y) / max(abs(x), abs(y)) / np.finfo(float).eps)
                          for x, y in pairs if x != y]).reshape(-1, 3)
        worst = moved.max(axis=0, initial=0.0)
        lines.append(f"{key}: {len(moved)} of {len(pairs)} moved, max|delta| {worst[0]:.2g} ({worst[1]:.3g} ulp, {worst[2]:.3g} eps relative)")
    for key in ("certified_index", "flat", "theta", "bayes"):
        same = mine["digests"][key] == other["digests"][key]
        lines.append(f"{key} digest: {'identical' if same else 'differs'}")
    for key in ("refusals", "bayes_refusals"):
        lines.append(f"{key}: {'identical' if mine[key] == other[key] else 'differ'}")
    lines.append(f"failures here {len(mine['failures'])}, other {len(other['failures'])}")
    lines.append(f"certificate here {mine['certificate']}, other {other['certificate']}")
    lines.append(f"passes here {mine['passes_per_natural_mle']}, other {other['passes_per_natural_mle']}")
    return "\n".join(lines)


def _thetas(row: dict):
    import numpy as np

    return np.frombuffer(base64.b64decode(row["theta"])) if "theta" in row else None


def compare_paths(mine: dict, other: dict) -> str:
    """Per process and per preliminary, how many outputs differ and the
    largest |delta|, absolute and relative to the larger of the two
    outputs' largest |value|; then the digests, refusals and INFO lines."""
    import numpy as np

    table = collections.defaultdict(lambda: [0, 0, 0.0, 0.0])
    for a, b in zip(mine["results"], other["results"]):
        key = {k: v for k, v in a.items() if k not in ("refusal", "info", "theta")}
        assert key == {k: v for k, v in b.items() if k not in ("refusal", "info", "theta")}
        x, y = _thetas(a), _thetas(b)
        delta = relative = 0.0
        if x is not None and y is not None:
            delta = float(np.max(np.abs(x - y)))
            relative = delta / max(float(np.max(np.abs(x))), float(np.max(np.abs(y))), np.finfo(float).tiny)
        differs = delta > 0.0 or a["refusal"] != b["refusal"] or a["info"] != b["info"]
        for group in (a.get("process", "preliminary"), f"  {a.get('process', 'preliminary')} after {a['preliminary']}"):
            entry = table[group]
            entry[0], entry[1] = entry[0] + 1, entry[1] + differs
            entry[2], entry[3] = max(entry[2], delta), max(entry[3], relative)
    lines = ["process                             requests  differ  max|delta|  max|delta| / max|value|"]
    for group in ("preliminary", *PROCESSES):
        for name in (group, *(f"  {group} after {kind}" for kind in PRELIMINARIES)):
            if name in table:
                count, moved, delta, relative = table[name]
                lines.append(f"{name:35s} {count:<9d} {moved:<7d} {delta:<11.2g} {relative:.2g}")
    for key in mine["digests"]:
        same = mine["digests"][key] == other["digests"][key]
        lines.append(f"{key} digest: {'identical' if same else 'differs'}")
    for key in mine["refusals"]:
        lines.append(f"{key} refusals: {'identical' if mine['refusals'][key] == other['refusals'][key] else 'differ'}"
                     f" ({sum(mine['refusals'][key].values())} here, {sum(other['refusals'][key].values())} other)")
    lines.append(f"INFO lines here {mine['info_lines']}, other {other['info_lines']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", action="store_true", help="run the set's sample, not the full set")
    parser.add_argument("--paths", action="store_true", help="run the path set, not the mle set")
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1], help="the checkout to import mlestep from")
    parser.add_argument("--out", type=Path, help="write the JSON record here")
    parser.add_argument("--compare", type=Path, metavar="OTHER_TREE", help="also run OTHER_TREE and print the differences")
    args = parser.parse_args(argv)
    other = None
    if args.compare is not None:
        fd, tmp = tempfile.mkstemp(suffix=".json")
        os.close(fd)
        command = [sys.executable, __file__, "--tree", str(args.compare), "--out", tmp] + ["--sample"] * args.sample + ["--paths"] * args.paths
        other = (subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL), Path(tmp))
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    record = (run_paths if args.paths else run)(args.sample)
    record["tree"] = str(args.tree)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(_summary(record), indent=1))
    if other is not None:
        process, path = other
        process.wait()
        other_record = json.loads(path.read_text()) if process.returncode in (0, 1) else None
        path.unlink()
        if other_record is None:
            print(f"the census of {args.compare} failed", file=sys.stderr)
            return 1
        print((compare_paths if args.paths else compare)(record, other_record))
    failures = record.get("failures", [])
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
