"""The sampled sets of tools/census.py, run in-process on this checkout, each once."""

import base64
import importlib.util
import logging
from pathlib import Path

import numpy as np
import pytest

from mlestep import preliminary

_PATH = Path(__file__).resolve().parents[1] / "tools" / "census.py"
_SPIED = ("_certifies", "_certified_argmax", "_learning_loglik", "loglik_grad")


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def mle_sample(census):
    """The mle sample's record, and the spied names before it ran."""
    before = {name: getattr(preliminary, name) for name in _SPIED}
    return census.run(sample=True), before


@pytest.fixture(scope="module")
def path_sample(census):
    """The path sample's record, and the mlestep logger before it ran."""
    logger = logging.getLogger("mlestep")
    before = logger.level, list(logger.handlers)
    return census.run_paths(sample=True), before


def test_sampled_census_holds(mle_sample):
    record, before = mle_sample
    # the spies and the forced size rule are undone
    assert {name: getattr(preliminary, name) for name in _SPIED} == before
    assert record["failures"] == [] and record["requests"] == 12
    assert record["refusals"] == {}
    # the certified argmax was taken, naturally and forced, and certified
    certificate = record["certificate"]
    assert certificate["natural_calls"] > 0 and certificate["certified_calls"] == 36
    assert certificate["natural_fallbacks"] == certificate["certified_fallbacks"] == 0
    assert all(row["loglik"] >= row["grid_max"] - 1e-12 * abs(row["grid_max"]) for row in record["results"])


def test_sampled_census_runs_bayes(census, mle_sample):
    record, _ = mle_sample
    assert record["bayes_refusals"] == {}
    # sha256 of no bytes: no bayes estimate was digested
    assert record["digests"]["bayes"] != "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert all(np.isfinite([row["bayes_theta"], row["bayes_mass"]]).all() for row in record["results"])
    # against itself: no bayes value moved
    table = census.compare(record, record)
    assert "bayes_theta: 0 of 12 moved" in table and "bayes_mass: 0 of 12 moved" in table


def test_sampled_path_census(path_sample):
    record, before = path_sample
    logger = logging.getLogger("mlestep")
    assert (logger.level, logger.handlers) == before
    # 18 preliminaries, each followed by 3 information methods x 4 processes
    assert record["requests"] == 18 + 18 * 12
    processes = [row.get("process") for row in record["results"]]
    assert processes.count(None) == 18 and all(processes.count(p) == 54 for p in ("one-step", "two-step"))
    # one example1 preliminary's observed information is indefinite: each
    # process refuses it once
    assert record["refusals"]["preliminary"] == {}
    assert all(sum(record["refusals"][p].values()) == 1 for p in ("one-step", "second-preliminary", "two-step", "recurrent"))
    assert record["info_lines"] == sum(row["info"] for row in record["results"]) > 0
    refused = [row for row in record["results"] if row["refusal"] is not None]
    assert refused and all("theta" not in row for row in refused)


def test_path_compare_reports_a_moved_path(census, path_sample):
    record, _ = path_sample
    # against itself: no output differs, and every digest and refusal is identical
    lines = census.compare_paths(record, record).splitlines()
    table = [line.split()[-3:] for line in lines[1:] if ":" not in line and not line.startswith("INFO")]
    assert len(table) == 5 * 4 and all(cells == ["0", "0", "0"] for cells in table)
    assert all("identical" in line for line in lines if ":" in line)
    rows = [dict(row) for row in record["results"]]
    row = next(row for row in rows if row.get("process") == "two-step" and "theta" in row)
    thetas = np.frombuffer(base64.b64decode(row["theta"])).copy()
    thetas[-1] = np.nextafter(thetas[-1], np.inf)
    row["theta"] = base64.b64encode(thetas.tobytes()).decode()
    lines = census.compare_paths(record, dict(record, results=rows)).splitlines()
    two_step = next(line for line in lines if line.startswith("two-step "))
    assert two_step.split()[1:3] == ["54", "1"]
    assert float(two_step.split()[3]) == pytest.approx(np.spacing(abs(thetas[-1])), rel=0.5)
