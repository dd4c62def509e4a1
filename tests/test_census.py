"""The sampled set of tools/census.py, run in-process on this checkout."""

import importlib.util
from pathlib import Path

from mlestep import preliminary

_PATH = Path(__file__).resolve().parents[1] / "tools" / "census.py"


def _census():
    spec = importlib.util.spec_from_file_location("census", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sampled_census_holds():
    census = _census()
    names = ("_certifies", "_certified_argmax", "_learning_loglik", "loglik_grad")
    before = {name: getattr(preliminary, name) for name in names}
    record = census.run(sample=True)
    # the spies and the forced size rule are undone
    assert {name: getattr(preliminary, name) for name in names} == before
    assert record["failures"] == [] and record["requests"] == 12
    assert record["refusals"] == {}
    # the certified argmax was taken, naturally and forced, and certified
    certificate = record["certificate"]
    assert certificate["natural_calls"] > 0 and certificate["certified_calls"] == 36
    assert certificate["natural_fallbacks"] == certificate["certified_fallbacks"] == 0
    assert all(row["loglik"] >= row["grid_max"] - 1e-12 * abs(row["grid_max"]) for row in record["results"])


def test_sampled_census_runs_bayes():
    record = _census().run(sample=True)
    assert record["bayes_refusals"] == {}
    # sha256 of no bytes: no bayes estimate was digested
    assert record["digests"]["bayes"] != "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
