"""Tests of the benchmark itself: output check, spans, wrapper removal.

    python3 -m pytest perfbench/tests
"""
import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import spans
import worker
from conftest import BENCH, ROOT

import mhrfit
from mhrfit import cli, inference, mhr_estimator, simulation, survival_core


@pytest.fixture(scope="module")
def split_call(tmp_path_factory):
    """One estimate_split call at the default seed, as the benchmark makes it."""
    work = str(tmp_path_factory.mktemp("split"))
    w = worker.WORKLOADS["estimate_split"]
    worker.setup(w, work, worker.DEFAULT_SEED)
    records = worker.timed_pass(w, work, worker.DEFAULT_SEED, "A", calls=1)
    assert records[0]["code"] == 0
    return w, records


def test_reference_matches_at_default_seed(split_call):
    w, records = split_call
    errors, compared = worker.reference_errors(w, records)
    assert errors == [] and compared == 1


@pytest.mark.parametrize("path", [("gamma_n",), ("values_sampled", 7),
                                  ("ci", 4, 3), ("n_knots",)])
def test_output_check_rejects_perturbed_reference(split_call, tmp_path,
                                                  monkeypatch, path):
    w, records = split_call
    with open(worker.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    bad = copy.deepcopy(reference)
    node = bad["workloads"][w.name]["0"]
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    node[path[-1]] = value + 1 if isinstance(value, int) else value * (1 + 1e-4)
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(bad))
    monkeypatch.setattr(worker, "REFERENCE", str(perturbed))
    errors, _ = worker.reference_errors(w, records)
    assert len(errors) == 1 and path[0] in errors[0]


def test_invariant_check_rejects_decreasing_theta(split_call, tmp_path):
    _, records = split_call
    out = tmp_path / "out"
    shutil.copytree(records[0]["out"], out)
    fit = json.loads((out / "fit.json").read_text())
    fit["theta"]["values"][5] = fit["theta"]["values"][6] + 1.0
    (out / "fit.json").write_text(json.dumps(fit))
    assert checks.estimate_errors(str(records[0]["out"])) == []
    assert "theta is not nondecreasing" in checks.estimate_errors(str(out))


@pytest.fixture
def traced_estimate(tmp_path):
    """Spans of one `estimate --ci both` call at n = 1500."""
    sample = simulation.generate_dataset(simulation.make_scenario("linear"),
                                         1500, 0.5, seed=(7, 0))
    data = tmp_path / "data.csv"
    worker.write_csv(sample, str(data))
    originals = {"cli": cli.fit_theta, "inference": inference.fit_theta,
                 "from_arrays": vars(survival_core.CensoredSample)["from_arrays"],
                 "package": mhrfit.plugin_ci}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.installed_wrappers()
        tracer.call_id = "c0"
        code = cli.main(["estimate", "--input", str(data), "--out",
                         str(tmp_path / "out"), "--ci", "both",
                         "--chernoff-reps", "200",
                         "--chernoff-cache", str(tmp_path / "table.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer, originals


def test_spans_nest_inside_their_parents(traced_estimate):
    tracer, _ = traced_estimate
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"cli.main", "mhr_estimator.fit_theta", "inference.plugin_ci",
            "inference.split_fit", "gcm.left_slope_at"} <= names
    for span in tracer.spans:
        assert span[spans.START] <= span[spans.END]
        if span[spans.PARENT] < 0:
            assert span[spans.NAME] == "cli.main"
            continue
        parent = tracer.spans[span[spans.PARENT]]
        assert parent[spans.START] <= span[spans.START]
        assert span[spans.END] <= parent[spans.END]
        assert span[spans.CALL] == parent[spans.CALL] == "c0"


def test_self_times_are_nonnegative(traced_estimate):
    tracer, _ = traced_estimate
    assert min(spans.self_times(tracer.spans)) >= 0
    stats = spans.layer_stats(tracer.spans)
    assert all(v >= 0 for k, v in stats.items() if k.endswith("self_s"))
    assert stats["cli.main.calls"] == 1
    assert stats["mhr_estimator.fit_theta.calls"] == 6  # full sample + 5 splits
    assert stats["inference.chernoff_table.cache_hits"] == 0


def test_wrappers_are_gone_after_the_traced_run(traced_estimate):
    _, originals = traced_estimate
    assert spans.installed_wrappers() == []
    assert cli.fit_theta is originals["cli"] is mhr_estimator.fit_theta
    assert inference.fit_theta is originals["inference"]
    assert vars(survival_core.CensoredSample)["from_arrays"] is originals["from_arrays"]
    assert mhrfit.plugin_ci is originals["package"] is inference.plugin_ci


def test_wrapper_records_exception_and_reraises():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError, match="at least 3 points"):
            inference.cv_bandwidth([(0.0, 0.0), (1.0, 1.0)], [0.5])
    finally:
        tracer.uninstall()
    (span,) = tracer.spans
    assert span[spans.NAME] == "inference.cv_bandwidth"
    assert "at least 3 points" in span[spans.ERROR]
    assert spans.layer_stats(tracer.spans)["inference.cv_bandwidth.failed"] == 1


def test_chernoff_cache_hit_is_counted(tmp_path):
    cache = str(tmp_path / "table.json")
    config = inference.ChernoffConfig(replications=50)
    tracer = spans.Tracer()
    tracer.install()
    try:
        inference.chernoff_table(config, cache_path=cache)
        inference.chernoff_table(config, cache_path=cache)
    finally:
        tracer.uninstall()
    stats = spans.layer_stats(tracer.spans)
    assert stats["inference.chernoff_table.calls"] == 2
    assert stats["inference.chernoff_table.cache_hits"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "estimate_split", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_workload_and_layer():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS)
    computable = set(spans.layer_stats([])) | {"trace_overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} <= computable
