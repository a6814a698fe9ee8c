"""Tests of the benchmark itself: references, checks, plans and the runner."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import checks, reference, trace, worker, workloads

ROOT = Path(__file__).resolve().parent.parent


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _node(n, x):
    o = np.zeros((n, n))
    o[x - 1, x - 1] = 1.0
    return o


@pytest.mark.parametrize(
    "key, start, position", [("C60", 1, False), ("F30", 7, False), ("F30", 15, True)]
)
def test_reference_lhs_matches_oracle(key, start, position):
    oracles = _load_oracles()
    a = reference.adjacency(key)
    n = a.shape[0]
    o = np.diag(np.arange(1.0, n + 1.0)) if position else _node(n, start)
    taus = [0.5, 3.0]
    got = reference.closed_form_lhs(a, _node(n, start), o, taus)
    want = [oracles.closed_form_lhs(a, _node(n, start), o, tau) for tau in taus]
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_reference_gibbs_matches_oracle():
    oracles = _load_oracles()
    for beta in (0.0, 1.0, 50.0):
        z, state = reference.pentagon_gibbs(beta)
        z_want, state_want = oracles.pentagon_gibbs_expm(beta)
        assert z == pytest.approx(z_want, rel=1e-12)
        np.testing.assert_allclose(state, state_want, atol=1e-12)


def test_reference_time_average_matches_quadrature():
    a = reference.adjacency("F30")
    w, v = np.linalg.eigh(a)
    t = np.linspace(0.0, 2.0, 4001)
    amp = (v[29, :] * v[0, :]) @ np.exp(-1j * np.outer(w, t))
    want = np.trapezoid(np.abs(amp) ** 2, t) / 2.0
    assert reference.time_average(a, 1, 30, [2.0])[0] == pytest.approx(want, rel=1e-6)


def _run_plan(ops, outdir, monkeypatch):
    monkeypatch.chdir(outdir)
    refs = reference.compute(ops)
    records = {op["id"]: worker.run_op(op) for op in ops}
    return refs, records


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_plan_passes_every_check(name, tmp_path, monkeypatch):
    ops = workloads.plan(name, seed=3, smoke=True)
    refs, records = _run_plan(ops, tmp_path, monkeypatch)
    diag = {}
    failures = {
        op["id"]: msgs
        for op in ops
        if (msgs := checks.check_op(op, records[op["id"]], tmp_path, refs.get(op["id"]), diag))
    }
    assert failures == {}
    if name != "tube-1000":
        assert 0.0 < diag["lhs_max_rel_err"] < checks.LHS_REL_TOL


def _rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_perturbed_outputs_count_as_failures(tmp_path, monkeypatch):
    ops = [
        workloads.bound_op("F30", 4, None, "short"),
        *[op for op in workloads.plan("family-small", 1, smoke=True) if op["id"] == "limiting:F30"],
    ]
    refs, records = _run_plan(ops, tmp_path, monkeypatch)
    bound, limiting = ops

    def check(op):
        return checks.check_op(op, records[op["id"]], tmp_path, refs.get(op["id"]), {})

    assert check(bound) == [] and check(limiting) == []

    def scale_lhs(doc):  # a 0.2% error in one lhs value, still far below the rhs
        doc["table"]["lhs"][5] *= 1.002

    def shift_u(doc):
        doc["u"][0][1] += 1e-6

    _rewrite(tmp_path / bound["out"], scale_lhs)
    assert any("closed form" in m for m in check(bound))
    _rewrite(tmp_path / limiting["out"], shift_u)
    assert check(limiting)

    (tmp_path / limiting["out"]).write_text("not json")
    assert check(limiting)[0].startswith("check raised")
    assert check({**bound, "out": "missing.json"}) == ["no output file missing.json"]
    assert checks.check_op(bound, {**records[bound["id"]], "rc": 2}, tmp_path, None, {})
    assert checks.check_op(bound, None, tmp_path, None, {})


def test_plans_follow_the_seed():
    assert workloads.plan("family-small", 5) == workloads.plan("family-small", 5)
    eth_nodes = {
        seed: [op["argv"] for op in workloads.plan("family-small", seed) if "eth" in op["id"]]
        for seed in range(3)
    }
    assert eth_nodes[0] != eth_nodes[1] != eth_nodes[2]
    assert workloads.plan("tube-1000", 0) == workloads.plan("tube-1000", 9)
    family = workloads.plan("family-small", 0)
    assert sum(op["kind"] == "cli" for op in family) == 42
    assert sum(op["kind"] == "time_average" for op in family) == 11


def test_repeat_graph_share():
    assert workloads.repeat_graph_share(workloads.plan("bound-long", 0)) == 0.0
    assert workloads.repeat_graph_share(workloads.plan("tube-1000", 0)) == 0.75


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, None],
        ["spectral.eigendecompose", 1.0, 4.0, 0],
        ["spectral.cluster_eigenvalues", 2.0, 3.0, 1],
        ["equilibration.empirical_lhs", 5.0, 9.0, 0],
    ]
    totals = trace.self_times(spans)
    assert totals["cli.main"] == [3.0, 1]
    assert totals["spectral.eigendecompose"] == [2.0, 1]
    metrics = trace.layer_metrics(spans, {})
    assert metrics["spectral.eigendecompose_s"] == 3.0
    assert metrics["equilibration.lhs_s"] == 4.0
    assert sum(metrics[f"{layer}.self_s"] for layer in trace.LAYERS) == 10.0


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "workload, traced, section",
    [("bound-long", "0", "end_to_end"), ("family-small", "1", "per_layer")],
)
def test_runner_reports_the_declared_metrics(workload, traced, section):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "2", "--trace", traced, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "bound-long", "--seed", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
