"""The benchmark's span tracer still finds every binding it wraps.

``perfbench/spans.py`` replaces qinet functions where their callers bind
them (``BOUNDARIES``), so a renamed or dropped binding breaks only the
traced benchmark run.  These tests read that file without changing it and
check each binding, plus the generator attributes the harness reads.  They
also run the harness's output check (``perfbench/workloads.py``) on fresh
``qinet solve --json`` reports, and trace the quick ops of three workloads
to check that every per-layer metric ``BENCHMARK.json`` lists is a number.
"""
import importlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import qinet
import qinet.cli  # noqa: F401  (the tracer patches bindings in every qinet module)
from conftest import make_config
from qinet.model import enumerate_inventory_states

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")
CONFIG = make_config((1.0, 1.3, 0.8), (2, 1, 3), 1.2)


@pytest.mark.parametrize(
    "target, attr, name", spans.BOUNDARIES, ids=[f"{t}.{a}" for t, a, _ in spans.BOUNDARIES]
)
def test_binding_resolves(target, attr, name):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
        assert attr in owner.__dict__  # the tracer reads the class dict
    assert callable(getattr(owner, attr))
    assert name in spans.LAYERS
    if attr == "enumerate_inventory_states":
        assert getattr(owner, attr) is enumerate_inventory_states


def test_generator_attributes_read_by_harness():
    gen = qinet.build_reduced_generator(CONFIG)
    assert gen.size == 24 == spans._count("generator.build", gen)
    states = gen.states
    assert [s.k for s in states] == [tuple(k) for k in enumerate_inventory_states(CONFIG.b).tolist()]
    assert states[7].k == (0, 1, 3, 2)


def test_enumeration_only_when_states_are_read():
    tracer = spans.Tracer()
    tracer.install()
    try:
        gen = qinet.build_reduced_generator(CONFIG)
        qinet.simulate(CONFIG, 1_000, seed=1)
        built = [span.name for span in tracer.spans]
        gen.states
        read = [span.name for span in tracer.spans[len(built):]]
    finally:
        tracer.uninstall()
    assert "model.enumerate" not in built
    assert read == ["model.enumerate"]


def test_simulate_ergodicity_check_is_traced():
    # simulate reaches ergodicity_check through the analysis module, so the
    # tracer's ("qinet.analysis", "ergodicity_check") binding sees the call.
    tracer = spans.Tracer()
    tracer.install()
    try:
        qinet.simulate(CONFIG, 1_000, seed=1)
    finally:
        tracer.uninstall()
    assert [span.name for span in tracer.spans] == ["analysis.ergodicity"]


@pytest.mark.parametrize(
    "lam, b", [((1.0, 0.7), (3, 2)), ((1.0, 1.3, 0.8), (2, 1, 3))], ids=["J2", "J3"]
)
def test_harness_accepts_solve_json(tmp_path, lam, b):
    J = len(b)
    config = tmp_path / "net.json"
    config.write_text(json.dumps(workloads.config_doc(lam, workloads.constant_mu(4.0, J), b, 1.2)))
    out = tmp_path / "out.json"
    assert qinet.cli.main(["solve", str(config), "--json", str(out)]) == 0
    assert workloads.check_solve_json(str(config), str(out)) == []


@pytest.mark.parametrize("name", ["solve-grid", "verify-suite", "simulate-replicas"])
def test_traced_layer_metrics_are_numbers(tmp_path, name):
    # A layer a workload never calls reads None (no ok_ratio without calls),
    # which turns the traced result line into "value": null.
    bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    ops = workloads.make_ops(name, 1, str(tmp_path), quick=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with open(os.devnull, "w") as sink:
            for index, op in enumerate(ops):
                tracer.op = index
                workloads.run_op(op, sink)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, 1, len(ops))
    for m in bench["per_layer"]:
        if m["name"] != "trace.overhead_s":  # run.py adds it from pass timings
            value = metrics[m["name"]]
            assert isinstance(value, (int, float)) and not isinstance(value, bool), (m["name"], value)
