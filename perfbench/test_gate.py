"""Tests of the benchmark itself: the correctness gate, the tracer, the bare-directory exit.

Run from the root of a checkout:  python3 -m pytest perfbench/test_gate.py
"""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import STRESSED_SPANS, Tracer, fired

so = run.import_library()


def _first(workload, cls):
    return next(item for item in workload.items if item.cls == cls)


def _shifted(triple, delta=1e-6):
    """A wrong triple that still satisfies total = aleatoric + epistemic."""
    if triple.aleatoric >= delta:
        return dataclasses.replace(triple, aleatoric=triple.aleatoric - delta, epistemic=triple.epistemic + delta)
    return dataclasses.replace(triple, total=triple.total + delta, aleatoric=triple.aleatoric + delta)


def test_checks_accept_library_outputs_and_reject_planted_values():
    corpus = workloads.make("corpus_mc", so, 0)
    cache = {}
    for cls in ("cheap", "dirichlet", "sparse"):
        item = _first(corpus, cls)
        triple, bounds = corpus.op(item)
        assert corpus.check(item, (triple, bounds), cache) == []
        assert corpus.check(item, (_shifted(triple), bounds), cache)
        wrong_bounds = dataclasses.replace(bounds, lower=bounds.lower / 2 if bounds.lower else 1e-6)
        assert corpus.check(item, (triple, wrong_bounds), cache)

    exact = workloads.make("exact_scoring", so, 0)
    item = _first(exact, "ensemble")
    triple, bounds, ens = exact.op(item)
    assert exact.check(item, (triple, bounds, ens), cache) == []
    assert exact.check(item, (triple, bounds, _shifted(ens)), cache)
    item = _first(exact, "interval")
    triple, bounds, _ = exact.op(item)
    assert exact.check(item, (triple, bounds, None), cache) == []
    assert exact.check(item, (_shifted(triple, 1e-7), bounds, None), cache)


def test_curve_check_rejects_planted_value():
    curve_wl = workloads.make("learning_curve", so, 0)
    item = curve_wl.items[0]
    curve = curve_wl.op(item)
    assert curve_wl.check(item, curve, {}) == []
    bad = list(curve)
    bad[3] = dataclasses.replace(bad[3], triple=_shifted(bad[3].triple))
    assert curve_wl.check(item, bad, {})


def test_cli_check_compares_bytes(tmp_path):
    cli = workloads.make("cli", so, 0)
    cli.prepare(tmp_path, run.child_env(), sys.executable)
    cache = {}
    for item in cli.items:
        expected = cli.expected_stdout(item)
        assert cli.check(item, (0, expected, b""), cache) == []
        last = expected[-2:-1]
        planted = expected[:-2] + (b"1" if last == b"0" else b"0") + b"\n"
        assert cli.check(item, (0, planted, b""), cache)
    output = cli.op(cli.items[0])
    assert output[0] == 0, output[2]
    assert cli.check(cli.items[0], output, cache) == []


def test_cli_peak_memory_is_each_childs_own(tmp_path):
    cli = workloads.make("cli", so, 0)
    cli.prepare(tmp_path, run.child_env(), sys.executable)
    peak, reports = cli.peak_above_import_kib()
    assert len(reports) == len(cli.items)
    assert all(r["hwm_kib"] >= r["post_import_rss_kib"] for r in reports.values())
    assert peak > 1024  # the Dirichlet eval's Monte Carlo arrays take megabytes


def test_alternating_passes_trace_only_the_traced_side():
    workload = workloads.make("exact_scoring", so, 0)
    tracer = Tracer()
    untraced, traced = run.timed_alternating(workload, workload.op, workload.op, tracer, 0.2)
    assert untraced.passes == traced.passes >= 1
    assert tracer.raw()["calls"]["measures.decompose"] == len(traced.latencies)
    assert so.decompose is so.measures.decompose  # uninstalled after each traced pass


def test_gate_counts_a_planted_wrong_output_as_failed(monkeypatch):
    workload = workloads.make("exact_scoring", so, 0)
    real = so.decompose

    def planted(Q, *args, **kwargs):
        triple = real(Q, *args, **kwargs)
        return _shifted(triple) if isinstance(Q, so.PointMass) else triple

    monkeypatch.setattr(so, "decompose", planted)
    summary = run.summarize(run.timed(workload, workload.op, 0.3), workload, {})
    assert summary["wrong"] >= 1
    assert summary["failed"] == summary["wrong"]
    assert "aleatoric" in summary["problems"][0]


@pytest.mark.parametrize("name", ["corpus_mc", "learning_curve", "exact_scoring"])
def test_stressed_spans_fire_and_tracer_restores(name):
    originals = (so.decompose, so.integrate.expect, so.measures.expect, so.Dirichlet.__init__,
                 so.integrate.ENTROPY_NATS.rows_fn, so.simulate.decompose)
    workload = workloads.make(name, so, 0)
    by_class = {}
    for item in workload.items:
        by_class.setdefault(item.cls, item)
    with Tracer() as tracer:
        for item in by_class.values():
            workload.op(item)
    assert [s for s in STRESSED_SPANS[name] if s not in fired(tracer.raw())] == []
    assert (so.decompose, so.integrate.expect, so.measures.expect, so.Dirichlet.__init__,
            so.integrate.ENTROPY_NATS.rows_fn, so.simulate.decompose) == originals


def test_probe_keeps_the_sparse_alpha_defect_visible():
    workload = workloads.make("corpus_mc", so, 0)
    probe = run.run_probe(so, workload, {})
    assert probe["failures"].get("ConsistencyFailure", 0) >= 1
    assert probe["nan_row_frac_by_k"]["2"] > 0.05


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "exact_scoring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "secondorder" in proc.stderr
