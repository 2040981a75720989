"""Smoke test of the benchmark itself, on tiny (2x1x4) instances.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

harness = run.load_harness()
spans = harness.spans
TINY = harness.Size(2, 1, 4, seeds=1)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind, tmp_path):
    result = run.run(workload, 3, 0.2, trace, tmp_path, TINY)
    assert result["failures"] == []
    assert result["correct"] and result["attempted"] >= 1
    assert result["absent_spans"] == []
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    if trace:
        assert (tmp_path / "spans.jsonl").stat().st_size > 0


def _perturb_surplus(monkeypatch):
    clear = harness.cli_io.clear

    def wrong(*args, **kwargs):
        solution = clear(*args, **kwargs)
        return dataclasses.replace(solution, surplus=solution.surplus * (1.0 + 1e-5) + 1.0)

    monkeypatch.setattr(harness.cli_io, "clear", wrong)


def _drop_audit_check(monkeypatch):
    audit = harness.cli_io.run_full_audit

    def weaker(*args, **kwargs):
        report = audit(*args, **kwargs)
        return dataclasses.replace(report, checks=report.checks[:-1])

    monkeypatch.setattr(harness.cli_io, "run_full_audit", weaker)


@pytest.mark.parametrize(
    "workload,corrupt",
    [
        ("clear-3day", _perturb_surplus),
        ("compare-fleet", _perturb_surplus),
        ("audit-desk", _drop_audit_check),
    ],
)
def test_corrupted_output_counts_as_failed(workload, corrupt, monkeypatch, tmp_path):
    corrupt(monkeypatch)
    result = run.run(workload, 3, 0.2, False, tmp_path, TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_frac"]["value"] == 0.0


def test_missing_layer_is_reported_absent(monkeypatch, tmp_path):
    gone = ("stclear.cli_io", "renamed_away", "cli_io.renamed_away", None)
    monkeypatch.setattr(spans, "LAYERS", [*spans.LAYERS, gone])
    result = run.run("clear-3day", 3, 0.2, True, tmp_path, TINY)
    assert result["correct"]
    assert result["absent_spans"] == ["stclear.cli_io.renamed_away"]


def test_self_time_excludes_child_spans():
    recorded = [
        spans.Span(0, spans.ROOT, "op", None, 0.0, 10.0),
        spans.Span(1, spans.RUN_FULL_AUDIT, "op", 0, 1.0, 9.0),
        spans.Span(2, spans.SOLVE, "op", 1, 2.0, 5.0, {"sense": "min", "m": 3, "iterations": 7}),
        spans.Span(3, spans.CLEAR, "op", 1, 5.0, 8.0),
    ]
    m = spans.op_metrics(recorded, "op")
    assert m["property_auditor.run_full_audit_s"] == 8.0
    assert m["property_auditor.self_s"] == 2.0
    assert m["simplex_solver.dual_iterations"] == 7
    assert m["simplex_solver.basis_dense_bytes"] == 8 * 3**2
    assert m["trace.coverage_frac"] == 0.8


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
