"""Tests of the benchmark itself, on tiny versions of the workloads.

    python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


def test_spec_matches_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # With --trace 1 an operation whose traced verdict differs from the
    # untraced one is counted as failed.
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m
            in _spec()["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec
    printed = [line.split() for line in proc.stdout.splitlines()
               if line.startswith("  ")]
    assert {words[0]: words[-1] for words in printed} == spec


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_verdicts_equal_untraced(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](tiny=True)
    plain = run.run_pass(wl, None, False, run.Probes(), 0)
    tracer = tracing.Tracer(str(tmp_path / "spans"))
    traced = run.run_pass(wl, None, False, run.Probes(tracer=tracer), 0)
    assert plain.failed == traced.failed == 0
    assert plain.verdicts == traced.verdicts


def test_tracer_restores_every_function():
    # In a fresh interpreter, so that the tracer itself is the first to
    # import repstable.cli (which imports build_repetitive_window by name).
    code = """if True:
        import tracing
        from repstable import linalg, modules, repetitive
        before = (repetitive.build_repetitive_window, linalg.rref,
                  modules.MorphismSystem.__dict__["solve"])
        with tracing.Tracer():
            from repstable import cli
            assert cli.build_repetitive_window is not before[0]
            assert linalg.rref is not before[1]
        assert (cli.build_repetitive_window, linalg.rref,
                modules.MorphismSystem.__dict__["solve"]) == before
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [HERE, os.path.join(ROOT, "src")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ex4-cli", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
