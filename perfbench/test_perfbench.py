"""Self-tests for the benchmark harness.

    python3 -m pytest -q perfbench

They run every workload at a tiny size, so they take seconds, not minutes.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

run.import_library()

import spans  # noqa: E402
import workloads  # noqa: E402
from wseries import Series, pipelines, weierstrass  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_prints_every_declared_metric(name, trace, capsys):
    result = run.run(name, seed=7, seconds=0.05, trace=trace, small=True)
    printed = capsys.readouterr().out
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        line = next(l for l in printed.splitlines()
                    if l.split()[:1] == [m["name"]])
        assert line.split()[-1] == m["unit"]
    assert result["correct"] and result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly(capsys):
    first = run.run("divide", seed=3, seconds=0, trace=True, small=True)
    second = run.run("divide", seed=3, seconds=0, trace=True, small=True)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [n for n, u in units.items() if u != "s"]
    assert {n: first["metrics"][n] for n in counts} == \
        {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["series.out.terms"]["value"] > 0


def test_recorder_restores_the_library():
    original = Series.__dict__["__mul__"]
    uninstall = spans.Recorder().install()
    assert Series.__dict__["__rmul__"] is not original
    assert pipelines.weierstrass_prepare is weierstrass.weierstrass_prepare
    uninstall()
    assert Series.__dict__["__mul__"] is original
    assert Series.__dict__["__rmul__"] is original


def _corrupt_extension(monkeypatch):
    good = pipelines.holomorphic_extension

    def corrupted(h):
        ext = good(h)
        bump = Series(2, ext.u.trunc, {(1, 1): 1})
        return replace(ext, u=ext.u + bump)

    monkeypatch.setattr(pipelines, "holomorphic_extension", corrupted)


def _corrupt_division(monkeypatch):
    good = weierstrass.weierstrass_divide

    def corrupted(g, f, k):
        div = good(g, f, k)
        return replace(div, quotient=div.quotient + 1)

    monkeypatch.setattr(weierstrass, "weierstrass_divide", corrupted)


def _corrupt_cli(monkeypatch):
    good = workloads.Cli.call

    def corrupted(self, case):
        out = good(self, case)
        return replace(out, code=out.code ^ 1)

    monkeypatch.setattr(workloads.Cli, "call", corrupted)


@pytest.mark.parametrize("name, corrupt", [
    ("holo", _corrupt_extension),
    ("divide", _corrupt_division),
    ("cli", _corrupt_cli),
])
def test_corrupted_output_counts_as_failed(name, corrupt, monkeypatch, capsys):
    corrupt(monkeypatch)
    result = run.run(name, seed=5, seconds=0.05, trace=False, small=True)
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]
    ratio = next(l for l in capsys.readouterr().out.splitlines()
                 if l.split()[:1] == ["failed_ratio"])
    assert float(ratio.split()[1]) == 1.0


def test_cli_pool_passes_and_probes_hit_only_the_nesting_escape():
    cli = workloads.setup("cli", seed=11, small=True)
    for case in cli.pool:
        assert cli.check(case, cli.call(case)) is None, case.kind
    for case in cli.probes:
        assert case.kind == "deep-nest"
        assert cli.check(case, cli.call(case)) in (None, workloads.KNOWN_ESCAPE)


def test_traced_cli_run_reports_the_nesting_escapes():
    result = run.run("cli", seed=11, seconds=0, trace=True, small=True)
    assert result["correct"] and result["failed"] == 0
    escapes = result["metrics"]["cli.nesting_escapes"]["value"]
    assert escapes <= len(workloads.setup("cli", seed=11, small=True).probes)


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail(list(range(1, 101))) == (90, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "holo", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
