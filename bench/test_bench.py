"""Tests of the benchmark's own code: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small(name: str, setup: int = 3, warm: int = 4) -> workloads.Workload:
    return dataclasses.replace(WORKLOADS[name], pool=setup + warm, setup=setup)


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)
    assert len(generate(workload, 7)) == workload.pool >= workloads.MIN_WARM_BRAIDS
    assert workload.setup <= workload.pool


def shape(spec: str) -> tuple[str, list[str], int]:
    """Strand count, colors up to their order, word length."""
    strands, colors, word = (part.split("=")[1] for part in spec.split("; "))
    return strands, sorted(colors.split(",")), len(word.split())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_only_the_letters_depend_on_the_seed(name):
    workload = WORKLOADS[name]
    assert [shape(s) for s in generate(workload, 1)] == [shape(s) for s in generate(workload, 2)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_generated_coloring_is_valid(name):
    modules = run.load_braidrt()
    cli, braid = modules["cli"], modules["braid"]
    for seed in range(3):
        for spec in generate(WORKLOADS[name], seed):
            b = cli.parse_braid_spec(spec)
            braid.closure_components(b)  # raises ColorMismatch on a bad coloring
            assert b.to_spec_string() == spec


def test_colored_words_hold_every_crossing_and_setup_knots_every_spin():
    workload = WORKLOADS["colored"]
    for seed in range(5):
        specs = generate(workload, seed)
        for spec in specs:
            word = {int(g) for g in spec.split("word=")[1].split()}
            assert word == {1, -1, 2, -2}
        spins = set()
        for spec in specs[:workload.setup]:
            colors = spec.split("colors=")[1].split(";")[0].split(",")
            assert len(set(colors)) == 1
            spins.add(colors[0])
        assert spins == {"1/2", "1", "3/2"}


def test_pipelines_for_runs_skein_on_spin_half_only():
    assert workloads.pipelines_for("n=2; colors=1/2,1/2; word=+1") == ("rt", "shadow", "skein")
    assert workloads.pipelines_for("n=2; colors=1/2,1; word=") == ("rt", "shadow")


def test_digest_is_stable_across_calls_and_runs():
    workload = small("fund", setup=3, warm=0)
    first, second = run.timed_setup(workload, 3)[0], run.timed_setup(workload, 3)[0]
    assert first.digest() == first.digest() == second.digest()
    assert not first.failures


def test_failures_are_logged_and_counted_per_evaluation(monkeypatch):
    specs = generate(WORKLOADS["fund"], 3)[:2]
    r = run.Run(specs, run.load_braidrt())
    real = r.cli.run_invariant

    def raising(b, pipeline, fmt):
        if pipeline == "skein":
            raise ZeroDivisionError("boom")
        return real(b, pipeline, fmt)

    def disagreeing(b, pipeline, fmt):
        out = json.loads(real(b, pipeline, fmt))
        if pipeline == "shadow":
            out["w_L"] = []
        return json.dumps(out)

    monkeypatch.setattr(r.cli, "run_invariant", raising)
    r.run_pass(range(2))
    assert r.attempted == 6 and len(r.failures) == 2
    assert r.failures == [f"[skein] {s}: raised ZeroDivisionError: boom" for s in specs]
    monkeypatch.setattr(r.cli, "run_invariant", disagreeing)
    r.run_pass(range(2))
    assert r.attempted == 12 and len(r.failures) == 2 + 6


def test_traced_run_gives_the_untraced_digest():
    workload = small("fund")
    untraced = run.measure(workload, 5, 0, setup_runs=1)
    traced = run.measure_traced(workload, 5)
    assert traced["run"].digest() == untraced["run"].digest()
    assert not traced["run"].failures and not untraced["run"].failures
    assert not any(traced["warm_cache_misses"].values())


def test_setup_process_reproduces_the_setup_digest():
    workload = WORKLOADS["colored"]
    seconds, digest = run.setup_in_child(workload, 2)
    assert seconds > 0
    assert digest == run.timed_setup(workload, 2)[0].digest(workload.setup)


def test_benchmark_json_names_the_harness_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        n: u for n, (u, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        n: u for n, (u, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_emitted(trace):
    workload = small("fund")
    if trace:
        result, table = run.measure_traced(workload, 1), "per_layer"
    else:
        result, table = run.measure(workload, 1, 0, setup_runs=1), "end_to_end"
    line = run.report(workload, 1, trace, result)
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert sorted(line["metrics"]) == sorted(m["name"] for m in BENCHMARK[table])
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fund", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
