"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They show that injected faults count as failures and that the metric
names the benchmark prints are the ones declared in BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_transcript_mismatch_counts_as_failure():
    wl = workloads.TcpDemo(seed=5)
    wl.setup()
    wl.begin_block()
    wl.failed = 0
    for i in range(3):
        wl.op(i)
    wl.end_block(3)
    assert wl.failed == 0
    wl.digests[1] = (1, bytes(32))
    wl.end_block(3)
    assert wl.failed == 1
    assert "differs from the loopback transcript" in wl.problems[-1]


@pytest.mark.parametrize("relative, failed", [(1e-6, 1), (1e-11, 0)])
def test_wrong_trace_norm_reference_counts_as_failure(relative, failed):
    row = dict(workloads.REFERENCE["bounds"]["ladder"][0])
    row["trace_norm_numeric"] *= 1.0 + relative
    wl = workloads.DenseReports(seed=0)
    wl.setup()
    kind, argv, _ = wl.commands[0]
    assert argv[:3] == ["bounds", "-t", str(row["t"])]
    wl.commands[0] = (kind, argv, wl._bounds_check(row))
    block = wl.run_block(0.0)
    assert (block.attempted, block.failed) == (1, failed)


def test_wrong_wigner_digest_counts_as_failure(monkeypatch):
    reference = json.loads(json.dumps(workloads.REFERENCE))
    reference["wigner"]["sha256"] = "0" * 64
    wl = workloads.DenseReports(seed=0)
    wl.setup()
    monkeypatch.setattr(workloads, "REFERENCE", reference)
    block = wl.run_block(0.0)
    assert (block.attempted, block.failed) == (1, 1)
    assert "recorded digest" in wl.problems[-1]


def test_binomial_tails_sum_the_exact_pmf():
    below, above = workloads.binomial_tails(1, 3, 0.5)
    assert below == pytest.approx(0.5)
    assert above == pytest.approx(0.875)


@pytest.mark.parametrize("cheat_factor, guess_rate, failed", [
    (1.0, 0.5, 0), (2.2, 0.5, 1), (0.1, 0.5, 1), (1.0, 0.76, 1)])
def test_statistical_checks(cheat_factor, guess_rate, failed):
    wl = workloads.McLoopback(seed=0)
    n = wl.window
    wl.pca, wl.guess_bound = 0.0029, 0.71
    wl.begin_block()
    wl.cheat_accepted = round(cheat_factor * wl.pca * n)
    wl.guess_hits = round(guess_rate * n)
    wl.end_block(3 * n)
    assert wl.failed == failed * n


def test_count_mismatch_counts_as_failure():
    wl = workloads.TcpDemo(seed=0)
    one = workloads.Block([], 1.0, 1, 0, {"transport.messages": 5})
    other = workloads.Block([], 1.0, 1, 0, {"transport.messages": 6})
    worker.count_mismatches(wl, one, one)
    assert wl.failed == 0
    worker.count_mismatches(wl, one, other)
    assert wl.failed == 1


def test_self_time_subtracts_union_of_children():
    spans = [
        tracer.Span(0, None, "root", "", 0, 100, 0),
        tracer.Span(1, 0, "a", "", 10, 40, 0),
        tracer.Span(2, 0, "b", "", 30, 60, 0),   # overlaps a (other thread)
        tracer.Span(3, 1, "c", "", 15, 20, 0),   # grandchild, inside a
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {0: 50, 1: 25, 2: 30, 3: 5}


def test_entry_point_the_program_lacks_reads_zero(monkeypatch):
    from phasebc import security, transport

    monkeypatch.delattr(transport, "coherent_vector")
    monkeypatch.delattr(security, "build_D")
    recorder = tracer.Tracer()
    tracer.install(recorder)
    recorder.restore()
    assert not hasattr(transport, "coherent_vector")
    # A trace_norm_check span at t=4 with no build_D child below it.
    spans = [tracer.Span(0, None, "cli.main", "bounds", 0, 100, 0),
             tracer.Span(1, 0, "security.trace_norm_check", "4.0", 10, 90, 0),
             tracer.Span(2, 1, "fock.trace_norm", "", 20, 50, 0)]
    wl = workloads.DenseReports(seed=0)
    block = workloads.Block([], 1.0, 1, 0, {"csv_bytes": 1})
    layers = wl.layer_metrics(spans, block)
    assert layers["security.trace_norm_check_ms.N85"] == (pytest.approx(80e-6), "ms")
    assert layers["fock.trace_norm_ms.N85"] == (pytest.approx(30e-6), "ms")
    assert layers["codestates.build_D_ms.N85"] == (0.0, "ms")
    assert layers["mayers.build_kit_ms"] == (0.0, "ms")


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_declaration(trace, section):
    proc = run_benchmark(ROOT, "--workload", "tcp-demo", "--seed", "2",
                         "--seconds", "2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "tcp-demo", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
