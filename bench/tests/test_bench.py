"""Tests of the benchmark's own logic: spans, percentiles, workloads, contract."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import layers
import run
import workloads
from spans import COUNT, NAME, PARENT, ROOT, Instrumentation, Tracer, self_times
from stats import highest_percentile, summarize

REPO = run.ROOT


def _span(name, start, end, parent, root):
    return [name, start, end, parent, root, None]


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            _span("root", 0.0, 10.0, -1, 0),
            _span("a", 1.0, 3.0, 0, 0),
            _span("a.child", 1.5, 2.5, 1, 0),
            _span("b", 2.0, 5.0, 0, 0),       # overlaps "a": counted once
            _span("c", 9.0, 12.0, 0, 0),      # runs past the parent: clipped
            _span("other", 20.0, 21.0, -1, 5),
        ]
        assert self_times(spans) == pytest.approx([10 - 4 - 1, 1.0, 1.0, 3.0, 3.0, 1.0])

    def test_tracer_links_parents_and_roots(self):
        clock = iter(range(100)).__next__
        tracer = Tracer(clock=clock)
        with tracer.span("op"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
        with tracer.span("op2"):
            pass
        s = tracer.spans
        assert [x[NAME] for x in s] == ["op", "inner", "leaf", "op2"]
        assert [x[PARENT] for x in s] == [-1, 0, 1, -1]
        assert [x[ROOT] for x in s] == [0, 0, 0, 3]
        assert self_times(s) == [5 - 3, 3 - 1, 1, 1]

    def test_close_out_of_order_raises(self):
        tracer = Tracer()
        outer = tracer.open("outer")
        tracer.open("inner")
        with pytest.raises(RuntimeError):
            tracer.close(outer)


class TestPercentileRule:
    def test_p90_needs_a_hundred_samples(self):
        s = summarize(range(1, 101))
        assert (s["n"], s["q"], s["tail"], s["p50"]) == (100, 90.0, 90.0, 50.5)

    def test_fewer_samples_lower_the_percentile(self):
        s = summarize(range(1, 51))
        assert s["q"] == 80.0
        assert sum(1 for x in range(1, 51) if x > s["tail"]) == 10

    @pytest.mark.parametrize("n", [11, 23, 37, 99, 100, 101, 1000])
    def test_always_ten_beyond(self, n):
        s = summarize(range(n))
        assert s["q"] <= 90.0
        assert sum(1 for x in range(n) if x > s["tail"]) >= 10

    def test_too_few_samples(self):
        assert highest_percentile(10) is None
        assert summarize([3.0] * 10)["tail"] is None
        assert summarize([])["n"] == 0


def test_instrumentation_traces_forward_backward_and_restores():
    from conceptfx import autodiff as ad

    original = ad.matmul
    tracer = Tracer()
    instr = Instrumentation(tracer)
    with instr.on():
        assert ad.matmul is not original
        w = ad.Tensor([[1.0], [2.0]], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_axis(ad.matmul(ad.Tensor([[1.0, 1.0]]), w), axis=0)
            loss = ad.sum_axis(loss, axis=0)
        tape.backward(loss)
    assert ad.matmul is original
    names = [s[NAME] for s in tracer.spans]
    assert names.count("autodiff.matmul.fwd") == 1
    assert names.count("autodiff.matmul.bwd") == 1
    backward = next(s for s in tracer.spans if s[NAME] == "autodiff.Tape.backward")
    assert backward[COUNT] == 3
    assert w.grad.tolist() == [[1.0], [1.0]]


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


TINY = {
    "poms-stage2-train": dict(n=200, batch=8, min_steps=30, loss_window=10, lr=5e-3, grl_lambda=0.1),
    "poms-stage3-eval": dict(n=100, batch=16, head_batch=16, head_epochs=1, min_batches=5),
    "reviews-topics": dict(n=200, lda_iters=2, min_fits=3),
}


def _traced_run(name, tmp_path):
    primary, runner, config_cls = workloads.WORKLOADS[name]
    tracer = Tracer()
    m = workloads.Measure(primary, 0.0, tracer)
    runner(3, m, tmp_path, replace(config_cls(), **TINY[name]))
    return m, tracer


def _tiny_config(name):
    return replace(workloads.WORKLOADS[name][2](), **TINY[name])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    part = workloads.run_worker(name, 3, 0.0, str(tmp_path), _tiny_config(name))
    assert (part["failed"], part["errors"]) == (0, [])
    assert part["attempted"] > 0 and part["op_ms"] and part["units"] > 0
    metrics, _ = run.end_to_end([part])
    assert set(metrics) == set(run.E2E_UNITS)
    assert all(v > 0 for k, v in metrics.items() if k != "op_ms_p90")


def test_untraced_run_pools_fresh_processes(tmp_path):
    parts = run.measure("reviews-topics", 3, 0.0, tmp_path, _tiny_config("reviews-topics"))
    assert len(parts) == workloads.PROCESSES
    assert len({p["loss_end"] for p in parts}) == 1  # same seed, same fitted model
    metrics, samples = run.end_to_end(parts)
    assert samples["op_ms"]["n"] == sum(len(p["op_ms"]) for p in parts)
    assert metrics["throughput_per_s"] > 0


def test_a_failed_measuring_process_stops_the_run_with_its_stderr(tmp_path):
    with pytest.raises(RuntimeError, match="KeyError: 'no-such-workload'"):
        run.measure("no-such-workload", 3, 0.0, tmp_path)


def test_a_slow_host_ends_the_loop_on_time():
    m = workloads.Measure("step", 1.0)
    m.start = workloads.time.perf_counter() - 0.5
    assert not m.done(min_samples=1)
    m.start = workloads.time.perf_counter() - 2.0
    assert not m.done(min_samples=1)  # time is up, but no timed step yet
    m.start = workloads.time.perf_counter() - workloads.MAX_SECONDS
    assert m.done(min_samples=1)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_workload_reports_every_layer_metric(name, tmp_path):
    m, tracer = _traced_run(name, tmp_path)
    assert m.failed == 0
    primary = workloads.WORKLOADS[name][0]
    metrics = layers.per_layer(tracer.spans, primary, 1.0)
    assert list(metrics) == list(layers.metric_units())
    if name == "reviews-topics":
        assert metrics["topics.us_per_token_sweep"] > 0
        assert metrics["autodiff.matmul.calls"] == 0
    else:
        assert metrics["autodiff.gelu.calls"] == 2.0  # one per encoder layer
        assert metrics["topics.fit_lda.s"] == 0
    if name == "poms-stage2-train":
        assert metrics["autodiff.gelu.bwd_ms"] > 0
        assert metrics["optim.Adam.step.ms"] > 0
    if name == "poms-stage3-eval":
        assert metrics["autodiff.gelu.bwd_ms"] == 0
        assert metrics["checkpoint.bytes_written"] > 0


def test_a_failed_check_counts_as_a_failed_operation(tmp_path, monkeypatch):
    from conceptfx import checkpoint

    hashes = iter(range(10**6))
    monkeypatch.setattr(checkpoint, "checkpoint_hash", lambda arrays: next(hashes))
    part = workloads.run_worker("poms-stage3-eval", 3, 0.0, str(tmp_path),
                                _tiny_config("poms-stage3-eval"))
    assert part["failed"] > 0
    assert all("checkpoint_hash changed" in e for e in part["errors"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "reviews-topics",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
