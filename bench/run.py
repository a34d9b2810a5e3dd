"""Benchmark entry point: one workload, one seed, untraced or traced.

    python3 bench/run.py --workload poms-stage2-train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; conceptfx is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
name every metric with its unit and give the run's provenance.  A full
record (and, when traced, every span) is written under ``.bench_out/``.

The untraced run measures in three fresh processes, one after another, each
for a third of ``--seconds``, and pools their samples.  The traced run
measures in this process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from stats import summarize

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170  # the untraced run's processes together, set-up included

# End-to-end metrics, with their unit, reported by every workload.
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "throughput_per_s": "1/s",
    "loss_end": "nats",
    "peak_rss_mb": "MB",
}

# The workload-specific names of the same numbers.
WORKLOAD_NAMES_OF = {
    "poms-stage2-train": {"op_ms_p50": "train_step_ms_p50", "op_ms_p90": "train_step_ms_p90",
                          "throughput_per_s": "train_examples_per_s",
                          "loss_end": "stage2_loss_end"},
    "poms-stage3-eval": {"op_ms_p50": "eval_batch_ms_p50", "op_ms_p90": "eval_batch_ms_p90",
                         "throughput_per_s": "eval_examples_per_s",
                         "loss_end": "task_head_loss_end"},
    "reviews-topics": {"op_ms_p50": "lda_fit_ms_p50", "op_ms_p90": "lda_fit_ms_p90",
                       "throughput_per_s": "lda_token_sweeps_per_s",
                       "loss_end": "lda_token_nll"},
}


def git_revision(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes
    import glob

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        return int(get())
    return None


def module_lines(src: Path) -> dict[str, int]:
    """Non-blank lines per conceptfx module, recorded for simplicity work."""
    counts = {}
    for path in sorted((src / "conceptfx").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts[path.relative_to(src).as_posix()] = sum(1 for line in text.splitlines() if line.strip())
    counts["total"] = sum(counts.values())
    return counts


def provenance(args, config: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": config,
        "git_revision": git_revision(ROOT),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "module_lines": module_lines(ROOT / "src"),
    }


def _finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def measure(workload: str, seed: int, seconds: float, work: Path, config=None) -> list[dict]:
    """The untraced run: ``PROCESSES`` fresh processes, one after another.

    Pure-Python code runs up to ~15% faster or slower from one process to
    the next; pooling the samples of several processes steadies the result.
    """
    import workloads

    overrides = json.dumps(asdict(config) if config is not None else {})
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    deadline = time.monotonic() + RUN_LIMIT_S
    parts = []
    for i in range(workloads.PROCESSES):
        cmd = [sys.executable, workloads.__file__, workload, str(seed),
               str(seconds / workloads.PROCESSES), str(work), overrides]
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True,
                                 timeout=max(1.0, deadline - time.monotonic()))
            parts.append(json.loads(out.stdout))
        except (subprocess.SubprocessError, ValueError) as e:
            stderr = getattr(e, "stderr", None) or ""
            if isinstance(stderr, bytes):  # a timeout hands back bytes even with text=True
                stderr = stderr.decode(errors="replace")
            raise RuntimeError(f"measuring process {i + 1} of {workloads.PROCESSES} failed: {e}\n"
                               f"{stderr[-4000:]}") from e
        sys.stderr.write(out.stderr)
    return parts


def end_to_end(parts: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics over the pooled processes, and their sample counts."""
    def pooled(key):
        return [x for part in parts for x in part[key]]

    op_ms = pooled("op_ms")
    op, run = summarize(op_ms), summarize(pooled("pass_s"))
    values = {
        "setup_s": statistics.median(pooled("setup_s")),
        "run_s": run["p50"],
        "op_ms_p50": op["p50"],
        "op_ms_p90": op["tail"],
        "throughput_per_s": sum(p["units"] for p in parts) / (sum(op_ms) / 1e3),
        "loss_end": statistics.median(p["loss_end"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    samples = {"processes": len(parts), "setup_s": {"n": len(pooled("setup_s"))},
               "run_s": run, "op_ms": op}
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_NAMES_OF))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "conceptfx" / "__init__.py").is_file():
        print(f"error: no conceptfx sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    # The matrices are small; one BLAS thread keeps timings steady when other
    # processes share the CPUs.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(src))

    import layers
    import workloads
    from spans import Tracer

    primary, runner, config_cls = workloads.WORKLOADS[args.workload]
    config = config_cls()
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    record = {"provenance": provenance(args, asdict(config))}
    try:
        if args.trace:
            tracer = Tracer()
            m = workloads.Measure(primary, args.seconds, tracer)
            result = runner(args.seed, m, work, config)
            attempted, failed, errors = m.attempted, m.failed, m.errors
        else:
            parts = measure(args.workload, args.seed, args.seconds, work)
            attempted = sum(p["attempted"] for p in parts)
            failed = sum(p["failed"] for p in parts)
            errors = [e for p in parts for e in p["errors"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(attempted=attempted, failed=failed, errors=errors[:20])
    if args.trace:
        untraced, traced = m.times[primary], m.traced_times[primary]
        overhead = (statistics.median(traced) / statistics.median(untraced)
                    if traced and untraced else float("nan"))
        metrics = layers.per_layer(tracer.spans, primary, overhead)
        units = layers.metric_units()
        lines = [(k, metrics[k], units[k]) for k in units]
        record["details"] = result.details
        record["spans"] = layers.span_table(tracer.spans)
        record["overhead"] = {"primary": primary, "traced_n": len(traced),
                              "untraced_n": len(untraced), "ratio": overhead}
    else:
        metrics, record["samples"] = end_to_end(parts)
        units = E2E_UNITS
        aliases = WORKLOAD_NAMES_OF[args.workload]
        lines = [(aliases.get(k, k), metrics[k], units[k]) for k in units]
        record["details"] = [p["details"] for p in parts]
        lines += [(k, statistics.median(d[k] for d in record["details"]), "1/s")
                  for k in parts[0]["details"] if k.endswith("_per_s")]
    record["metrics"] = {name: {"value": value, "unit": unit} for name, value, unit in lines}

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        with open(out_dir / f"{name}.spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")

    print(json.dumps({"provenance": record["provenance"]}, default=str))
    for metric, value, unit in lines:
        print(f"{metric} = {value} {unit}")
    for err in errors[:20]:
        print(f"failure: {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _finite(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
