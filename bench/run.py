"""clubval's benchmark: four seeded, closed-loop workloads with one client.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload cold_cli --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): cold_cli, bulk_table, subset_search and
tall_stepwise. Each op gets a freshly generated input that is not timed,
and its output is checked against an oracle that does not use clubval;
an op that raises, exits non-zero or fails its check counts as failed.

With ``--trace 0`` the run measures the end-to-end metrics:

- setup_s: median over SETUP_RUNS fresh interpreters of ``import
  clubval`` plus one warm-up op, not counting input generation;
- op_p50_ms, op_p90_ms: latency of one op. The loop runs for
  ``--seconds`` and at least MIN_OPS ops, so ten samples lie beyond p90;
- ops_per_s: ops per second of timed op time, at the workload's size;
- peak_rss_mb: this process's peak RSS; for cold_cli the largest child's;
- op_ok_ratio: ops that passed their check over ops attempted.

With ``--trace 1`` the run measures the per-layer metrics instead: it
runs TRACE_OPS ops twice each, untraced and traced (tracer.py), derives
layer times and counts from the spans, and reports the tracing overhead.
A fixed op count makes every count repeat exactly for a seed. The traced
run also re-measures this workload's rows of the ROADMAP baseline table
(baseline.py) and writes spans and results under .bench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The run exits 2 without a result when the
clubval sources are missing. The benchmark's own tests run with
``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import baseline  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import GOLDEN, ROOT, SRC, OpFailed, run_child  # noqa: E402

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
MIN_OPS = 100
MAX_LOOP_S = 120.0
SETUP_RUNS = 3
TRACE_OPS = {"cold_cli": 20, "bulk_table": 10, "subset_search": 20, "tall_stepwise": 20}


def p90(samples: list[float]) -> float:
    """90th percentile; refused below MIN_OPS samples, where fewer than
    ten would lie beyond it."""
    if len(samples) < MIN_OPS:
        raise ValueError(f"p90 needs at least {MIN_OPS} samples, got {len(samples)}")
    return statistics.quantiles(samples, n=10)[8]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def attempt(wl: workloads.Workload, inp, run) -> tuple[float, str | None]:
    """Run one op; return its latency and the reason it failed, if it did."""
    start = perf_counter()
    try:
        out = run(inp)
    except Exception as exc:  # an op that raises counts as failed
        return perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        wl.check(inp, out)
    except OpFailed as exc:
        return elapsed, str(exc)
    except Exception as exc:  # output too malformed for the check to read
        return elapsed, f"check raised {type(exc).__name__}: {exc}"
    return elapsed, None


def warm_up(wl: workloads.Workload, seed: int, stream: str) -> tuple[float, float]:
    """Import clubval and run the warm-up op: (import seconds, op seconds)."""
    start = perf_counter()
    wl.load()
    loaded = perf_counter()
    inp = wl.warm_up_input(seed, stream)
    begun = perf_counter()
    out = wl.warm_up(inp)
    done = perf_counter()
    wl.check_warm_up(inp, out)
    return loaded - start, done - begun


def setup_probe(args, wl) -> int:
    load_s, op_s = warm_up(wl, args.seed, "setup")
    print(json.dumps({"setup_s": load_s + op_s}))
    return 0


def measure_setup(args) -> float:
    samples = []
    for _ in range(SETUP_RUNS):
        code, out, err, _ = run_child([
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
        ])
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err.decode(errors='replace')[-500:]}")
        samples.append(json.loads(out.decode().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def report_failure(failures: list[str], op_id: int, reason: str) -> None:
    if len(failures) < 5:
        print(f"op {op_id} failed: {reason}", file=sys.stderr)
    failures.append(reason)


def end_to_end(args, wl) -> dict:
    setup_s = measure_setup(args)
    warm_up(wl, args.seed, "warmup")
    latencies: list[float] = []
    failures: list[str] = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        enough = elapsed >= args.seconds and len(latencies) >= MIN_OPS
        if enough or elapsed >= MAX_LOOP_S:
            break
        op_id = len(latencies)
        latency, reason = attempt(wl, wl.make_input(args.seed, op_id), wl.run)
        latencies.append(latency)
        if reason is not None:
            report_failure(failures, op_id, reason)
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "latencies_ms": [1e3 * t for t in latencies],
        "metrics": {
            "setup_s": setup_s,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p90_ms": 1e3 * p90(latencies),
            "ops_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": wl.peak_rss_kib() / 1024,
            "op_ok_ratio": (len(latencies) - len(failures)) / len(latencies),
        },
    }


def interpreter_probes() -> dict[str, float]:
    """cli.startup_ms (a floor) and cli.import_ms over it, from fresh children."""
    startup = baseline.cold_ms([sys.executable, "-c", "pass"])
    imported = baseline.cold_ms([sys.executable, "-c", "import clubval.cli"])
    return {"cli.startup_ms": startup, "cli.import_ms": imported - startup}


def per_layer(args, wl) -> dict:
    warm_up(wl, args.seed, "warmup")
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    failures: list[str] = []
    ops = TRACE_OPS[wl.name]
    for op_id in range(ops):
        inp = wl.make_input(args.seed, op_id)
        # Alternate which run goes first, so neither always meets a warm cache.
        for traced_turn in ((False, True) if op_id % 2 else (True, False)):
            if traced_turn:
                with tracer.op_span(op_id):
                    latency, reason = attempt(wl, inp, wl.run_in_process)
                traced.append(latency)
            else:
                latency, reason = attempt(wl, inp, wl.run_in_process)
                plain.append(latency)
            if reason is not None:
                report_failure(failures, op_id, reason)
    metrics = {"cli.startup_ms": 0.0, "cli.import_ms": 0.0}
    if wl.name == "cold_cli":
        metrics.update(interpreter_probes())
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl")
    table = baseline.measure(wl.name, args.seed)
    for what, value, unit in table:
        print(f"baseline  {what}: {value:.4g} {unit}")
    return {
        "attempted": 2 * ops,
        "failed": len(failures),
        "metrics": metrics,
        "baseline": table,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    missing = [p for p in (SRC / "clubval" / "__init__.py", GOLDEN, BENCHMARK_JSON)
               if not p.exists()]
    if missing:
        print(f"error: cannot benchmark, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("VALUATE_FX_RATE", None)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl = workloads.make(args.workload, workdir)
        if args.setup_probe:
            return setup_probe(args, wl)
        info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "machine": machine()}
        print(json.dumps(info))
        result = (per_layer if args.trace else end_to_end)(args, wl)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(result["metrics"]) != set(declared):
        print(f"error: measured {sorted(result['metrics'])}, declared {sorted(declared)}",
              file=sys.stderr)
        return 1
    record = dict(info, **result)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
