#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and judge the result.

Each side is a clean copy in a temporary directory: `git archive` of a
commit, or, for `--change worktree`, the files of the working tree that
git tracks or would track (untracked files that .gitignore does not
name). Pair i runs seed `--seed` + i on both sides, the parent first in
even pairs and the change first in odd ones. Command, run length and
bounds come from the parent copy's BENCHMARK.json, so both sides run one
command: a run is that command with `--workload W --seed S --seconds T
--trace 0`, started in the copy, T being the file's run_seconds; its last
line of stdout is the benchmark's JSON result.

No bytecode (recorded in the output as "bytecode": "none"): each side
is a fresh copy without __pycache__, run under PYTHONDONTWRITEBYTECODE=1,
so every cold start compiles clubval, as on a fresh checkout.
PYTHONPYCACHEPREFIX is removed from the runs' environment: the prefix
applies to every module, so the standard library would compile on every
start (about 100 ms per cold start on a 2-CPU Xeon). PYTHONPATH is
removed too, so a run sees only its own copy.

For every workload and end-to-end metric the output gives each side's
median, quartiles, min and max, the change's wins (ties count for
neither side), the change in percent and a verdict on the metric's
BENCHMARK.json bound: "worse than bound" when the change's median is
worse by more than the bound; "unresolved" when the parent's own
interquartile distance is wider than the bound and not every run of the
change reads better than every run of the parent; else "within bound".

Claim rule, one for every claim: a `--claim WORKLOAD:METRIC` is met when
at least 10 pairs ran, the change wins at least 9 in 10 of them, the
medians differ in the change's favour by more than the parent's
interquartile distance, and the change fails no larger share of ops.
On subset_search, op_p50_ms swings widely between copies of one
commit, so claim op_p90_ms there. Nothing is claimed without --claim.

Usage:
    python3 scripts/bench_pairs.py --parent HEAD --change worktree \\
        --workloads tall_stepwise --pairs 10 --seed 70 \\
        --claim tall_stepwise:op_p50_ms --out BENCH_35.json

It works on the git repository of the current directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def git(*args: str, cwd: Path) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def make_copy(repo: Path, rev: str, dest: Path) -> dict:
    """A clean copy of rev, or of the working tree for "worktree", at dest."""
    dest.mkdir()
    head = git("rev-parse", "HEAD^{commit}" if rev == "worktree" else f"{rev}^{{commit}}",
               cwd=repo).decode().strip()
    if rev == "worktree":
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=repo)
        for name in filter(None, files.decode().split("\0")):
            if (repo / name).is_file():  # a tracked file deleted in the tree is left out
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(repo / name, dest / name)
        dirty = bool(git("status", "--porcelain", cwd=repo).strip())
        return {"rev": rev, "commit": head, "uncommitted_changes": dirty}
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", head, cwd=repo),
                   check=True)
    return {"rev": rev, "commit": head}


def run_once(copy: Path, command: list[str], workload: str, seed: int, seconds: float,
             env: dict[str, str]) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {copy} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' spreads, the change's wins and the bound verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0 is worse
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    base = abs(p["median"]) or 1.0
    worse = sign * (c["median"] - p["median"]) / base
    if worse > bound:
        verdict = "worse than bound"
    elif (p["q3"] - p["q1"]) / base > bound and not (
            max(sign * v for v in change) < min(sign * v for v in parent)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    pct = 100.0 * (c["median"] - p["median"]) / base
    return {"better": better, "bound": bound, "pairs": len(parent), "parent": p, "change": c,
            "change_wins": wins, "change_pct": round(pct, 2), "verdict": verdict,
            "parent_runs": parent, "change_runs": change}


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def claim_verdict(summary: dict, workload: str, metric: str) -> dict:
    m = summary[workload]["metrics"][metric]
    sign = 1.0 if m["better"] == "lower" else -1.0
    gap = sign * (m["parent"]["median"] - m["change"]["median"])
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    shares = summary[workload]["failed_share"]
    met = (m["pairs"] >= MIN_PAIRS and m["change_wins"] >= WIN_SHARE * m["pairs"]
           and gap > iqr and shares["change"] <= shares["parent"])
    return {"workload": workload, "metric": metric, "met": met, "pairs": m["pairs"],
            "change_wins": m["change_wins"], "median_gap": gap, "parent_iqr": iqr,
            "change_pct": m["change_pct"]}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the parent's commit")
    parser.add_argument("--change", required=True, help='the change\'s commit, or "worktree"')
    parser.add_argument("--workloads", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    claims = [tuple(c.split(":", 1)) for c in args.claim]
    if args.pairs < 1 or any(len(c) != 2 or c[0] not in args.workloads for c in claims):
        parser.error("--pairs must be >= 1, and each --claim WORKLOAD:METRIC name a run workload")

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).decode().strip())
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPYCACHEPREFIX", "PYTHONPATH")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        revs = {"parent": make_copy(repo, args.parent, sides["parent"]),
                "change": make_copy(repo, args.change, sides["change"])}
        spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        command, seconds = spec["command"], spec["run_seconds"]
        runs: dict[str, list[dict]] = {wl: [] for wl in args.workloads}
        for wl in args.workloads:
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], command, wl, seed, seconds, env)
                runs[wl].append(pair)
                print(f"{wl} pair {i} seed {seed}: " + ", ".join(
                    f"{side} op_p50_ms {pair[side]['metrics'].get('op_p50_ms', float('nan')):.3f}"
                    for side in ("parent", "change")), file=sys.stderr)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    for wl, pairs in runs.items():
        metrics = {}
        for name, m in bounds.items():
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            metrics[name] = judge(parent, change, m["better"], m["bound"])
        summary[wl] = {
            "failed_share": {side: failed_share([p[side] for p in pairs])
                             for side in ("parent", "change")},
            "metrics": metrics,
        }
    doc = {
        "what": (f"{' '.join(command)} --seconds {seconds} --trace 0 in {args.pairs} "
                 f"alternating parent/change pairs per workload at seeds {args.seed}-"
                 f"{args.seed + args.pairs - 1}, each side a clean copy, bytecode none"),
        "machine": machine(),
        "parent": revs["parent"],
        "change": revs["change"],
        "bytecode": "none",
        "command": command,
        "seconds": seconds,
        "claim_rule": (f"at least {MIN_PAIRS} pairs, the change wins at least "
                       f"{WIN_SHARE:.0%} of them (ties count for neither), the medians "
                       "differ in its favour by more than the parent's interquartile "
                       "distance, and it fails no larger share of ops"),
        "claims": [claim_verdict(summary, wl, metric) for wl, metric in claims],
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for wl, s in summary.items():
        for name, m in s["metrics"].items():
            print(f"{wl:14} {name:12} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g} ({m['change_pct']:+.1f}%)  wins "
                  f"{m['change_wins']}/{m['pairs']}  {m['verdict']}")
    for c in doc["claims"]:
        print(f"claim {c['workload']} {c['metric']}: {'met' if c['met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
