"""Smoke tests for scripts/: each runs in a fresh interpreter on the package
source, as a user would run it."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import clubval

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _run_script(name, *args, **set_env):
    env = {k: v for k, v in os.environ.items() if k != "VALUATE_FX_RATE"}
    env.update(set_env)
    src = str(Path(clubval.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_valuations_writes_its_outputs(tmp_path):
    _run_script("reproduce_valuations.py", "--out-dir", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "jleague_valuations.csv",
        "jleague_valuations.txt",
        "premiums.txt",
        "scatter_combined.svg",
        "scatter_jleague.svg",
    ]
    assert (tmp_path / "jleague_valuations.csv").read_bytes() == (
        ROOT / "tests" / "golden" / "apply.csv"
    ).read_bytes()


def test_reproduce_valuations_ignores_the_fx_rate_variable(tmp_path):
    plain, with_env = tmp_path / "plain", tmp_path / "with_env"
    _run_script("reproduce_valuations.py", "--out-dir", str(plain))
    _run_script("reproduce_valuations.py", "--out-dir", str(with_env), VALUATE_FX_RATE="300")
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in with_env.iterdir()) == names
    for name in names:
        assert (with_env / name).read_bytes() == (plain / name).read_bytes(), name


def test_dof_consistency_search_finds_only_35():
    lines = _run_script("dof_consistency_search.py").splitlines()
    start = lines.index("dof values consistent with every printed p-value:") + 1
    consistent = []
    for line in lines[start:]:
        if not line.startswith("  dof="):
            break
        consistent.append(line.split(":")[0].strip())
    assert consistent == ["dof=35"]


_STUB_BENCH = '''\
import json, os, sys
from pathlib import Path
assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPYCACHEPREFIX" not in os.environ
assert not Path("src/stub/__pycache__").exists()
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
assert args["--seconds"] == "10" and args["--trace"] == "0", args
print(json.dumps({"workload": args["--workload"], "seed": args["--seed"]}))
ms = float(Path("ms.txt").read_text())
spec = json.loads(Path("BENCHMARK.json").read_text())
values = {"op_p50_ms": ms, "op_p90_ms": ms, "op_ok_ratio": 1.0}
print(json.dumps({"correct": True, "attempted": 100, "failed": 0, "metrics": {
    m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]}
    for m in spec["end_to_end"]}}))
'''


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_pairs_claims_nothing_from_two_pairs(tmp_path):
    # A stub benchmark in a throwaway repository: the committed side reads
    # 10 ms, the uncommitted working tree 9 ms, so the change wins both
    # pairs; two pairs are too few for a claim. The stub also checks that
    # the runs write no bytecode.
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "src" / "stub").mkdir(parents=True)
    (repo / "src" / "stub" / "__init__.py").write_text("")
    (repo / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    (repo / "bench" / "run.py").write_text(_STUB_BENCH)
    (repo / "ms.txt").write_text("10.0")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + argv, cwd=repo, check=True, capture_output=True)
    (repo / "ms.txt").write_text("9.0")
    out = tmp_path / "pairs.json"
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_pairs.py"), "--parent", "HEAD", "--change",
         "worktree", "--workloads", "tall_stepwise", "--pairs", "2", "--seed", "5",
         "--claim", "tall_stepwise:op_p50_ms", "--out", str(out)],
        cwd=repo, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["bytecode"] == "none" and doc["change"]["uncommitted_changes"]
    assert [(p["seed"], p["first"]) for p in doc["runs"]["tall_stepwise"]] == [
        (5, "parent"), (6, "change")]
    p50 = doc["summary"]["tall_stepwise"]["metrics"]["op_p50_ms"]
    assert (p50["parent_runs"], p50["change_runs"], p50["change_wins"]) == ([10.0] * 2, [9.0] * 2, 2)
    assert p50["verdict"] == "within bound" and p50["change_pct"] == -10.0
    assert [c["met"] for c in doc["claims"]] == [False]
    assert "claim tall_stepwise op_p50_ms: not met" in proc.stdout
