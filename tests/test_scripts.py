"""Smoke tests for scripts/: each runs in a fresh interpreter on the package
source, as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

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
