"""Every study under scripts/ runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(script)], capture_output=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stdout.strip()


def test_result_sweep_slice_passes_the_oracles():
    # The meanprops, heron and curves sets: every call returns, and the
    # integer oracles and the curves' defining properties accept every
    # result.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "scripts" / "result_sweep.py"
    r = subprocess.run(
        [sys.executable, str(script), "meanprops", "heron", "curves"],
        capture_output=True, env=env, timeout=60,
    )
    assert r.returncode == 0, r.stderr.decode()
    lines = r.stdout.decode().splitlines()
    assert len(lines) == 1452 + 158 + 392
    rejected = [line for line in lines if not line.endswith(" :: ok")]
    assert not rejected, rejected[:3]
