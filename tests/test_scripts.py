"""Every study under scripts/ runs to completion and prints something, and
the result sweep's verdicts are those of a correct library."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SWEEP = ROOT / "scripts" / "result_sweep.py"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

#: The sweep's sets in the order it prints them, with their line counts.
SWEEP_LINES = {"meanprops": 1452, "circle": 1926, "heron": 158, "roots": 932, "curves": 392}

#: The circle lines that may read otherwise than ok, by label, with the
#: verdict they may read: the documented 34th doublings at 1 digit refuse,
#: and the 80-digit pi bracket of the oracle cannot fit inside a bound
#: 1e-79 wide, so those correct bounds read WRONG (a fault of the oracle).
CIRCLE_EXCEPTIONS = {
    **{f"polygon {n}-gon doubled 34 times p=1": "refused" for n in (3, 4, 6)},
    **{
        f"pi_bounds target_width=1e-79 p={p}": "WRONG: bounds do not enclose pi"
        for p in (5, 10, 20, 30, 40, 52, 60)
    },
}


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(script), *args], capture_output=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr.decode()
    return r.stdout.decode()


@pytest.fixture(scope="module")
def sweep():
    # The result sweep's output, from one run of every set.
    return _run(SWEEP)


@pytest.fixture(scope="module")
def sweep_sets(sweep):
    lines = iter(sweep.splitlines())
    sets = {name: list(itertools.islice(lines, count)) for name, count in SWEEP_LINES.items()}
    sets["after the last set"] = list(lines)
    return sets


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_runs(script, request):
    # The sweep's one run is shared with the oracle tests below.
    out = request.getfixturevalue("sweep") if script == SWEEP else _run(script)
    assert out.strip()


def test_result_sweep_slice_passes_the_oracles(sweep_sets):
    # The meanprops, heron and curves sets: the integer oracles and the
    # curves' defining properties accept every result.
    for name in ("meanprops", "heron", "curves"):
        assert len(sweep_sets[name]) == SWEEP_LINES[name], name
        rejected = [line for line in sweep_sets[name] if not line.endswith(" :: ok")]
        assert not rejected, (name, rejected[:3])


def test_result_sweep_passes_the_oracles(sweep_sets):
    # Every set has its line count, the integer oracles accept every roots
    # result, and every circle result but the exceptions above.
    assert {name: len(got) for name, got in sweep_sets.items()} == {**SWEEP_LINES, "after the last set": 0}
    rejected = [line for line in sweep_sets["roots"] if not line.endswith(" :: ok")]
    assert not rejected, rejected[:3]
    for line in sweep_sets["circle"]:
        label, verdict = line.split(" -> ", 1)[0], line.rsplit(" :: ", 1)[1]
        assert verdict in ("ok", CIRCLE_EXCEPTIONS.get(label)), line
