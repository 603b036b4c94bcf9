"""The scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_fisher_shooting_tells_the_front_from_a_wrong_speed():
    out = run_script("fisher_shooting.py", "--speeds", "5/6*sqrt(6),3")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    header = next(i for i, ln in enumerate(lines) if ln.startswith("speed "))
    rows = lines[header + 1:]
    assert len(rows) == 2
    assert rows[0].startswith("5/6*sqrt(6)") and rows[0].endswith("algebraic front")
    assert rows[1].startswith("3 ") and rows[1].endswith("off the curve")
