"""Smoke runs of the scripts under scripts/, so an API change cannot break them unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_toy_overfit_prints_train_accuracy():
    out = run_script("toy_overfit.py", "--epochs", "2", "--n", "4")
    assert re.search(r"^train accuracy \d\.\d{3} after 2 epochs", out, re.M)


def test_depth_effect_prints_one_line_per_depth():
    out = run_script("depth_effect.py", "--depths", "0", "1", "--seeds", "0",
                     "--length", "5", "--n", "4", "--epochs", "2")
    for layers in (0, 1):
        assert re.search(rf"^layers={layers}  accuracy mean \d\.\d{{3}}", out, re.M)
