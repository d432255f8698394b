"""The scripts under ``scripts/`` run as documented, from the repository root."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), BTSPEC_CACHE=str(tmp_path / "cache"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_spectra_gallery(tmp_path):
    done = run_script(tmp_path, "scripts/spectra_gallery.py")
    assert done.returncode == 0, done.stderr
    assert "spectrum of GL3_2 (order 168)" in done.stdout.splitlines()


def test_axiom_sweep(tmp_path):
    done = run_script(tmp_path, "scripts/axiom_sweep.py", "C2", "S3")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("total: 33965 instances in ")
