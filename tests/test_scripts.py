"""The scripts under scripts/ run end to end against the package in src/."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_reproduce_experiment():
    proc = run_script("reproduce_experiment.py", "--n", "6")
    assert proc.returncode == 0, proc.stderr
    assert "method=refine" in proc.stdout and "method=combination" in proc.stdout


def test_export_figure_data(tmp_path):
    proc = run_script("export_figure_data.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("spectrum_n8.csv", "dispersion_n25.csv", "error_n25.csv"):
        assert (tmp_path / name).stat().st_size > 0
