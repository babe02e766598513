"""The scripts under scripts/ run end to end against the package in src/."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    """Run a Python script with this interpreter, or a shell script with bash
    and this interpreter first on PATH as its ``python``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable), env.get("PATH", "")])
    runner = "bash" if name.endswith(".sh") else sys.executable
    return subprocess.run(
        [runner, str(ROOT / "scripts" / name), *args],
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


def test_output_digest_is_reproducible():
    # one line per output at n = 3: spectrum, analytic, and bands and verify
    # with both methods; two runs print the same digests
    runs = [run_script("output_digest.sh", "3") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 6 and all(" exit=0 " in line for line in lines)
    assert runs[0].stdout == runs[1].stdout
