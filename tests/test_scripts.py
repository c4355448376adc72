import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_pulse_report_runs(source_env):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "pulse_report.py")],
                          capture_output=True, text=True, env=source_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usable nuclear-K window" in proc.stdout
