"""Self-test of the benchmark: every workload once at minimal size.

Run with `python -m pytest bench/test_smoke.py`; it takes about two minutes.
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_schema_and_metric_names():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
