import subprocess
import sys
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "identity_sweep.py"


@pytest.mark.parametrize("argv", [["--help"], ["--entry", "-x"], ["--dump", "out", "--help"],
                                  ["EMPTY"], ["--entry", "EMPTY"]])
def test_identity_sweep_refuses_bad_arguments_before_importing(argv, tmp_path):
    argv = [str(tmp_path) if arg == "EMPTY" else arg for arg in argv]
    child = subprocess.run([sys.executable, str(SWEEP), *argv], capture_output=True, text=True,
                           cwd=tmp_path, timeout=60)
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr.startswith("Usage: ``python scripts/identity_sweep.py [--entry]")
    assert "Traceback" not in child.stderr
