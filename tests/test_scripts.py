"""The scripts under scripts/ run against the library as it stands."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_with_closed_stdout

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=300
    )


def test_bias_table_agrees_with_the_defining_sum():
    proc = run_script("bias_table.py", "--max-n", "9", "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert any(line.split()[0] == "5,3,1" for line in proc.stdout.splitlines()[1:])


def test_global_scan_finds_no_mismatch():
    proc = run_script("global_scan.py", "--max-n", "8", "--only-qualifying")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith(", 0 mismatches")


@pytest.mark.parametrize(
    "script, args",
    [("bias_table.py", ["--max-n", "9"]), ("global_scan.py", ["--max-n", "6"])],
)
def test_closed_stdout_ends_quietly(script, args):
    code, err = run_with_closed_stdout([str(SCRIPTS / script), *args])
    assert code == 141, err
    assert "Traceback" not in err
