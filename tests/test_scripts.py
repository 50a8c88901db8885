"""Smoke runs of the README experiment scripts, each in a fresh process at a
small size: the script exits 0 and prints its headline line."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


CASES = [
    ("run_escobar_sweep.py", ["--n", "5", "--geometry", "h-only", "--H", "1.0",
                              "--R", "15", "--levels", "3"],
     r"escobar sweep on h-only, n=5, R=15\.0"),
    ("run_channel_fit.py", ["--n", "5", "--R", "20"], r"channel fit at n=5, R=20\.0"),
    ("run_window_ladder.py", ["--n", "3", "--p", "3", "--rungs", "3"],
     r"tail variation across the last two rungs: \d+\.\d+%"),
    ("run_reduced_search.py", ["--field", "cos(2*theta)", "--k", "2", "--seeds", "8"],
     r"\d+ critical configuration\(s\) of W_2 for field 'cos\(2\*theta\)' "
     r"\(merged up to relabeling\)"),
]


@pytest.mark.parametrize("script, args, headline", CASES, ids=[c[0] for c in CASES])
def test_readme_script_runs(script, args, headline):
    out = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert any(re.fullmatch(headline, ln) for ln in out.stdout.splitlines()), out.stdout


def test_escobar_sweep_on_an_h_free_geometry():
    # ricci-only has H = 0, so the first-order reference is 0 and the
    # deviation is reported absolute, without a divide-by-zero warning
    out = subprocess.run([sys.executable, str(SCRIPTS / "run_escobar_sweep.py"),
                          "--n", "5", "--geometry", "ricci-only", "--R", "15",
                          "--levels", "3"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert "inf" not in out.stdout
    assert re.search(r"first-order reference = 0\.00000000  \(abs dev \S+\)", out.stdout)
