"""Smoke runs of the README experiment scripts, each in a fresh process at a
small size: the script exits 0 and prints its headline line."""
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


CASES = [
    ("run_channel_fit.py", ["--n", "5", "--R", "20"], r"channel fit at n=5, R=20\.0"),
    ("run_window_ladder.py", ["--n", "3", "--p", "3", "--rungs", "3"],
     r"tail variation across the last two rungs: \d+\.\d+%"),
]


@pytest.mark.parametrize("script, args, headline", CASES, ids=[c[0] for c in CASES])
def test_readme_script_runs(script, args, headline):
    out = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert any(re.fullmatch(headline, ln) for ln in out.stdout.splitlines()), out.stdout


def test_channel_fit_prints_the_exact_constants():
    # the fit at R = inf gives the rational forms, and each gap line is R
    # times the printed fitted constant minus the exact one
    R = 20.0
    out = subprocess.run([sys.executable, str(SCRIPTS / "run_channel_fit.py"),
                          "--n", "5", "--R", str(R)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    fitted = dict(re.findall(r"  (kappa\d) (?:\(|from the series).*?= ([+-]\d\.\d{8})",
                             out.stdout))
    exact = re.findall(r"  (kappa\d) exact = ([+-]\d\.\d{8})   R gap = ([+-]\d+\.\d{6})",
                       out.stdout)
    assert [(k, float(e)) for k, e, _ in exact] == [
        ("kappa1", -0.375), ("kappa2", -0.1875), ("kappa3", -0.125)]
    for k, e, gap in exact:
        assert float(gap) == pytest.approx(R * (float(fitted[k]) - float(e)), abs=1e-6), k


def test_window_ladder_solves_each_rung_once(monkeypatch, capsys):
    from bubblelab import dynamics
    solve, calls = dynamics.small_window_lambda1, []
    monkeypatch.setattr(dynamics, "small_window_lambda1",
                        lambda n, d: calls.append(d) or solve(n, d))
    monkeypatch.setattr(sys, "argv", ["run_window_ladder.py", "--n", "3", "--p", "3"])
    runpy.run_path(str(SCRIPTS / "run_window_ladder.py"), run_name="__main__")
    assert len(calls) == 4                        # the default four rungs
    assert "chained GN-supremum bound" in capsys.readouterr().out
