import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bubblelab.cli import main, _emit_json
from bubblelab import fixtures as fx

REPO = Path(__file__).resolve().parents[1]


def csv_floats(lines):
    """Data rows of a CLI CSV (comment and header skipped), each cell read by
    plain float(), which rejects any cell that is not a float literal."""
    return [[float(c) for c in ln.split(",")] for ln in lines[2:]]


def last_line(code):
    """The last stdout line of a fresh ``python -c code``, which must exit 0."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def run_cli(args, **env):
    e = dict(os.environ, **{k: str(v) for k, v in env.items()})
    return subprocess.run([sys.executable, "-m", "bubblelab.cli", *args],
                          capture_output=True, text=True, env=e)


# the half-space optimizer's moments diverge below n = 4; the channel fit
# behind ringII needs n >= 5
_BAD_ESCOBAR_DIMENSIONS = [
    ["moments", "--n", "3"],
    ["coefficients", "--n", "3"],
    ["expand", "--geometry", "h-only", "--n", "3"],
    ["estimate", "--target", "H", "--n", "3"],
    ["estimate", "--target", "mass", "--n", "3"],
    ["estimate", "--target", "theta", "--n", "3"],
    ["estimate", "--target", "ringII", "--n", "3"],
    ["estimate", "--target", "ringII", "--n", "4"],
]


# the stdout summary of ``expand --n 5``: the exact series c1-c3, the fit of
# deficit/reference at degrees 1-3 (or n/a), and the first-order reference
# rho H with the fitted c1's deviation from it
_EXPAND_LINE = (r"expand \S+ n=5: deficit\(0\.01\)=\S+, series c1=(\S+) c2=(\S+) c3=(\S+), "
                r"fit (?:c1=(\S+) c2=(\S+) c3=(\S+)|n/a), first-order reference=(\S+) \((.*)\)")


class TestValidation:
    def test_non_integer_dimension_exits_2(self):
        assert main(["moments", "--n", "3.5"]) == 2

    def test_moment_divergent_dimension_exits_2(self):
        assert main(["moments", "--n", "3"]) == 2

    def test_missing_required_exits_2(self):
        assert main(["coefficients"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 5, "bogus": 1}))
        assert main(["coefficients", "--config", str(cfg)]) == 2

    def test_config_supplies_required(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 5, "R": 30.0}))
        out = tmp_path / "o.json"
        assert main(["coefficients", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["constants"]["R"] == 30.0

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 5, "R": 30.0}))
        out = tmp_path / "o.json"
        assert main(["coefficients", "--config", str(cfg), "--R", "25",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["constants"]["R"] == 25.0

    def test_config_seed_reads_like_the_flag(self, tmp_path, monkeypatch):
        # the search ignores its seed, so the one it is passed is recorded
        from bubblelab import reduced
        search, seen = reduced.critical_point_search, {}

        def recording(*args, **kw):
            seen["seed"] = kw["seed"]
            return search(*args, **kw)

        monkeypatch.setattr(reduced, "critical_point_search", recording)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 7}))
        base = ["reduce", "--field", "cos(2*theta)", "--k", "2", "--seeds", "4"]
        runs = {"flag": ["--seed", "7"], "config": ["--config", str(cfg)],
                "default": [], "flag wins": ["--config", str(cfg), "--seed", "0"]}
        out, seeds = {}, {}
        for name, extra in runs.items():
            path = tmp_path / f"{name}.json"
            assert main(base + extra + ["--out", str(path)]) == 0
            out[name], seeds[name] = path.read_bytes(), seen["seed"]
        assert seeds == {"flag": 7, "config": 7, "default": 0, "flag wins": 0}
        assert len(set(out.values())) == 1

    def test_config_value_takes_the_flag_type(self, tmp_path):
        # {"R": 30} reads as --R 30 does: the float 30.0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 5, "R": 30}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["coefficients", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["coefficients", "--n", "5", "--R", "30", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("config, args", [
        ({"n": "five"}, ["moments"]), ({"R": "abc"}, ["moments", "--n", "5"]),
        ({"format": "xml"}, ["moments", "--n", "5"]),
        ({"func": 1}, ["moments", "--n", "5"]),
        ({"sweep": 2.5}, ["estimate", "--target", "H", "--n", "5"]),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else " ".join(v))
    def test_bad_config_value_exits_2(self, config, args, tmp_path, capsys):
        # a config value goes through its flag's type and choices, and only
        # option names and "out" are keys
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main([*args, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize("flags", [["--ladder", "1e-2"], ["--ladder", "a:b"],
                                       ["--rungs", "0"], ["--rungs", "1"],
                                       ["--ladder", "0:1e-3"], ["--ladder", "1e-2:2"],
                                       ["--ladder=-1e-2:-1e-3"], ["--ladder", "nan:1e-3"],
                                       ["--ladder", "1e-2:inf"]])
    def test_bad_window_ladder_exits_2(self, flags, capsys):
        assert main(["dynamics", "window", "--n", "2", *flags]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    @pytest.mark.parametrize("args", [
        ["dynamics", "window", "--n", "4"],
        ["gauss-bonnet", "--surface", "annulus", "--inner-radius", "1.5"],
        ["gauss-bonnet", "--surface", "annulus", "--inner-radius", "-1"],
        ["reduce", "--field", "cos(theta)", "--k", "0"],
        ["dynamics", "fde", "--m", "2"],
        ["dynamics", "fde", "--n", "1"],
        ["estimate", "--target", "scal", "--n", "4"],
        ["estimate", "--target", "scal", "--n", "3", "--p", "6"],
        ["estimate", "--target", "scal", "--n", "2", "--p", "1"],
        ["moments", "--n", "5", "--R", "0.5"],
        ["coefficients", "--n", "5", "--R", "0.5"],
        ["expand", "--geometry", "h-only", "--n", "5", "--R", "0.5"],
        ["estimate", "--target", "H", "--n", "5", "--R", "0.5"],
        ["estimate", "--target", "scal", "--n", "2", "--R", "0.5"],
        ["dynamics", "fde", "--E0", "-1"],
        ["dynamics", "fde", "--M0", "0"],
        ["dynamics", "fde", "--n", "3", "--m", "0.3"],
        ["dynamics", "fde", "--horizon", "-5"],
        ["dynamics", "fde", "--horizon", "nan"],
        ["dynamics", "fde", "--C", "-1"],
        ["reduce", "--field", "cos(theta)", "--k", "2", "--seeds", "0"],
        ["gauss-bonnet", "--surface", "disk", "--mode", "estimated", "--eps", "-1"],
        ["gauss-bonnet", "--surface", "disk", "--mode", "estimated", "--eps", "0"],
        ["gauss-bonnet", "--surface", "disk", "--mode", "estimated", "--eps", "nan"],
        ["expand", "--geometry", "euclidean-ball", "--n", "5", "--eps-levels", "0"],
        ["expand", "--geometry", "euclidean-ball", "--n", "5", "--eps0", "0"],
        ["estimate", "--target", "H", "--n", "5", "--sweep", "0"],
        ["estimate", "--target", "H", "--n", "5", "--eps", "-1"],
        ["estimate", "--target", "scal", "--n", "2", "--eps", "0"],
        ["gauss-bonnet", "--surface", "disk", "--mode", "estimated", "--eps", "0.5"],
        ["gauss-bonnet", "--surface", "disk", "--mode", "estimated", "--eps", "2"],
        ["gauss-bonnet", "--surface", "disk", "--mode", "estimated", "--eps", "0.024"],
        ["estimate", "--target", "ringII", "--n", "5"],
        ["estimate", "--target", "ringII", "--n", "5", "--geometry", "h-only", "--H", "0.5"],
        *_BAD_ESCOBAR_DIMENSIONS,
    ], ids=" ".join)
    def test_out_of_range_exits_2(self, args, capsys):
        # rejected before any numerics run, not mapped to a numerical failure
        assert main(args) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    @pytest.mark.parametrize("expression, spec", [
        ("cos(2*", None), ("__import__", None), (None, ""),
        (None, '{"samples": []}'), (None, '{"samples": ["a"]}'),
        ("theta[100]", None), ("1/0", None), ("theta % 1", None),
    ])
    def test_bad_field_exits_2(self, expression, spec, tmp_path, capsys):
        # an expression that does not compile, names a disallowed symbol or
        # fails when evaluated or differentiated (jets have no %), and a spec
        # file that is not JSON or holds no usable samples, are bad input
        if spec is not None:
            expression = tmp_path / "field.json"
            expression.write_text(spec)
        assert main(["reduce", "--field", str(expression), "--k", "1"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    def test_seed_only_on_reduce(self):
        # only the critical-point search reads a seed
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--n", "5", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", _BAD_ESCOBAR_DIMENSIONS, ids=" ".join)
    def test_bad_escobar_dimension_builds_no_profile(self, args, monkeypatch, capsys):
        from bubblelab import estimators, profiles

        def forbidden(n):
            raise AssertionError(f"half-space optimizer built for n = {n}")

        for module in (profiles, estimators):
            monkeypatch.setattr(module, "escobar_halfspace_optimizer", forbidden)
        assert main(args) == 2
        assert "n >= " in json.loads(capsys.readouterr().err)["detail"]

    @pytest.mark.parametrize("geometry, H", [([], "4"), (["--geometry", "h-only", "--H", "0.5"],
                                                         "0.5")], ids=["ball", "h-only"])
    def test_ring_II_off_its_stratum_builds_no_profile(self, geometry, H, monkeypatch, capsys):
        # the ringII inversion holds on H = 0 only: the ball read -27.62 for a
        # truth of 0 and h-only (H = 0.5) -0.16, each at exit 0
        from bubblelab import estimators, profiles
        for module in (profiles, estimators):
            monkeypatch.setattr(module, "escobar_halfspace_optimizer", None)
        assert main(["estimate", "--target", "ringII", "--n", "5", *geometry]) == 2
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert "H = 0 stratum" in detail and detail.endswith(f"has H = {H}")

    @pytest.mark.parametrize("args", [
        ["expand", "--geometry", "nosuch", "--n", "5"],
        ["estimate", "--target", "H", "--geometry", "nosuch", "--n", "5"],
    ], ids=" ".join)
    def test_unknown_geometry_exits_2(self, args, capsys):
        assert main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "nosuch" in err["detail"] and "euclidean-ball" in err["detail"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("args", [["moments", "--n", "200", "--R", "20"],
                                      ["moments", "--n", "400"],
                                      ["dynamics", "fde", "--n", "2", "--m", "0.0667"],
                                      ["estimate", "--target", "scal", "--n", "2", "--R", "1"]],
                             ids=" ".join)
    def test_large_dimension_exits_3(self, args, capsys):
        # the moment weights rho^(n-1) overflow at n = 200; the optimizer's
        # Dirichlet energy underflows at n = 400; C* of the concentrated
        # (2, 15) ground state is under-resolved at the default spec; at R = 1
        # the cut-off near-optimizer has W < C* - 0.05
        assert main(args) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numerical"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, detail", [
        ("200", "moment weights rho^(n-1) overflow float64 at n=200, R=20.0"),
        ("400", "the Dirichlet energy of the n=400 half-space optimizer underflows float64"),
    ])
    def test_large_dimension_names_the_overflow(self, n, detail, capsys):
        # checked before any field work, so numpy warns of nothing (a warning
        # is an error here) and stderr holds the one error line
        assert main(["moments", "--n", n, "--R", "20"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numerical" and err["detail"].startswith(detail)

    @pytest.mark.parametrize("R", ["1.3", "2.7", "5"])
    def test_near_optimizer_cut_in_its_core_reaches_the_deficit_check(self, R, tmp_path,
                                                                       capsys):
        # the glue band R < rho < 2R crosses the near-optimizer's core at
        # depth 2, where the tensor grid's two resolutions disagreed (exit 3
        # with a quadrature message). Now both agree: at R = 2.7 and 5 the
        # deficit check passes; at R = 1.3 the cut-off profile really misses
        # it (W = 0.1204 < 0.9 C*, on a 40-point grid too). Past the check,
        # the deficits are divided by kappa_int at the same cutoff: with the
        # R = inf value the order read 0.001 and the errors 3e-6 to 6e-5
        out = tmp_path / "s.json"
        if R != "1.3":
            for n in ("2", "3"):
                assert main(["estimate", "--target", "scal", "--n", n, "--R", R,
                             "--out", str(out)]) == 0
                doc = json.loads(out.read_text())
                co, fin = doc["constants"], doc["rows"][-1]
                assert co["W_flat_halfspace"] >= 0.9 * co["C_star"]
                assert doc["empirical_order"] >= 1.9
                assert fin["error"] <= 1e-7 * abs(fin["truth"])
        else:
            code = main(["estimate", "--target", "scal", "--n", "2", "--R", R])
            assert code == 3
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "numerical"
            assert err["detail"].startswith("half-space near-optimizer misses its deficit target")


class TestParser:
    # one argv per command, every option given
    @pytest.mark.parametrize("argv", [
        ["moments", "--n", "5", "--R", "30", "--format", "csv", "--out", "o"],
        ["coefficients", "--n", "5", "--R", "30", "--config", "c.json"],
        ["expand", "--geometry", "h-only", "--n", "5", "--eps-levels", "3", "--eps0", "0.02",
         "--R", "20", "--functional", "plain-trace", "--radius", "2", "--value", "0.5",
         "--H", "0.3"],
        ["estimate", "--target", "scal", "--geometry", "ricci-only", "--n", "3", "--eps",
         "1e-2", "--sweep", "4", "--R", "25", "--radius", "2", "--value", "2", "--H", "0",
         "--p", "2.5"],
        ["gauss-bonnet", "--surface", "annulus", "--mode", "exact", "--inner-radius", "0.3",
         "--eps", "0.01"],
        ["reduce", "--field", "cos(theta)", "--k", "2", "--n", "5", "--seeds", "3",
         "--seed", "4"],
        ["dynamics", "fde", "--n", "3", "--m", "0.6", "--E0", "2", "--M0", "3", "--C", "1",
         "--horizon", "10", "--ladder", "1e-2:1e-3", "--rungs", "3"],
        ["fixtures", "verify", "--path", "f.json"],
    ], ids=lambda a: a[0])
    def test_per_command_parser_matches_the_full_parser(self, argv):
        from bubblelab.cli import build_parser
        assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)

    def test_help_lists_every_command(self, capsys):
        from bubblelab.cli import _OPTIONS
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command, (help_, _) in _OPTIONS.items():
            assert any(ln.split() == [command, *help_.split()] for ln in out.splitlines())

    @pytest.mark.parametrize("argv", [[], ["nonsense"], ["--n", "5"]], ids=repr)
    def test_missing_or_unknown_command_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestWarnings:
    def test_warning_is_one_json_line(self, tmp_path):
        # in a subprocess: pytest records warnings itself
        proc = run_cli(["expand", "--geometry", "umbilic-sphere-cap", "--n", "6",
                        "--out", str(tmp_path / "o.csv")])
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert lines
        for line in lines:
            doc = json.loads(line)
            assert sorted(doc) == ["detail", "warning"]
            assert doc["warning"] == "UserWarning"
            assert doc["detail"].startswith("jet volume element non-positive")

    def test_three_scale_targets_warn(self, capsys):
        args = ["--n", "6", "--eps", "1.5e-2", "--sweep", "2"]
        for target in ("mass", "H"):
            assert main(["estimate", "--target", target, *args]) == 0
            err = capsys.readouterr().err.splitlines()
            assert err and all(json.loads(ln)["warning"] == "UserWarning" for ln in err)

    @pytest.mark.parametrize("target", ["mass", "theta", "ringII"])
    def test_three_scale_targets_quiet_at_defaults(self, target, capsys):
        # ringII holds on H = 0 only, so it runs on a channel geometry
        geometry = ["--geometry", "anisotropic-cylinder-like"] if target == "ringII" else []
        assert main(["estimate", "--target", target, "--n", "6", *geometry]) == 0
        assert capsys.readouterr().err == ""


class TestOutputs:
    def test_moments_json_schema(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["moments", "--n", "5", "--R", "30", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert set(doc["values"]) == {"J", "g1", "g1tan", "g2", "g2tan", "Theta", "Tq"}
        assert set(doc["errors"]) == set(doc["values"])

    def test_moments_csv_has_header_and_comment(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["moments", "--n", "5", "--R", "30", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "name,value,error_estimate"

    def test_expand_csv_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["expand", "--geometry", "h-only", "--n", "5", "--eps-levels",
                   "3", "--R", "20", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "eps,numerator,denominator,quotient,deficit,err_est"
        assert len(lines) == 2 + 3
        rows = csv_floats(lines)
        assert all(len(r) == 6 for r in rows)
        assert [r[0] for r in rows] == pytest.approx([1e-2, 5e-3, 2.5e-3])

    def test_expand_prints_the_series_fit_and_first_order_reference(self, tmp_path, capsys):
        # h-only at H = 1: rho_5^conf H = 9/8, and the fitted c1's relative
        # deviation from it; no fit below three levels
        from bubblelab.energy import deficit_series, fit_power_series
        from bubblelab.geometry import fermi_jet, geometry_catalog
        from bubblelab.profiles import escobar_halfspace_optimizer
        args = ["expand", "--geometry", "h-only", "--n", "5", "--H", "1.0", "--R", "15",
                "--out", str(tmp_path / "sweep.csv"), "--eps-levels"]
        assert main(args + ["3"]) == 0 and main(args + ["2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        m, short = (re.fullmatch(_EXPAND_LINE, line) for line in lines)
        eps = 1e-2 * 0.5 ** np.arange(3)
        jet = fermi_jet(geometry_catalog("h-only", 5, H=1.0).data, order=2, chart_radius=1.0)
        sweep = deficit_series(jet, escobar_halfspace_optimizer(5), 15.0, eps)
        fit = fit_power_series(eps, sweep.deficits / sweep.reference, (1, 2, 3))
        assert [float(v) for v in m.group(1, 2, 3, 4, 5, 6)] == pytest.approx(
            [*sweep.series[:3], *fit], rel=1e-5)
        assert float(m.group(7)) == pytest.approx(1.125, rel=1e-8)
        assert m.group(8) == f"rel dev {abs(fit[0] - 1.125) / 1.125:.3%}"
        assert short.group(4, 7, 8) == (None, "1.125", "dev n/a")

    def test_expand_on_an_h_free_geometry(self):
        # ricci-only has H = 0, so the first-order reference is 0 and the
        # deviation is reported absolute, without a divide-by-zero warning
        out = run_cli(["expand", "--n", "5", "--geometry", "ricci-only", "--R", "15",
                       "--eps-levels", "3"])
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        assert "inf" not in out.stdout
        m = re.fullmatch(_EXPAND_LINE, out.stdout.splitlines()[-1])
        assert m and m.group(7) == "0" and re.fullmatch(r"abs dev \S+", m.group(8))

    def test_coefficients_carries_snapshot(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["coefficients", "--n", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for key in ("S_star", "rho_conf", "kappa3", "c_conf", "a_kernel"):
            assert key in doc["constants"]

    def test_coefficients_large_dimension_finite(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["coefficients", "--n", "80", "--out", str(out)]) == 0
        C = json.loads(out.read_text())["constants"]
        assert all(math.isfinite(C[k]) for k in ("S_star", "rho_conf", "kappa3"))

    @pytest.mark.parametrize("target", ["H", "ringII"])
    def test_order_without_a_slope_is_strict_json_null(self, target, tmp_path, capsys):
        # every error on the flat half-space is 0, so no slope can be fitted
        out = tmp_path / "e.json"
        assert main(["estimate", "--target", target, "--n", "5", "--geometry",
                     "flat-halfspace", "--out", str(out)]) == 0

        def reject(token):
            raise AssertionError(f"non-standard JSON token {token}")
        assert json.loads(out.read_text(), parse_constant=reject)["empirical_order"] is None
        assert capsys.readouterr().out.rstrip().endswith("order=n/a")

    def test_non_finite_value_is_not_written(self, tmp_path):
        out = tmp_path / "x.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            _emit_json(str(out), {"value": math.inf})
        assert not out.exists()

    def test_gauss_bonnet_exact(self, tmp_path):
        out = tmp_path / "gb.json"
        assert main(["gauss-bonnet", "--surface", "annulus", "--inner-radius",
                     "0.25", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["chi_hat"]) < 1e-10

    def test_reduce_expression_field(self, tmp_path):
        out = tmp_path / "crit.json"
        assert main(["reduce", "--field", "cos(2*theta)", "--k", "1",
                     "--seeds", "12", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["points"]) == 4

    def test_reduce_flags_degenerate_points(self, tmp_path):
        out = tmp_path / "crit.json"
        assert main(["reduce", "--field", "cos(theta)**3", "--k", "1",
                     "--seeds", "64", "--out", str(out)]) == 0
        pts = json.loads(out.read_text())["points"]
        assert len(pts) == 4
        assert sorted(p["degenerate"] for p in pts) == [False, False, True, True]

    def test_reduce_lists_each_configuration_once(self, tmp_path):
        # cos^3 theta has four critical points, two of them degenerate: six
        # pairs, none of a point with itself, every center in [0, 2 pi)
        out = tmp_path / "crit.json"
        assert main(["reduce", "--field", "cos(theta)**3", "--k", "2", "--seeds", "32",
                     "--seed", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["points"]) == 6 and doc["index_sum"] is None
        for p in doc["points"]:
            a, b = p["centers"]
            assert min(abs(a - b), 2 * math.pi - abs(a - b)) > 1e-3
            assert 0.0 <= a < 2 * math.pi and 0.0 <= b < 2 * math.pi

    def test_reduce_reports_the_index_count(self, tmp_path):
        out = tmp_path / "crit.json"
        assert main(["reduce", "--field", "sin(theta) + 0.3*cos(3*theta)", "--k", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["points"]) == 20 and doc["index_sum"] == 0

    def test_reduce_broken_index_count_exits_3(self, monkeypatch, capsys):
        # a one-point start grid finds one of the four Morse points
        from bubblelab import reduced
        monkeypatch.setattr(reduced, "_GRID_MIN", 1)
        monkeypatch.setattr(reduced, "_GRID_MAX", 1)
        assert main(["reduce", "--field", "cos(2*theta) + 0.3*sin(3*theta)", "--k", "1"]) == 3
        seen = capsys.readouterr()
        assert seen.out == ""
        err = json.loads(seen.err)
        assert err["error"] == "numerical" and "Poincare-Hopf" in err["detail"]

    def test_reduce_configuration_cap_exits_2(self, capsys):
        # cos 40 theta has 80 critical points, and C(80, 3) = 82160
        assert main(["reduce", "--field", "cos(40*theta)", "--k", "3"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "82160" in err["detail"]

    @pytest.mark.parametrize("field, k, found, counts", [
        ("cos(2*theta)", "1", 4, "minima=2 maxima=2 saddles=0 degenerate=0"),
        ("cos(2*theta)", "2", 6, "minima=1 maxima=1 saddles=4 degenerate=0"),
        ("cos(theta)**3", "2", 6, "minima=0 maxima=0 saddles=1 degenerate=5"),
    ], ids=["k1", "k2", "degenerate"])
    def test_reduce_counts_configurations_by_kind(self, field, k, found, counts, tmp_path,
                                                  capsys):
        # of cos 2 theta's pairs, one is both minima, one both maxima, and the
        # four mixed pairs are saddles; on cos^3 theta, a pair holding a
        # degenerate point is degenerate
        assert main(["reduce", "--field", field, "--k", k, "--seeds", "8",
                     "--out", str(tmp_path / "crit.json")]) == 0
        assert capsys.readouterr().out == (
            f"reduce: {found} critical configuration(s) of W_{k}: {counts}\n")

    def test_reduce_field_spec_file(self, tmp_path):
        spec = tmp_path / "field.json"
        theta = np.linspace(0, 2 * math.pi, 128, endpoint=False)
        spec.write_text(json.dumps({"samples": list(np.cos(theta))}))
        out = tmp_path / "crit.json"
        assert main(["reduce", "--field", str(spec), "--k", "1", "--seeds", "8",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["points"]) == 2

    def test_dynamics_fde_csv(self, tmp_path):
        out = tmp_path / "fde.csv"
        assert main(["dynamics", "fde", "--n", "2", "--m", "0.5", "--E0", "1",
                     "--M0", "1", "--C", "1.0", "--horizon", "10",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "t,E_ode,envelope"

    def test_dynamics_window_csv(self, tmp_path):
        out = tmp_path / "win.csv"
        assert main(["dynamics", "window", "--n", "3", "--ladder", "1e-2:1e-3",
                     "--rungs", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "d,lambda1,scaled"
        rows = csv_floats(lines)
        assert [r[0] for r in rows] == pytest.approx([1e-2, 1e-3])
        assert all(len(r) == 3 and r[1] > 0 for r in rows)


# modules the package never loads: scipy is a test reference only, and
# hashlib maps libcrypto, about 3.6 MB of resident memory per process
# (numpy.random loads it, and no command draws random numbers); numpy.ma,
# which np.unique imports, costs about 14 ms and 1.3 MB
_UNLOADED = ("m.split('.')[0] in ('scipy', 'hashlib', '_hashlib') "
             "or m == 'numpy.ma' or m.startswith('numpy.ma.')")


# modules a command loads only if it runs them: decimal's C module
# (fractions), and about 3.6 MB of libcrypto (hashlib, which numpy.random
# loads)
_WATCHED = {"decimal", "fractions", "hashlib", "numpy.random"}
# the energy-only GN estimators: the cached GN profiles and the whole engine
_GN_STACK = ["energy", "estimators", "fixtures", "geometry", "moments", "profiles", "quadrature"]
_ESCOBAR_STACK = ["energy", "geometry", "moments", "profiles", "quadrature"]


class TestLazyImports:
    def test_import_loads_no_hashlib_or_scipy(self):
        # the CLI imports its layers lazily, so every module is imported too
        code = ("import importlib, pkgutil, sys, bubblelab, bubblelab.cli\n"
                "for m in pkgutil.iter_modules(bubblelab.__path__):\n"
                "    importlib.import_module('bubblelab.' + m.name)\n"
                f"print(sorted(m for m in sys.modules if {_UNLOADED}))\n")
        assert last_line(code) == "[]"

    def test_session_setup_loads_no_polynomial_or_engine(self):
        # the set-up of the benchmark's in-process workloads builds the
        # closed-form optimizers only: no numpy.polynomial, no engine layers
        code = ("import sys\n"
                f"sys.path.insert(0, {str(REPO / 'perfbench')!r})\n"
                "from pathlib import Path\n"
                "import jobs\n"
                f"jobs.Session(Path({str(REPO)!r}))\n"
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial') or m in "
                "('bubblelab.energy', 'bubblelab.geometry', 'bubblelab.moments')))\n")
        assert last_line(code) == "[]"

    def test_escobar_commands_do_not_load_scipy(self, tmp_path):
        code = ("import sys\n"
                "from bubblelab.cli import main\n"
                f"assert main(['coefficients', '--n', '5', '--out', {str(tmp_path / 'c.json')!r}]) == 0\n"
                "assert main(['estimate', '--target', 'H', '--n', '5', "
                f"'--out', {str(tmp_path / 'h.json')!r}]) == 0\n"
                f"print(sorted(m for m in sys.modules if {_UNLOADED}))\n")
        assert last_line(code) == "[]"

    def test_escobar_estimates_load_no_fixtures(self, tmp_path):
        # only scal reads the cached GN profiles
        code = ("import sys\n"
                "from bubblelab.cli import main\n"
                "assert main(['estimate', '--target', 'H', '--n', '5', "
                f"'--out', {str(tmp_path / 'h.json')!r}]) == 0\n"
                "assert main(['estimate', '--target', 'ringII', '--n', '5', '--geometry', "
                f"'ricci-only', '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m == 'bubblelab.fixtures'))\n")
        assert last_line(code) == "[]"

    def test_gn_commands_do_not_load_scipy(self, tmp_path):
        # K_nu of the GN far field is evaluated in numpy, and the reduced
        # search on an expression field needs no scipy either
        code = ("import sys\n"
                "from bubblelab.cli import main\n"
                "assert main(['estimate', '--target', 'scal', '--n', '2', "
                f"'--out', {str(tmp_path / 's2.json')!r}]) == 0\n"
                "assert main(['estimate', '--target', 'scal', '--n', '3', "
                f"'--out', {str(tmp_path / 's3.json')!r}]) == 0\n"
                "assert main(['gauss-bonnet', '--surface', 'disk', '--mode', 'estimated', "
                f"'--out', {str(tmp_path / 'g.json')!r}]) == 0\n"
                "assert main(['reduce', '--field', 'cos(2*theta)', '--k', '2', '--seeds', '8', "
                f"'--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert last_line(code) == "[]"

    def test_grid_commands_do_not_load_numpy_ma(self, tmp_path):
        # the quadrature and tabulation grids dedupe without np.unique
        commands = [
            ["coefficients", "--n", "5"],
            ["estimate", "--target", "H", "--n", "5", "--sweep", "2"],
            ["estimate", "--target", "scal", "--n", "2"],
            ["estimate", "--target", "scal", "--n", "3"],
            ["gauss-bonnet", "--surface", "disk", "--mode", "estimated"],
            ["fixtures", "verify"],
            ["dynamics", "fde", "--n", "2", "--m", "0.5", "--horizon", "10"],
            ["dynamics", "window", "--n", "3"],
        ]
        code = ("import sys\n"
                "from bubblelab.cli import main\n"
                f"for i, args in enumerate({commands!r}):\n"
                f"    out = ['--out', f'{tmp_path}/out{{i}}'] if args[0] != 'fixtures' else []\n"
                "    assert main(args + out) == 0, args\n"
                f"print(sorted(m for m in sys.modules if {_UNLOADED}))\n")
        assert last_line(code) == "[]"

    def test_window_skips_interpolate_and_integrate(self, tmp_path):
        # the window roots are solved in numpy: no scipy module at all
        code = ("import sys\n"
                "from bubblelab.cli import main\n"
                "assert main(['dynamics', 'window', '--n', '3', "
                f"'--out', {str(tmp_path / 'w.csv')!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert last_line(code) == "[]"

    def test_every_command_runs_with_scipy_unimportable(self, tmp_path):
        samples = tmp_path / "field.json"
        theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        samples.write_text(json.dumps({"samples": list(np.cos(2 * theta))}))
        commands = [
            ["moments", "--n", "5"],
            ["coefficients", "--n", "5"],
            ["expand", "--geometry", "h-only", "--n", "5", "--eps-levels", "3"],
            ["estimate", "--target", "H", "--n", "5", "--sweep", "2"],
            ["estimate", "--target", "scal", "--n", "2"],
            ["gauss-bonnet", "--surface", "disk", "--mode", "exact"],
            ["gauss-bonnet", "--surface", "disk", "--mode", "estimated"],
            ["reduce", "--field", "cos(2*theta)", "--k", "2", "--seeds", "8"],
            ["reduce", "--field", str(samples), "--k", "2", "--seeds", "8"],
            ["dynamics", "fde", "--n", "2", "--m", "0.5", "--horizon", "10"],
            ["dynamics", "window", "--n", "2"],
            ["dynamics", "window", "--n", "3"],
            ["fixtures", "verify"],
        ]
        code = ("import sys\n"
                "class NoScipy:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name.split('.')[0] == 'scipy':\n"
                "            raise ImportError(f'scipy is blocked: {name}')\n"
                "sys.meta_path.insert(0, NoScipy())\n"
                "from bubblelab.cli import main\n"
                f"for i, args in enumerate({commands!r}):\n"
                f"    out = ['--out', f'{tmp_path}/out{{i}}'] if args[0] != 'fixtures' else []\n"
                "    assert main(args + out) == 0, args\n"
                "print('ok')\n")
        assert last_line(code) == "ok"

    # the commands of the benchmark's cli-session, the Escobar commands and
    # exact Gauss-Bonnet, and the modules each loads in a fresh ``python -m
    # bubblelab.cli``: the package's modules besides cli, and of _WATCHED
    # those the command runs (fractions and decimal for the fde exponents'
    # exact mode); ``reduce`` on a samples file ("SAMPLES") also loads the
    # spline evaluator of ``profiles``
    @pytest.mark.parametrize("args, allowed", [
        (["moments", "--n", "5"], _ESCOBAR_STACK),
        (["coefficients", "--n", "5"], _ESCOBAR_STACK),
        (["expand", "--geometry", "h-only", "--n", "5", "--eps-levels", "3"], _ESCOBAR_STACK),
        (["gauss-bonnet", "--surface", "disk", "--mode", "exact"],
         sorted(_ESCOBAR_STACK + ["estimators"])),
        (["estimate", "--target", "scal", "--n", "2", "--value", "1.0"], _GN_STACK),
        (["estimate", "--target", "scal", "--n", "3", "--value", "2.0"], _GN_STACK),
        (["gauss-bonnet", "--surface", "disk", "--mode", "estimated", "--eps", "0.01"],
         _GN_STACK),
        (["reduce", "--field", "cos(2*theta)", "--k", "2", "--seeds", "32", "--seed", "7"],
         ["reduced"]),
        (["reduce", "--field", "SAMPLES", "--k", "2", "--seeds", "32", "--seed", "7"],
         ["profiles", "quadrature", "reduced"]),
        (["dynamics", "fde", "--n", "2", "--m", "0.5", "--E0", "1.0", "--M0", "1.0",
          "--horizon", "50.0"],
         ["decimal", "dynamics", "energy", "fixtures", "fractions", "geometry", "moments",
          "profiles", "quadrature"]),
        (["dynamics", "window", "--n", "2"], ["dynamics", "quadrature"]),
        (["dynamics", "window", "--n", "3"], ["dynamics", "quadrature"]),
        (["fixtures", "verify"],
         ["dynamics", "energy", "fixtures", "geometry", "moments", "profiles", "quadrature"]),
    ], ids=" ".join)
    def test_command_loads_only_what_it_runs(self, args, allowed, tmp_path):
        def imported(*argv):
            out = subprocess.run([sys.executable, "-X", "importtime", *argv],
                                 capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
            return {ln.rsplit("|", 1)[1].strip() for ln in out.stderr.splitlines()
                    if ln.startswith("import time:")}

        samples = tmp_path / "field.json"
        samples.write_text(json.dumps({"samples": list(np.cos(np.arange(64) * math.pi / 32))}))
        args = [str(samples) if a == "SAMPLES" else a for a in args]
        # less what the interpreter's own start-up (site, .pth files) imports
        names = (imported("-m", "bubblelab.cli", *args, "--out", str(tmp_path / "o"))
                 - imported("-c", "pass"))
        package = {m.split(".")[1] for m in names
                   if m.startswith("bubblelab.") and m != "bubblelab.cli"}
        assert sorted(package | (names & _WATCHED)) == allowed

    def test_bessel_modules_import_without_polynomial(self):
        # the Gauss-Legendre rules of K, J and Y are built on first use
        code = ("import sys\n"
                "import bubblelab.profiles, bubblelab.dynamics\n"
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
        assert last_line(code) == "[]"

    def test_dynamics_and_fixtures_import_without_scipy(self):
        code = ("import sys\n"
                "import bubblelab.dynamics, bubblelab.fixtures\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert last_line(code) == "[]"


# the two process entries: ``python -m bubblelab.cli`` and what the installed
# ``bubblelab`` console script runs
_ENTRIES = {"module": ["-m", "bubblelab.cli"],
            "script": ["-c", "import sys; from bubblelab.cli import entry; sys.exit(entry())"]}


class TestProcessEntry:
    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    @pytest.mark.parametrize("args, code", [
        (["estimate", "--target", "scal", "--n", "2", "--sweep", "3"], 0),
        (["estimate", "--target", "scal", "--n", "3", "--p", "9"], 2),
        (["estimate", "--target", "scal", "--n", "3", "--p", "4.9"], 3),
    ], ids=lambda v: str(v) if isinstance(v, int) else " ".join(v))
    def test_process_matches_main(self, entry, args, code, tmp_path, capsys):
        # stdout goes to a file, as a shell redirect sends it
        (tmp_path / "proc").mkdir()
        with open(tmp_path / "proc" / "stdout", "wb") as so:
            proc = subprocess.run([sys.executable, *_ENTRIES[entry], *args,
                                   "--out", str(tmp_path / "proc" / "out.json")],
                                  stdout=so, stderr=subprocess.PIPE)
        assert main(args + ["--out", str(tmp_path / "out.json")]) == proc.returncode == code
        seen = capsys.readouterr()
        assert (tmp_path / "proc" / "stdout").read_bytes() == seen.out.encode()
        assert proc.stderr == seen.err.encode()
        written = [tmp_path / "out.json", tmp_path / "proc" / "out.json"]
        if code == 0:
            assert written[0].read_bytes() == written[1].read_bytes()
        else:
            assert not any(p.exists() for p in written)

    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path):
        import gc
        before = gc.isenabled(), gc.get_freeze_count()
        assert main(["dynamics", "window", "--n", "2", "--out", str(tmp_path / "w.csv")]) == 0
        assert main(["estimate", "--target", "scal", "--n", "3", "--p", "9"]) == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_entry_freezes_the_heap(self, tmp_path):
        code = ("import gc, sys\n"
                "from bubblelab.cli import entry\n"
                f"sys.argv[1:] = ['dynamics', 'window', '--n', '2', '--out', {str(tmp_path / 'w')!r}]\n"
                "assert entry() == 0\n"
                "print(gc.isenabled(), gc.get_freeze_count() > 0)\n")
        assert last_line(code) == "False True"

    def test_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
        assert project["scripts"] == {"bubblelab": "bubblelab.cli:entry"}


class TestDeterminism:
    def test_estimate_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["estimate", "--target", "H", "--geometry", "euclidean-ball",
                "--n", "5", "--eps", "1e-3", "--sweep", "2", "--R", "15"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reduce_byte_identical(self, tmp_path):
        spec = tmp_path / "field.json"
        theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        spec.write_text(json.dumps({"samples": list(np.sin(theta) + 0.3 * np.cos(3 * theta))}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for field, k in (("cos(theta)", "1"), ("cos(2*theta)", "2"), (str(spec), "2")):
            args = ["reduce", "--field", field, "--k", k, "--seeds", "8", "--seed", "3"]
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()


class TestFixtures:
    def test_verify_shipped_fixtures(self):
        rep = fx.verify()
        assert rep["ok"], rep["failures"]

    def test_tampered_fixture_named(self, tmp_path):
        src = fx.default_fixture_path()
        doc = json.loads(src.read_text())
        name = "escobar/n=5/S_star"
        doc["entries"][name]["value"] *= 1.001
        bad = tmp_path / "derived.json"
        bad.write_text(json.dumps(doc))
        rep = fx.verify(bad)
        assert not rep["ok"]
        assert any(f["entry"] == name for f in rep["failures"])

    def test_missing_fixture_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fx.verify(tmp_path / "nope.json")
