"""Command-line front door.

Subcommands: moments, coefficients, expand, estimate, gauss-bonnet, reduce,
dynamics, fixtures, each with its options declared once in ``_OPTIONS``. A
config file (--config file.json) pre-fills options, each value read through
its flag's type and choices; explicit flags win. Outputs are written
atomically (temp file + rename) and deterministically (sorted keys, shortest
round-trip float formatting); every JSON document carries schema_version and
the constants snapshot it used.

Exit codes: 0 success, 2 validation failure, 3 numerical failure (with a
diagnostic JSON on stderr). Warnings go to stderr as JSON lines too.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


class ValidationFailure(Exception):
    pass


class NumericalFailure(Exception):
    pass


# --------------------------------------------------------------------------
# io helpers
# --------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=p.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, p)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit_json(path: str | None, doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    # strict JSON: a non-finite float raises (exit 3) instead of writing NaN
    text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _emit_csv(path: str | None, header: list, rows: list, comment: str) -> None:
    lines = [f"# {comment}", ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _merge_config(ns: argparse.Namespace) -> argparse.Namespace:
    """Config fills unset options, each value read as the flag reads it (its
    type applied to str(value), then its choices); explicit flags win; the
    table's defaults fill the rest."""
    options = {_dest(flag): opt for flag, opt in _OPTIONS[ns.command][1].items()}
    raw = {}
    if ns.config:
        try:
            raw = json.loads(Path(ns.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationFailure(f"cannot read config: {exc}")
        if not isinstance(raw, dict):
            raise ValidationFailure("config must be a JSON object")
        unknown = [k for k in raw if k.replace("-", "_") not in {*options, "out"}]
        if unknown:
            raise ValidationFailure(f"unknown config keys: {unknown}")
    for key, value in raw.items():
        attr = key.replace("-", "_")
        if value is None or getattr(ns, attr) is not None:
            continue
        kw = options.get(attr, (None, {}))[1]
        try:
            value = kw.get("type", str)(str(value))
        except ValueError:
            raise ValidationFailure(f"config {key!r}: invalid {kw['type'].__name__} "
                                    f"value {value!r}")
        if value not in kw.get("choices", (value,)):
            raise ValidationFailure(f"config {key!r}: invalid choice {value!r} "
                                    f"(choose from {', '.join(kw['choices'])})")
        setattr(ns, attr, value)
    for attr, (default, _) in options.items():
        if getattr(ns, attr) is None:
            setattr(ns, attr, default)
    missing = [attr for attr in options if getattr(ns, attr) is _REQUIRED]
    if missing:
        raise ValidationFailure(f"missing required option(s): {missing}")
    return ns


def _geometry(ns):
    from .geometry import geometry_catalog, CATALOG_NAMES
    if ns.geometry not in CATALOG_NAMES:
        raise ValidationFailure(f"unknown --geometry {ns.geometry!r}; the catalog has "
                                f"{', '.join(CATALOG_NAMES)}")
    kw = {}
    if ns.geometry == "euclidean-ball":
        kw["radius"] = ns.radius
    if ns.geometry in ("ricci-only", "boundary-scal-only"):
        kw["value"] = ns.value
    if ns.geometry == "h-only":
        kw["H"] = ns.H
    if ns.geometry == "umbilic-sphere-cap":
        kw["curvature"] = ns.value
    return geometry_catalog(ns.geometry, ns.n, **kw)


def _int_check(name, value, at_least=None):
    if value != int(value):
        raise ValidationFailure(f"{name} must be an integer, got {value}")
    if at_least is not None and value < at_least:
        raise ValidationFailure(f"{name} must be at least {at_least}, got {int(value)}")
    return int(value)


def _positive_check(name, value):
    if not 0.0 < value < math.inf:
        raise ValidationFailure(f"{name} must be positive and finite, got {value}")


def _cutoff_check(R):
    if not 1.0 <= R < math.inf:
        raise ValidationFailure(f"--R must be a finite cutoff radius >= 1, got {R}")


def _escobar_dimension_check(n: int, target: str = "") -> None:
    """The half-space optimizer's weighted moments are finite only for n >= 4;
    the channel fit behind ``--target ringII`` needs n >= 5."""
    if n < 4:
        raise ValidationFailure(
            f"moment-divergent dimension --n {n}: the weighted moments of the "
            "half-space optimizer are finite only for n >= 4")
    if target == "ringII" and n < 5:
        raise ValidationFailure(f"--target ringII needs --n >= 5 for the channel fit, got {n}")


# --------------------------------------------------------------------------
# subcommand implementations
# --------------------------------------------------------------------------

def cmd_moments(ns) -> str:
    from .profiles import escobar_halfspace_optimizer
    from .moments import weighted_moments
    n = _int_check("--n", ns.n)
    _escobar_dimension_check(n)
    _cutoff_check(ns.R)
    tab = weighted_moments(escobar_halfspace_optimizer(n), ns.R)
    if ns.format == "csv":
        rows = [(k, tab.values[k], tab.errors[k]) for k in sorted(tab.values)]
        rows += [(f"{k}_limit", tab.limits[k], 0.0) for k in sorted(tab.limits)]
        _emit_csv(ns.out, ["name", "value", "error_estimate"], rows,
                  f"truncated moments of chi_R U_+ at R={tab.R}, n={n}; "
                  "dimensionless after unit-Dirichlet normalization")
    else:
        _emit_json(ns.out, {"kind": "moment-table", "n": n, "R": tab.R,
                            "values": tab.values, "errors": tab.errors,
                            "limits": tab.limits,
                            "limit_errors": dict.fromkeys(tab.limits, 0.0)})
    return f"moments n={n} R={tab.R}: Theta_limit={tab.limits['Theta']:.9g}"


def cmd_coefficients(ns) -> str:
    from .profiles import escobar_halfspace_optimizer
    from .moments import weighted_moments, escobar_constants
    n = _int_check("--n", ns.n)
    _escobar_dimension_check(n)
    _cutoff_check(ns.R)
    U = escobar_halfspace_optimizer(n)
    C = escobar_constants(n, weighted_moments(U, ns.R))
    _emit_json(ns.out, {"kind": "escobar-constants", "constants": C.snapshot()})
    return (f"coefficients n={n}: S*={C.S_star:.9g} rho={C.rho_conf:.9g} "
            f"kappa3={C.kappa3 if C.kappa3 is not None else 'n/a'}")


def cmd_expand(ns) -> str:
    from .profiles import escobar_halfspace_optimizer
    from .geometry import fermi_jet
    from .energy import deficit_series
    n = ns.n = _int_check("--n", ns.n)
    _escobar_dimension_check(n)
    _cutoff_check(ns.R)
    _positive_check("--eps0", ns.eps0)
    levels = _int_check("--eps-levels", ns.eps_levels, at_least=1)
    geo = _geometry(ns)
    U = escobar_halfspace_optimizer(n)
    eps = ns.eps0 * 0.5 ** np.arange(levels)
    jet = fermi_jet(geo.data, order=2, chart_radius=max(1.0, ns.eps0 * 2.1 * ns.R))
    sweep = deficit_series(jet, U, ns.R, eps, functional=ns.functional)
    r = sweep.result
    rows = [(*row, r.err_estimate)
            for row in zip(r.eps, r.numerator, r.denominator, r.quotient, r.deficit)]
    _emit_csv(ns.out, ["eps", "numerator", "denominator", "quotient", "deficit", "err_est"],
              rows, f"{ns.functional} sweep on {geo.name}, n={n}, R={ns.R}; "
              "deficit vs the flat value at the same cutoff")
    return (f"expand {geo.name} n={n}: deficit({eps[0]:.3g})={sweep.deficits[0]:.6g}, "
            f"series c1={sweep.series[0]:.6g}")


def cmd_estimate(ns) -> str:
    from .estimators import estimate
    n = ns.n = _int_check("--n", ns.n)
    _cutoff_check(ns.R)
    _positive_check("--eps", ns.eps)
    eps = ns.eps * 0.5 ** np.arange(_int_check("--sweep", ns.sweep, at_least=1))
    if ns.target == "scal":
        from .profiles import _admissible_gn
        from .geometry import InteriorPointData
        if n < 2 or not _admissible_gn(n, ns.p):
            raise ValidationFailure(
                f"--p {ns.p} at --n {n}: need n >= 2 and 1 < p < (n+2)/(n-2) (any p > 1 at n = 2)")
        data, where = InteriorPointData(n=n, scal=ns.value), {}
    else:
        _escobar_dimension_check(n, ns.target)
        geo = _geometry(ns)
        if ns.target == "ringII" and geo.data.H != 0.0:
            raise ValidationFailure(f"--target ringII holds on the H = 0 stratum only, where its "
                                    f"channel is fitted; {geo.name} has H = {geo.data.H:g}")
        data, where = geo.data, {"geometry": geo.name}
    est = estimate(ns.target, data, ns.R, eps, p=ns.p)
    reports, order = est["reports"], est["order"]
    if math.isnan(order):   # fewer than two non-zero errors: no slope
        order = None
    _emit_json(ns.out, {"kind": "estimator-report", "target": ns.target, "n": n, **where,
                        "empirical_order": order, "constants": est["constants"],
                        "rows": [{"eps": float(e), "estimate": r.estimate, "truth": r.truth,
                                  "error": r.error} for e, r in zip(eps, reports)]})
    on = f" on {where['geometry']}" if where else ""
    shown = "n/a" if order is None else f"{order:.3f}"
    return f"estimate {ns.target}{on}: finest={reports[-1].estimate:.6g} order={shown}"


# The estimated mode's one cutoff. The bound of ``_check_jet_positivity`` on the
# volume element of the disk's H = 1 Fermi jet is 1 - t, and the (2, 3) near-optimizer
# (shift 2) cut off at R = 20 reaches depth t = eps (2R + 2): so eps < 1/42.
_GB_R = 20.0
_GB_EPS_MAX = 1.0 / 42.0


def cmd_gauss_bonnet(ns) -> str:
    from .estimators import (gauss_bonnet_recovery, disk_fields_exact,
                             annulus_fields_exact, disk_fields_estimated)
    if ns.surface == "annulus" and not 0.0 < ns.inner_radius < 1.0:
        raise ValidationFailure(f"--inner-radius must lie in (0, 1), got {ns.inner_radius}")
    if ns.mode == "exact":
        if ns.surface == "disk":
            interior, boundary = disk_fields_exact()
        else:
            interior, boundary = annulus_fields_exact(ns.inner_radius)
    else:
        if ns.surface != "disk":
            raise ValidationFailure("estimated mode implemented for the disk")
        if not 0.0 < ns.eps < _GB_EPS_MAX:
            raise ValidationFailure(
                f"--eps must lie in (0, {_GB_EPS_MAX:.4g}), where the disk jet's volume "
                f"element stays positive on the bubble support; got {ns.eps}")
        from .moments import gn_coefficients
        from .fixtures import cached_gn_profiles
        Q, Qp = cached_gn_profiles(2, 3.0)
        co = gn_coefficients(Q, Qp, R=_GB_R)
        interior, boundary = disk_fields_estimated(Q, Qp, co, eps=ns.eps, R=_GB_R)
    rep = gauss_bonnet_recovery(2, interior, boundary)
    _emit_json(ns.out, {"kind": "gauss-bonnet", "surface": ns.surface,
                        "mode": ns.mode, "chi_hat": rep.estimate,
                        **rep.extras})
    return f"gauss-bonnet {ns.surface} ({ns.mode}): chi_hat={rep.estimate:.9g}"


_FIELD_PROBE = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)[:, None]


def _field(spec: str):
    """The --field option as a field: a JSON spec file, else an expression;
    one that cannot be read, built or evaluated on a probe batch of angles
    is bad input."""
    from .reduced import ExpressionField, GridField
    fld = None
    try:
        if not (spec and Path(spec).exists()):
            fld = ExpressionField(spec)
        else:
            raw = json.loads(Path(spec).read_text())
            if "expression" in raw:
                fld = ExpressionField(raw["expression"])
            elif "samples" in raw:
                fld = GridField(raw["samples"])
        if fld is not None:
            with np.errstate(all="ignore"):
                fld.values(_FIELD_PROBE)
    except Exception as exc:
        raise ValidationFailure(f"--field {spec!r}: {exc}")
    if fld is None:
        raise ValidationFailure("field spec needs 'expression' or 'samples'")
    return fld


def cmd_reduce(ns) -> str:
    from .reduced import critical_point_search, CircleDomain
    fld = _field(ns.field)
    k = _int_check("--k", ns.k, at_least=1)
    seeds = _int_check("--seeds", ns.seeds, at_least=1)
    pts = critical_point_search(fld, k, CircleDomain(), seeds=seeds, seed=ns.seed)
    doc = {"kind": "critical-points", "k": k, "n": ns.n, "seeds": seeds,
           "points": [{"centers": p.centers.ravel().tolist(), "value": p.value,
                       "grad_norm": p.grad_norm, "inertia": list(p.inertia),
                       "degenerate": p.degenerate} for p in pts]}
    _emit_json(ns.out, doc)
    return f"reduce: {len(pts)} critical configuration(s) of W_{k}"


def cmd_dynamics(ns) -> str:
    from .dynamics import DecayParams, ode_decay_check, window_ladder
    n = _int_check("--n", ns.n)
    if ns.mode == "fde":
        # the Bernoulli regime 0 < alpha = mn/(2mn + 2 - n) < 1 is (n-2)/n < m < 1
        if n < 2 or not (n - 2) / n < ns.m < 1.0:
            raise ValidationFailure(
                f"fde needs --n >= 2 and (n-2)/n < --m < 1 (the Bernoulli regime), got n={n}, m={ns.m}")
        for name in ("E0", "M0", "horizon"):
            _positive_check(f"--{name}", getattr(ns, name))
        if ns.C is not None:
            _positive_check("--C", ns.C)
        par = DecayParams(n=n, m=ns.m, E0=ns.E0, M0=ns.M0, C=ns.C)
        chk = ode_decay_check(par, ns.horizon)
        rows = list(zip(chk["t"], chk["E"], chk["envelope"]))
        _emit_csv(ns.out, ["t", "E_ode", "envelope"], rows,
                  f"fde decay n={par.n} m={par.m} alpha={par.alpha} "
                  f"kappa={par.kappa} (E' = -kappa E^(1/alpha) equality run)")
        return (f"dynamics fde: alpha={par.alpha:.6g} sup_gap={chk['sup_gap']:.3g} "
                f"majorized={chk['majorized']}")
    if ns.mode == "window":
        try:
            lo, hi = (float(v) for v in str(ns.ladder).split(":"))
        except ValueError:
            raise ValidationFailure(f"--ladder must be lo:hi, two floats; got {ns.ladder!r}")
        if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
            raise ValidationFailure(f"--ladder bounds must lie in (0, 1); got {ns.ladder!r}")
        if n not in (2, 3):
            raise ValidationFailure(f"window covers --n 2 or 3, got {n}")
        rungs = _int_check("--rungs", ns.rungs, at_least=2)
        ds = np.geomspace(lo, hi, rungs)
        lad = window_ladder(n, ds)
        rows = list(zip(lad["d"], lad["lambda1"], lad["scaled"]))
        _emit_csv(ns.out, ["d", "lambda1", "scaled"], rows,
                  "window eigenvalues; scaled = lambda1*|log d| (n=2) or lambda1/d^(n-2) (n=3)")
        return (f"dynamics window: tail variation {lad['tail_variation']:.3%} "
                f"across the last two rungs")
    raise ValidationFailure(f"unknown dynamics mode {ns.mode}")


def cmd_fixtures(ns) -> str:
    from . import fixtures
    if ns.action == "regenerate":
        info = fixtures.regenerate(ns.path)
        return f"fixtures regenerated: {info['n_entries']} entries at {info['path']}"
    if ns.action == "verify":
        rep = fixtures.verify(ns.path)
        if not rep["ok"]:
            raise NumericalFailure("fixture drift: "
                                   + json.dumps(rep["failures"], sort_keys=True))
        return f"fixtures verify: {rep['n_entries']} entries ok"
    raise ValidationFailure(f"unknown fixtures action {ns.action}")


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

_REQUIRED = object()   # the default of an option that has none
_FLOAT, _INT, _STR = {"type": float}, {"type": int}, {}

# subcommand: (help, {flag: (default, argparse keywords)}), in --help order;
# every subcommand also takes --config and --out, and runs cmd_<subcommand>
_OPTIONS = {
    "moments": ("weighted moment table", {
        "--n": (_REQUIRED, _FLOAT), "--R": (60.0, _FLOAT),
        "--format": ("json", {"choices": ("json", "csv")})}),
    "coefficients": ("Escobar constants", {
        "--n": (_REQUIRED, _FLOAT), "--R": (60.0, _FLOAT)}),
    "expand": ("eps-sweep of an energy quotient", {
        "--geometry": (_REQUIRED, _STR), "--n": (_REQUIRED, _FLOAT),
        "--eps-levels": (6, _INT), "--eps0": (1e-2, _FLOAT), "--R": (40.0, _FLOAT),
        "--functional": ("escobar", {"choices": ("escobar", "plain-trace")}),
        "--radius": (1.0, _FLOAT), "--value": (1.0, _FLOAT), "--H": (1.0, _FLOAT)}),
    "estimate": ("energy-only estimator sweeps", {
        "--target": (_REQUIRED, {"choices": ("H", "mass", "theta", "ringII", "scal")}),
        "--geometry": ("euclidean-ball", _STR), "--n": (_REQUIRED, _FLOAT),
        "--eps": (1e-3, _FLOAT), "--sweep": (5, _INT), "--R": (30.0, _FLOAT),
        "--radius": (1.0, _FLOAT), "--value": (1.0, _FLOAT), "--H": (1.0, _FLOAT),
        "--p": (3.0, _FLOAT)}),
    "gauss-bonnet": ("Euler characteristic recovery", {
        "--surface": (_REQUIRED, {"choices": ("disk", "annulus")}),
        "--mode": ("exact", {"choices": ("exact", "estimated")}),
        "--inner-radius": (0.5, _FLOAT),
        "--eps": (1e-2, {"type": float, "help": "estimated mode's boundary scale, "
                         f"in (0, 1/42 = {_GB_EPS_MAX:.4f})"})}),
    "reduce": ("critical points of the center potential", {
        "--field": (_REQUIRED, {"help": "expression in theta, or JSON field spec path"}),
        "--k": (_REQUIRED, _FLOAT), "--n": (6, _FLOAT), "--seeds": (64, _INT),
        "--seed": (0, _INT)}),
    "dynamics": ("decay envelopes and window eigenvalues", {
        "mode": (_REQUIRED, {"choices": ("fde", "window")}),
        "--n": (2, _FLOAT), "--m": (0.5, _FLOAT), "--E0": (1.0, _FLOAT),
        "--M0": (1.0, _FLOAT), "--C": (None, _FLOAT), "--horizon": (100.0, _FLOAT),
        "--ladder": ("1e-2:1e-5", _STR), "--rungs": (4, _INT)}),
    "fixtures": ("derived-value fixture management", {
        "action": (_REQUIRED, {"choices": ("regenerate", "verify")}),
        "--path": (None, _STR)}),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bubblelab",
                                description="boundary-bubble energy laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (help_, options) in _OPTIONS.items():
        sp = sub.add_parser(command, help=help_)
        sp.add_argument("--config", help="JSON config file (flags win)")
        sp.add_argument("--out", help="output path (stdout if omitted)")
        for flag, (_, kw) in options.items():
            sp.add_argument(flag, **kw)
        # looked up now, so a handler rebound on the module is the one that runs
        sp.set_defaults(func=globals()["cmd_" + _dest(command)])
    return p


def _show_warning(message, category, *_) -> None:
    print(json.dumps({"warning": category.__name__, "detail": str(message)}),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            ns = _merge_config(ns)
            summary = ns.func(ns)
            print(summary)
            return 0
        except ValidationFailure as exc:
            print(json.dumps({"error": "validation", "detail": str(exc)}), file=sys.stderr)
            return 2
        except (NumericalFailure, RuntimeError, FileNotFoundError, ValueError,
                OverflowError) as exc:
            print(json.dumps({"error": "numerical", "detail": str(exc)}), file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
