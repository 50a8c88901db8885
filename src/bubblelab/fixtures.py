"""Derived-value fixtures: regeneration with high-resolution oracles, and
verification at standard resolution against the pinned tolerances.

The fixture file stores every independently computed reference number the
test suite freezes (moment limits, sharp constants, channel fits, GN
coefficients, window eigenvalues) together with provenance: which oracle
produced it, at what resolution, when, and the tolerance the verify pass
must meet. The comparison payload is canonical JSON (sorted keys, shortest
round-trip floats), so repeated regenerations are byte-identical.

The GN ground state is solved, and its half-space near-optimizer built, once
per process and memoized there (``cached_gn_ground_state`` and
``cached_gn_profiles``); nothing is written to disk.
"""
from __future__ import annotations

import datetime as _dt
import json
import os
from pathlib import Path

from .quadrature import QuadratureSpec, DEFAULT_QUAD
from .profiles import (escobar_halfspace_optimizer, gn_ground_state,
                       gn_halfspace_near_optimizer)
from .moments import weighted_moments, escobar_constants, gn_coefficients
from .energy import _memoized, channel_fit_second_order

__all__ = ["default_fixture_path", "cached_gn_ground_state", "cached_gn_profiles",
           "regenerate", "verify", "canonical_json"]

SCHEMA_VERSION = 1

_HIGH = QuadratureSpec(order=28, subdiv=2)


def default_fixture_path() -> Path:
    env = os.environ.get("BUBBLELAB_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[2] / "fixtures" / "derived.json"


def cached_gn_ground_state(n: int, p: float):
    """GN ground state, solved once per process.

    Memoized in the process-wide LRU of ``energy`` under ("gn-ground", n, p);
    ``cached_gn_profiles`` and the Euclidean-leading EEP constant of
    ``dynamics`` read the same entry. A solve that raises stores nothing.
    """
    return _memoized(("gn-ground", n, p), lambda: gn_ground_state(n, p))


def cached_gn_profiles(n: int, p: float):
    """Ground state and the half-space near-optimizer built from it, once per
    process.

    Memoized in the process-wide LRU of ``energy`` under (n, p), the ground
    state under its own key (``cached_gn_ground_state``); a solve that raises
    stores nothing.
    """
    def solve():
        Q = cached_gn_ground_state(n, p)
        return Q, gn_halfspace_near_optimizer(Q)

    return _memoized(("gn-profiles", n, p), solve)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _compute_entries(spec: QuadratureSpec) -> dict:
    from .dynamics import small_window_lambda1
    entries: dict = {}

    def put(name, value, tol):
        entries[name] = {"value": float(value), "tolerance": float(tol)}

    for n in (4, 5, 6, 7):
        U = escobar_halfspace_optimizer(n)
        tab = weighted_moments(U, 40.0, spec)
        C = escobar_constants(n, tab)
        for key in tab.limits:
            put(f"moment_limit/n={n}/{key}", tab.limits[key], 1e-8)
        put(f"escobar/n={n}/S_star", C.S_star, 1e-8)
        put(f"escobar/n={n}/rho_conf", C.rho_conf, 1e-8)
        if n >= 5:
            put(f"escobar/n={n}/kappa3", C.kappa3, 1e-8)
        if n == 5:
            fit = channel_fit_second_order(n, U, C, R=100.0, spec=spec)
            put("channel_fit/n=5/kappa1", fit.kappa1, 1e-4)
            put("channel_fit/n=5/kappa2", fit.kappa2, 1e-4)
            put("channel_fit/n=5/kappa3", fit.kappa3_fit, 1e-4)

    for (n, p) in ((2, 3.0), (3, 3.0)):
        Q, Qp = cached_gn_profiles(n, p)
        co = gn_coefficients(Q, Qp, R=20.0, spec=spec)
        put(f"gn/n={n}/p={p}/C_star", co.C_star, 1e-6)
        put(f"gn/n={n}/p={p}/kappa_int", co.kappa_int, 1e-6)
        put(f"gn/n={n}/p={p}/kappa_bdy", co.kappa_bdy, 2e-6)
        put(f"gn/n={n}/p={p}/Q0", Q.meta.get("Q0", 0.0), 1e-7)

    put("window/n=2/disk_lambda1", small_window_lambda1(2, 0.0), 1e-6)
    put("window/n=2/d=1e-3", small_window_lambda1(2, 1e-3), 1e-6)
    put("window/n=3/d=1e-3", small_window_lambda1(3, 1e-3), 1e-6)
    return entries


def regenerate(path: Path | None = None) -> dict:
    path = Path(path) if path else default_fixture_path()
    entries = _compute_entries(_HIGH)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "entries": entries,
        "provenance": {
            "oracle": "panelled Gauss-Legendre, two-resolution",
            "quadrature": {"order": _HIGH.order, "subdiv": _HIGH.subdiv},
            "generated": _dt.date.today().isoformat(),
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = canonical_json({"schema_version": doc["schema_version"],
                              "entries": doc["entries"]})
    text = canonical_json(doc)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return {"path": str(path), "n_entries": len(entries),
            "payload_bytes": len(payload)}


def verify(path: Path | None = None) -> dict:
    """Recompute every entry at standard resolution and compare to the pins."""
    path = Path(path) if path else default_fixture_path()
    if not path.exists():
        raise FileNotFoundError(f"no fixture file at {path}; run regenerate first")
    doc = json.loads(path.read_text())
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("fixture schema version mismatch")
    fresh = _compute_entries(DEFAULT_QUAD)
    failures = []
    for name, pin in doc["entries"].items():
        if name not in fresh:
            failures.append({"entry": name, "reason": "missing from recompute"})
            continue
        drift = abs(fresh[name]["value"] - pin["value"])
        scale = max(1.0, abs(pin["value"]))
        if drift > pin["tolerance"] * scale:
            failures.append({"entry": name, "pinned": pin["value"],
                             "recomputed": fresh[name]["value"], "drift": drift,
                             "tolerance": pin["tolerance"]})
    extra = sorted(set(fresh) - set(doc["entries"]))
    return {"ok": not failures, "n_entries": len(doc["entries"]),
            "failures": failures, "unpinned_new_entries": extra}
