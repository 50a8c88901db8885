"""Seeded job streams of the two in-process workloads, and their checks.

A job is a small JSON-able dict drawn from the seed; ``Session`` holds what
set-up built (the closed-form profiles and the pinned fixtures) and runs one
job at a time through public ``bubblelab`` functions. ``run`` returns the
values the check needs; ``check`` compares them with a reference the
repository already trusts and returns ``None`` or a failure message.

Both streams are balanced so that the mix of work in a run does not depend
on the seed: the half-space stream cycles through every (kind, n, R) cell in
a seeded order, and the ladder spreads its cutoffs evenly (see
``ladder_stream``).
"""
from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

HALFSPACE_N = (5, 6, 7)
HALFSPACE_R = (20.0, 30.0, 40.0)
# catalog geometries with their parameters; the H estimators need H != 0 and
# the ring-II inversion needs a channel probe with H = 0
H_GEOMETRIES = (("euclidean-ball", {"radius": 1.0}), ("euclidean-ball", {"radius": 2.0}),
                ("h-only", {"H": 0.5}), ("h-only", {"H": 1.0}),
                ("umbilic-sphere-cap", {"curvature": 0.5}),
                ("umbilic-sphere-cap", {"curvature": 1.0}))
CHANNEL_GEOMETRIES = (("anisotropic-cylinder-like", {}), ("ricci-only", {"value": 1.0}),
                      ("boundary-scal-only", {"value": 1.0}))
HALFSPACE_KINDS = ("single", "three", "ringII", "deficit-escobar", "deficit-plain")

LADDER_N = (5, 6, 7)
LADDER_R = (25.0, 500.0)

# acceptance bands, set from the estimators' proven rates with a wide margin
# over the values measured on every job these streams can draw
SINGLE_ORDER = (0.8, 1.2)
SINGLE_REL_ERR = 1e-3
THREE_ORDERS = (3.0, 2.0, 1.0)
THREE_ORDER_TOL = 0.3
RING_ERR = 1e-3
SERIES_REL = {"escobar": 1e-8, "plain-trace": 1e-2}
DIAGONAL_KAPPA2_REL = 0.05


def halfspace_stream(seed: int):
    """Energy-only estimator jobs over a small key set, so keys repeat.

    A cycle holds every (kind, n, R) once; the geometry is drawn per job.
    """
    rng = random.Random(seed)
    cells = [(kind, n, R) for kind in HALFSPACE_KINDS
             for n in HALFSPACE_N for R in HALFSPACE_R]
    while True:
        rng.shuffle(cells)
        for kind, n, R in cells:
            pool = CHANNEL_GEOMETRIES if kind == "ringII" else (
                H_GEOMETRIES if kind in ("single", "three")
                else H_GEOMETRIES + CHANNEL_GEOMETRIES)
            geo, kw = rng.choice(pool)
            yield {"kind": kind, "geometry": geo, "kw": kw, "n": n, "R": R}


def ladder_stream(seed: int):
    """One fresh cutoff per job on a seeded log-uniform ladder.

    Log-cutoffs follow a golden-ratio (Weyl) sequence from a seeded start:
    it never repeats a value and every prefix is spread evenly over the
    ladder, so each run's mix of small and large grids is the same; n
    cycles through LADDER_N.
    """
    rng = random.Random(seed)
    lo, hi = math.log(LADDER_R[0]), math.log(LADDER_R[1])
    u, n0 = rng.random(), rng.randrange(len(LADDER_N))
    step = (math.sqrt(5.0) - 1.0) / 2.0
    for k in itertools.count():
        u = (u + step) % 1.0
        yield {"kind": "ladder", "n": LADDER_N[(n0 + k) % len(LADDER_N)],
               "R": math.exp(lo + (hi - lo) * u)}


STREAMS = {"halfspace-session": halfspace_stream, "cutoff-ladder": ladder_stream}
# jobs per balanced cycle; a timed run of such a stream runs whole cycles only
CYCLE_JOBS = {"halfspace-session": len(HALFSPACE_KINDS) * len(HALFSPACE_N) * len(HALFSPACE_R),
              "cutoff-ladder": 1}


def load_pins(root: Path) -> dict:
    return json.loads((root / "fixtures" / "derived.json").read_text())["entries"]


def pin_drift(pins: dict, prefix: str, values: dict):
    """First value outside its pin's tolerance (as ``fixtures verify`` scales it)."""
    for key, value in values.items():
        pin = pins.get(f"{prefix}/{key}")
        if pin is None:
            continue
        if abs(value - pin["value"]) > pin["tolerance"] * max(1.0, abs(pin["value"])):
            return f"{prefix}/{key}: {value!r} vs pin {pin['value']!r}"
    return None


class Session:
    """Set-up state of one job-running process and the job runners.

    The runners import ``bubblelab`` names when they run, so a traced worker,
    which wraps the package after importing this module, reaches the wrappers.
    """

    def __init__(self, root: Path):
        import numpy as np
        from bubblelab.profiles import escobar_halfspace_optimizer
        self.np = np
        self.pins = load_pins(root)
        self.profiles = {n: escobar_halfspace_optimizer(n) for n in HALFSPACE_N}
        self.results = {}            # job key -> values, for the repeat check

    def run(self, job: dict) -> dict:
        return getattr(self, "_run_" + job["kind"].replace("-", "_"))(job)

    # -- half-space session --------------------------------------------------
    def _data(self, job):
        from bubblelab.geometry import geometry_catalog
        return geometry_catalog(job["geometry"], job["n"], **job["kw"]).data

    def _run_single(self, job):
        from bubblelab.estimators import escobar_single_scale_sweep
        data = self._data(job)
        eps = 2e-3 * 0.5 ** self.np.arange(5)
        sw = escobar_single_scale_sweep(data, self.profiles[job["n"]], job["R"], eps)
        fin = sw["reports"][-1]
        return {"order": sw["order"], "rel_err": fin.error / abs(fin.truth),
                "estimate": fin.estimate}

    def _run_three(self, job):
        from bubblelab.estimators import escobar_three_scale_sweep
        data = self._data(job)
        eps = 8e-3 * 0.5 ** self.np.arange(5)
        sw = escobar_three_scale_sweep(data, self.profiles[job["n"]], job["R"], eps)
        return {"orders": [sw["orders"][k] for k in ("H", "mass", "theta")],
                "estimate": [sw["reports"][k][-1].estimate for k in ("H", "mass", "theta")]}

    def _run_ringII(self, job):
        # the library path behind ``bubblelab estimate --target ringII``
        from bubblelab.estimators import escobar_three_scale_sweep, ring_II_estimator
        from bubblelab.moments import weighted_moments, escobar_constants
        from bubblelab.energy import channel_fit_second_order
        n, R, U = job["n"], job["R"], self.profiles[job["n"]]
        data = self._data(job)
        eps = 1e-3 * 0.5 ** self.np.arange(5)
        sw = escobar_three_scale_sweep(data, U, R, eps)
        C = escobar_constants(n, weighted_moments(U, R))
        limits = {"S_star": C.S_star, "rho_conf": C.rho_conf, "kappa3": C.kappa3}
        fit = channel_fit_second_order(n, U, C, R=R)
        C.kappa1, C.kappa2, C.kappa3 = fit.kappa1, fit.kappa2, fit.kappa3_fit
        fin = ring_II_estimator(sw["reports"]["mass"][-1].estimate, data, C)
        return {"limits": limits, "error": fin.error, "truth": fin.truth,
                "estimate": fin.estimate}

    def _run_deficit(self, job, functional):
        from bubblelab.geometry import fermi_jet
        from bubblelab.energy import deficit_series
        np = self.np
        eps = 1e-2 * 0.5 ** np.arange(6)
        jet = fermi_jet(self._data(job), order=2,
                        chart_radius=max(1.0, eps[0] * 2.1 * job["R"]))
        sw = deficit_series(jet, self.profiles[job["n"]], job["R"], eps,
                            functional=functional)
        y = sw.deficits / sw.reference
        series = sum(c * eps ** (k + 1) for k, c in enumerate(sw.series))
        rel = np.abs(y - series)[-3:] / np.maximum(np.abs(y[-3:]), 1e-300)
        return {"series_rel": float(rel.max()), "estimate": y.tolist()}

    def _run_deficit_escobar(self, job):
        return self._run_deficit(job, "escobar")

    def _run_deficit_plain(self, job):
        return self._run_deficit(job, "plain-trace")

    # -- cutoff ladder ---------------------------------------------------------
    def _run_ladder(self, job):
        from bubblelab.moments import weighted_moments, escobar_constants
        from bubblelab.energy import channel_fit_second_order, deficit_series
        from bubblelab.geometry import geometry_catalog, fermi_jet
        np = self.np
        n, R, U = job["n"], job["R"], self.profiles[job["n"]]
        tab = weighted_moments(U, R)
        C = escobar_constants(n, tab)
        consts = {"S_star": C.S_star, "rho_conf": C.rho_conf, "kappa3": C.kappa3}
        fit = channel_fit_second_order(n, U, C, R=R)
        # diagonal regime on the boundary-scalar probe: deficit/S ~ kappa2 eps^2
        eps = min(4e-3, 0.5 / R) * 0.5 ** np.arange(2)
        data = geometry_catalog("boundary-scal-only", n, value=1.0).data
        jet = fermi_jet(data, order=2, chart_radius=max(1.0, eps[0] * 2.1 * R))
        sw = deficit_series(jet, U, R, eps, diagonal=True)
        ratio = (sw.deficits / sw.reference) / eps ** 2 / fit.kappa2
        return {"limits": dict(tab.limits), "constants": consts,
                "diag_rel": float(np.max(np.abs(ratio - 1.0))),
                "estimate": [fit.kappa1, fit.kappa2, fit.kappa3_fit]}

    # -- checks ----------------------------------------------------------------
    def check(self, job: dict, out: dict):
        kind, n = job["kind"], job["n"]
        if kind == "single":
            lo, hi = SINGLE_ORDER
            if not (lo <= out["order"] <= hi) or out["rel_err"] > SINGLE_REL_ERR:
                return f"H-hat order {out['order']:.3f}, finest rel err {out['rel_err']:.2e}"
        elif kind == "three":
            if any(abs(o - e) > THREE_ORDER_TOL for o, e in zip(out["orders"], THREE_ORDERS)):
                return f"three-scale orders {out['orders']}"
        elif kind == "ringII":
            drift = pin_drift(self.pins, f"escobar/n={n}", out["limits"])
            if drift:
                return drift
            if out["error"] > RING_ERR * max(1.0, abs(out["truth"])):
                return f"ring-II error {out['error']:.2e} vs truth {out['truth']}"
        elif kind.startswith("deficit-"):
            tol = SERIES_REL["plain-trace" if kind == "deficit-plain" else "escobar"]
            if out["series_rel"] > tol:
                return f"deficits off the exact jet series by {out['series_rel']:.2e}"
        elif kind == "ladder":
            drift = (pin_drift(self.pins, f"moment_limit/n={n}", out["limits"])
                     or pin_drift(self.pins, f"escobar/n={n}", out["constants"]))
            if drift:
                return drift
            if out["diag_rel"] > DIAGONAL_KAPPA2_REL:
                return f"diagonal deficits off kappa2 eps^2 by {out['diag_rel']:.2%}"
        # identical inputs must give identical numbers
        key = json.dumps(job, sort_keys=True)
        first = self.results.setdefault(key, out["estimate"])
        if first != out["estimate"]:
            return f"repeat of {key} changed its result"
        return None
