"""The cli-session workload: one fresh ``bubblelab`` process per command.

``cycle(rng)`` draws one cycle of commands; ``check`` compares a command's
output with its reference. Commands write their outputs under the run's
temporary directory.
"""
from __future__ import annotations

import json
import re

import oracles
from jobs import pin_drift

SCAL_VALUES = {2: (1.0, 2.0, 3.0, 4.0), 3: (2.0, 4.0, 6.0, 8.0)}
GB_EPS = (1e-2, 8e-3)
FDE_E0 = (0.5, 1.0, 2.0)
FDE_M0 = (0.5, 1.0, 2.0)
FDE_HORIZON = (50.0, 100.0, 200.0)

SCAL_REL_ERR = 1e-5           # finest interior Scal-hat, eps = 6.25e-5
SCAL_ORDER = (1.7, 2.3)       # the estimator's O(eps^2) rate
GB_TOL = 0.05                 # acceptance criterion 9
# every rung against its characteristic root, at the tolerance and scaling of
# the window pins in fixtures/derived.json (as ``fixtures verify`` applies them)
WINDOW_TOL = 1e-6


# every short command runs this often per cycle, so the median latency rests
# on several samples of each; the later runs must repeat the first byte for byte
SHORT_RUNS = 3


def cycle(rng) -> list:
    """One cycle of cli jobs in a seeded order.

    ``kind`` names the command; ``name`` is unique within the cycle. The
    first run of a short command is checked against its reference, the
    others against the first run's output.
    """
    short = []
    for n in (2, 3):
        v = rng.choice(SCAL_VALUES[n])
        short.append({"kind": f"estimate-scal-n{n}", "check": "scal", "n": n, "value": v,
                      "args": ["estimate", "--target", "scal", "--n", str(n),
                               "--value", repr(v)], "ext": "json"})
    short.append({"kind": "gauss-bonnet", "check": "gauss-bonnet",
                  "args": ["gauss-bonnet", "--surface", "disk", "--mode", "estimated",
                           "--eps", repr(rng.choice(GB_EPS))], "ext": "json"})
    short.append({"kind": "reduce", "check": "reduce",
                  "args": ["reduce", "--field", "cos(2*theta)", "--k", "2", "--seeds", "32",
                           "--seed", str(rng.randrange(1000))], "ext": "json"})
    jobs = [dict(job) for job in short for _ in range(SHORT_RUNS)]
    jobs.append({"kind": "dynamics-fde", "check": "fde",
                 "args": ["dynamics", "fde", "--n", "2", "--m", "0.5",
                          "--E0", repr(rng.choice(FDE_E0)), "--M0", repr(rng.choice(FDE_M0)),
                          "--horizon", repr(rng.choice(FDE_HORIZON))], "ext": "csv"})
    for n in (2, 3):
        jobs.append({"kind": f"dynamics-window-n{n}", "check": "window", "n": n,
                     "args": ["dynamics", "window", "--n", str(n)], "ext": "csv"})
    jobs.append({"kind": "fixtures-verify", "check": "verify",
                 "args": ["fixtures", "verify"], "ext": None})
    rng.shuffle(jobs)
    seen: dict = {}
    for job in jobs:
        count = seen[job["kind"]] = seen.get(job["kind"], 0) + 1
        job["name"] = job["kind"] if count == 1 else f"{job['kind']}-{count}"
        if count > 1:
            job["check"] = "repeat"
    return jobs


def _float(cell: str) -> float:
    return float(re.sub(r"^np\.float64\((.*)\)$", r"\1", cell.strip()))


def _csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [[_float(c) for c in ln.split(",")] for ln in lines[1:]]


def check(job: dict, out: bytes, stdout: str, pins: dict, outputs: dict, window_errs: list):
    """``None`` if the command's output matches its reference, else the reason.

    ``outputs`` maps job names of this cycle to their output bytes;
    ``window_errs`` collects every window rung's relative error, which is
    reported against the solver's declared ``lam_tol`` but does not fail the
    job (see README.md, "Window accuracy").
    """
    kind = job["check"]
    if kind == "verify":
        return None if "entries ok" in stdout else f"fixtures verify said {stdout!r}"
    if kind == "repeat":
        return None if out == outputs.get(job["kind"]) else "repeat output differs"
    if kind in ("scal", "gauss-bonnet", "reduce"):
        doc = json.loads(out)
    if kind == "scal":
        fin = doc["rows"][-1]
        rel = abs(fin["estimate"] - job["value"]) / abs(job["value"])
        lo, hi = SCAL_ORDER
        if rel > SCAL_REL_ERR or not (lo <= doc["empirical_order"] <= hi):
            return f"Scal-hat rel err {rel:.2e}, order {doc['empirical_order']:.3f}"
        c = doc["constants"]
        return pin_drift(pins, f"gn/n={job['n']}/p=3.0",
                         {k: c[k] for k in ("C_star", "kappa_int", "kappa_bdy")})
    if kind == "gauss-bonnet":
        chi = doc["chi_hat"]
        return None if abs(chi - 1.0) <= GB_TOL else f"chi-hat {chi} (disk: 1)"
    if kind == "reduce":
        bad = [p for p in doc["points"] if not p["grad_norm"] <= 1e-8]
        if not doc["points"] or bad:
            return f"{len(doc['points'])} points, {len(bad)} above the gradient tolerance"
        return None
    rows = _csv_rows(out.decode())
    if kind == "fde":
        if "majorized=True" not in stdout:
            return f"fde not majorized: {stdout!r}"
        worst = max(E - env - 1e-8 * abs(env) for _, E, env in rows)
        return None if worst <= 0.0 else f"ODE above the envelope by {worst:.2e}"
    if kind == "window":
        n, misses = job["n"], []
        for d, lam, _ in rows:
            exact = oracles.window_lambda1(n, d)
            # measured against the declared relative lam_tol, reported apart
            window_errs.append(abs(lam - exact) / exact)
            if abs(lam - exact) > WINDOW_TOL * max(1.0, abs(exact)):
                misses.append(f"d={d:g}: {lam!r} vs characteristic root {exact!r}")
            # pins name the rung as d=1e-3
            drift = pin_drift(pins, f"window/n={n}", {f"d={d:.0e}".replace("e-0", "e-"): lam})
            if drift:
                misses.append(drift)
        return "; ".join(misses) or None
    raise KeyError(kind)
