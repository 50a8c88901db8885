"""In-memory span tracer for the bubblelab layers, and the per-layer metrics.

``install()`` wraps every public function and public method defined in the
ten package modules (the layers), and rebinds each wrapped function wherever
a ``bubblelab`` module imported it by name, so calls between modules are
seen too. Each call records one span: name, start, end, the id of the span
that caused it and, for a few calls, a small extra (a cache key, a node
count). Spans stay in memory until the process ends; ``dump`` writes them
out, ``layer_totals`` reduces span lists to additive totals and
``finalize`` turns merged totals into the reported metrics.

Nothing here is imported by the program; only benchmark processes load it.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("quadrature", "profiles", "moments", "geometry", "energy",
          "estimators", "reduced", "dynamics", "cli", "fixtures")

# non-public entry points that carry a layer's work and would otherwise be
# folded into the caller's self time
_EXTRA_METHODS = {("energy", "InteriorEnergyModel"): ("__init__",)}

_QUOTIENTS = {"energy.escobar_quotient", "energy.plain_trace_quotient",
              "energy.gn_quotient",
              "energy.HalfspaceEnergyModel.escobar_quotient",
              "energy.HalfspaceEnergyModel.plain_trace_quotient",
              "energy.HalfspaceEnergyModel.gn_quotient",
              "energy.InteriorEnergyModel.gn_quotient"}
_PROFILE_EVALS = {"profiles.RadialProfile.value", "profiles.RadialProfile.grad"}
_FDE = {"dynamics.euclidean_leading_constant", "dynamics.ode_decay_check",
        "dynamics.decay_envelope"}


def _profile_key(prof) -> str:
    return repr((prof.kind, prof.n, prof.amplitude, prof.lam, tuple(prof.xi),
                 prof.p, prof.shift, prof.tail_coeff))


def _matrix_key(args, kwargs) -> str:
    names = ("profile", "R", "spec", "p_exponent", "t_offset")
    bound = dict(zip(names, args), **kwargs)
    from bubblelab.quadrature import DEFAULT_QUAD
    return repr((_profile_key(bound["profile"]), float(bound["R"]),
                 repr(bound.get("spec") or DEFAULT_QUAD), bound.get("p_exponent"),
                 float(bound.get("t_offset", 0.0))))


def _extra(name, args, kwargs, result):
    """Per-call detail that the metrics need beyond the span times."""
    if name == "energy.halfspace_moment_matrix":
        return _matrix_key(args, kwargs)
    if name == "quadrature.grid_1d":
        return int(len(result[0]))
    if name == "reduced.critical_point_search":
        seeds = kwargs.get("seeds", args[3] if len(args) > 3 else 64)
        return [int(seeds), len(result)]
    return None


class Tracer:
    """Span recorder; one per process."""

    def __init__(self):
        self.spans = []      # [id, parent, name, start, end, extra]
        self._stack = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [sid, parent, name, time.perf_counter(), 0.0, None]
            tracer.spans.append(rec)
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                tracer._stack.pop()
            rec[5] = _extra(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self) -> None:
        """Import every layer and wrap its public callables in place."""
        mods = {layer: importlib.import_module(f"bubblelab.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapped)
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    extra = _EXTRA_METHODS.get((layer, attr), ())
                    self._wrap_class(f"{layer}.{attr}", obj, extra)
        # rebind names other modules imported with ``from .x import f``
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("bubblelab") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, prefix, cls, extra):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(name, obj))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# --------------------------------------------------------------------------
# reduction: spans -> additive totals -> metrics
# --------------------------------------------------------------------------

def _outermost(spans, names, parents):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for s in spans:
        if s[2] not in names:
            continue
        p = s[1]
        while p >= 0 and spans[p][2] not in names:
            p = parents[p]
        if p < 0:
            out.append(s)
    return out


def _dur(spans):
    return sum(s[4] - s[3] for s in spans)


def layer_totals(spans) -> dict:
    """Additive totals of one process's spans (merge with ``merge_totals``)."""
    parents = [s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[4] - s[3]
    self_s = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_s[s[2].split(".", 1)[0]] += (s[4] - s[3]) - child_time[s[0]]

    def named(*names):
        return [s for s in spans if s[2] in names]

    def outer(names):
        return _outermost(spans, set(names), parents)

    matrix = named("energy.halfspace_moment_matrix")
    seen, repeats = set(), 0
    for s in matrix:
        repeats += s[5] in seen
        seen.add(s[5])
    gn = named("profiles.gn_ground_state")
    cache = named("fixtures.cached_gn_profiles")
    gn_ids = {s[0] for s in gn}
    misses = 0
    for s in cache:
        # a miss is a cache call under which a ground state was solved
        misses += any(_has_ancestor(g, s[0], parents) for g in gn_ids)
    searches = named("reduced.critical_point_search")
    estimator_sweeps = [s for s in spans
                        if s[2].startswith("estimators.") and s[2].endswith("_sweep")]
    channel = named("energy.channel_fit_second_order")
    return {
        "energy.matrix_builds": len(matrix),
        "energy.matrix_repeats": repeats,
        "energy.matrix_s": _dur(outer(["energy.halfspace_moment_matrix"])),
        "energy.quotient_evals": len(outer(_QUOTIENTS)),
        "energy.quotient_s": _dur(outer(_QUOTIENTS)),
        "energy.interior_s": _dur(outer({s[2] for s in spans
                                         if s[2].startswith("energy.InteriorEnergyModel.")})),
        "energy.channel_fit_self_s": sum((s[4] - s[3]) - child_time[s[0]] for s in channel),
        "profiles.eval_calls": len(named(*_PROFILE_EVALS)),
        "profiles.eval_s": _dur(outer(_PROFILE_EVALS)),
        "profiles.gn_solves": len(gn),
        "profiles.gn_solve_s": _dur(outer(["profiles.gn_ground_state"])),
        "quadrature.grid_nodes": sum(s[5] or 0 for s in named("quadrature.grid_1d")),
        "quadrature.self_s": self_s["quadrature"],
        "moments.table_builds": len(named("moments.weighted_moments")),
        "moments.table_s": _dur(outer(["moments.weighted_moments"])),
        "moments.gn_coeff_s": _dur(outer(["moments.gn_coefficients"])),
        "geometry.jet_s": _dur(outer({s[2] for s in spans if s[2].startswith("geometry.")})),
        "estimators.sweeps": len(estimator_sweeps),
        "estimators.self_s": self_s["estimators"],
        "dynamics.window_solves": len(named("dynamics.small_window_lambda1")),
        "dynamics.window_s": _dur(outer(["dynamics.small_window_lambda1"])),
        "dynamics.fde_s": _dur(outer(_FDE)),
        "fixtures.cache_hits": len(cache) - misses,
        "fixtures.cache_misses": misses,
        "fixtures.cache_s": _dur(outer(["fixtures.cached_gn_profiles"])),
        "reduced.searches": len(searches),
        "reduced.search_s": _dur(outer(["reduced.critical_point_search"])),
        "reduced.seeds": sum(s[5][0] for s in searches if s[5]),
        "reduced.points": sum(s[5][1] for s in searches if s[5]),
        "cli.commands": len([s for s in spans if s[2].startswith("cli.cmd_")]),
        "cli.self_s": self_s["cli"],
    }


def _has_ancestor(sid, anc, parents) -> bool:
    p = parents[sid]
    while p >= 0:
        if p == anc:
            return True
        p = parents[p]
    return False


def merge_totals(totals: list) -> dict:
    out: dict = {}
    for t in totals:
        for k, v in t.items():
            out[k] = out.get(k, 0) + v
    return out


# every reported per-layer metric and its unit
UNITS = {
    "energy.matrix_builds": "count", "energy.matrix_s": "s",
    "energy.matrix_repeat_ratio": "ratio", "energy.quotient_evals": "count",
    "energy.quotient_s": "s", "energy.interior_s": "s", "energy.channel_fit_self_s": "s",
    "profiles.eval_calls": "count", "profiles.eval_s": "s",
    "quadrature.grid_nodes": "count", "quadrature.self_s": "s",
    "moments.table_builds": "count", "moments.table_s": "s", "moments.gn_coeff_s": "s",
    "geometry.jet_s": "s", "estimators.sweeps": "count", "estimators.self_s": "s",
    "profiles.gn_solves": "count", "profiles.gn_solve_s": "s",
    "dynamics.window_solves": "count", "dynamics.window_s": "s",
    "dynamics.window_max_rel_err": "rel", "dynamics.window_tol_misses": "count",
    "dynamics.fde_s": "s",
    "fixtures.cache_hits": "count", "fixtures.cache_misses": "count", "fixtures.cache_s": "s",
    "reduced.searches": "count", "reduced.search_s": "s", "reduced.seeds": "count",
    "reduced.points": "count",
    "cli.commands": "count", "cli.import_s": "s", "cli.self_s": "s", "cli.bytes_out": "B",
    "trace.overhead_s": "s",
}


def finalize(totals: dict) -> dict:
    """Reported per-layer metrics from merged totals (``{name: {value, unit}}``).

    Totals a workload does not produce (the cli and window figures of the
    in-process workloads) are reported as zero.
    """
    builds = totals.get("energy.matrix_builds", 0)
    repeats = totals.get("energy.matrix_repeats", 0)
    values = dict(totals, **{"energy.matrix_repeat_ratio": repeats / builds if builds else 0.0})
    return {k: {"value": values.get(k, 0), "unit": u} for k, u in UNITS.items()}
