"""bubblelab benchmark: seeded closed-loop job streams, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/bubblelab`` and ``fixtures``
must be there; nothing is built or installed). Workloads:

  halfspace-session  one long-lived process runs energy-only estimator jobs
                     whose moment-matrix keys mostly repeat
  cutoff-ladder      one long-lived process runs the kappa2-versus-cutoff
                     study, each job at a cutoff not used before
  cli-session        a fresh ``bubblelab`` process per command, against a
                     profile cache that starts empty

Every job is checked against a reference (see ``jobs.py`` and
``cli_session.py``); a job that raises, exits non-zero or misses its
reference counts as failed. With ``--trace 0`` the last line of output holds
the end-to-end metrics; with ``--trace 1`` the run runs a fixed job list
twice, untraced and then with the span tracer of ``tracer.py`` installed, and
reports the per-layer metrics instead. The line before it
(``PROVENANCE {...}``) records versions, core count, thread settings, seed
and sample counts. README.md maps each layer metric to the end-to-end
metrics it should move.

Every file the run writes lives in a temporary directory under
``.perfbench_tmp/`` in the checkout, which is removed when the run ends.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("halfspace-session", "cutoff-ladder", "cli-session")
SETUP_SAMPLES = 5            # fresh-process set-ups per run; the median is reported
TAIL_BEYOND = 10             # jobs the tail percentile must leave above it
# jobs/s of the in-process workloads when the benchmark was defined; sizes a
# traced run's fixed job list to about --seconds for its two passes
NOMINAL_RATE = {"halfspace-session": 4.0, "cutoff-ladder": 0.8}
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

def child_env(tmp: Path, cache: Path) -> dict:
    env = dict(os.environ)
    env.pop("BUBBLELAB_FIXTURES", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["BUBBLELAB_CACHE"] = str(cache)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(argv, env, stdout_path: Path, stderr_path: Path):
    """Run to completion; returns (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Worker:
    """A ``worker.py`` process; ``ready_s`` is its set-up time."""

    def __init__(self, workload, seed, seconds, env, tmp: Path, *, max_jobs=None,
                 trace=False, setup_only=False):
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(float(seconds))]
        if max_jobs is not None:
            argv += ["--max-jobs", str(max_jobs)]
        if trace:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        self._err = open(tmp / f"worker-{time.monotonic_ns()}.err", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self._err,
                                     env=env, cwd=ROOT, text=True)
        self._killer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._killer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.finish()
            raise BenchError(f"worker failed during set-up: {line!r}")

    def finish(self) -> dict:
        try:
            lines = self.proc.stdout.read().splitlines()
            code = self.proc.wait()
        finally:
            self._killer.cancel()
            self.proc.stdout.close()
            self._err.close()
        if code != 0:
            tail = Path(self._err.name).read_text(errors="replace")[-2000:]
            raise BenchError(f"worker exited with {code}: {tail}")
        return json.loads(lines[-1]) if lines else {}


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def tail_latency(latencies: list):
    """Latency at the highest whole percentile with TAIL_BEYOND jobs above it.

    With fewer than 2 * TAIL_BEYOND jobs no such percentile lies above the
    median; the tail is then the 90th percentile, interpolated between the
    two order statistics around it, which is steadier than the slowest job.
    Returns (percentile, latency, jobs above it).
    """
    lat = sorted(latencies)
    n = len(lat)
    if n < 2 * TAIL_BEYOND:
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if n > 1 else lat[0]
        return 90, p90, sum(x > p90 for x in lat)
    pct = math.floor(100.0 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(pct / 100.0 * n)          # nearest-rank
    return pct, lat[rank - 1], n - rank


def stream_summary(records: list, wall: float) -> tuple:
    lat = [r["latency_s"] for r in records]
    failed = [r for r in records if r["error"] is not None]
    pct, tail, beyond = tail_latency(lat)
    metrics = {
        "jobs_per_s": (len(records) - len(failed)) / wall,
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail,
    }
    counts = {"jobs": len(records), "failed": len(failed),
              "latency_samples": len(lat), "tail_percentile": pct,
              "tail_samples_beyond": beyond, "stream_wall_s": wall,
              "jobs_by_kind": _count(r["kind"] for r in records),
              "p50_s_by_kind": {k: statistics.median(r["latency_s"] for r in records
                                                     if r["kind"] == k)
                                for k in sorted({r["kind"] for r in records})},
              "failures": sorted({f"{r['kind']}: {r['error']}"[:300] for r in failed})}
    return metrics, counts


def _count(items) -> dict:
    out: dict = {}
    for it in items:
        out[it] = out.get(it, 0) + 1
    return dict(sorted(out.items()))


# --------------------------------------------------------------------------
# workloads run in one long-lived process
# --------------------------------------------------------------------------

def run_inprocess(workload, seed, seconds, trace, tmp: Path):
    env = child_env(tmp, tmp / "cache")
    if trace:
        # the same fixed job list, untraced then traced, in fresh processes
        n = trace_job_count(workload, seconds)
        plain = Worker(workload, seed, seconds, env, tmp, max_jobs=n).finish()
        traced = Worker(workload, seed, seconds, env, tmp, max_jobs=n, trace=True).finish()
        import tracer
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
        records = plain["records"] + traced["records"]
        _, counts = stream_summary(records, plain["wall_s"] + traced["wall_s"])
        return records, tracer.finalize(layers), counts

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker(workload, seed, seconds, env, tmp, setup_only=True)
        setups.append(w.ready_s)
        w.finish()
    w = Worker(workload, seed, seconds, env, tmp)
    setups.append(w.ready_s)
    out = w.finish()
    metrics, counts = stream_summary(out["records"], out["wall_s"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = out["peak_rss_mb"]
    counts["setup_samples"] = len(setups)
    return out["records"], _with_units(metrics), counts


def trace_job_count(workload, seconds) -> int:
    """Jobs of a traced run: fixed by workload and --seconds, so counts repeat."""
    return max(3, round(NOMINAL_RATE[workload] * seconds / 2.0))


def _with_units(metrics: dict) -> dict:
    units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
             "peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())}


# --------------------------------------------------------------------------
# cli-session
# --------------------------------------------------------------------------

class CliPass:
    """Set-up and command cycles of one cli-session pass (traced or not)."""

    def __init__(self, tmp: Path, label: str, trace: bool, cache: Path = None):
        import jobs
        self.dir = tmp / label
        (self.dir / "out").mkdir(parents=True)
        self.cache = cache or self.dir / "cache"
        self.env = child_env(tmp, self.cache)
        self.trace = trace
        self.pins = jobs.load_pins(ROOT)
        self.peak_rss = 0.0
        self.span_files = []
        self.bytes_out = 0
        self.window_errs = []
        self._n = 0

    def _argv(self, mode, args=()):
        argv = [sys.executable, str(HERE / "cli_entry.py"), mode]
        if self.trace:
            trace_file = self.dir / f"spans-{self._n}.json"
            self.span_files.append(trace_file)
            argv += ["--trace-out", str(trace_file)]
        return argv + ["--", *args]

    def _run(self, argv):
        self._n += 1
        so, se = self.dir / f"{self._n}.stdout", self.dir / f"{self._n}.stderr"
        code, wall, rss = run_child(argv, self.env, so, se)
        self.peak_rss = max(self.peak_rss, rss)
        return code, wall, so, se

    def import_sample(self) -> float:
        code, wall, _, se = self._run([sys.executable, str(HERE / "cli_entry.py"),
                                       "import-only"])
        if code != 0:
            raise BenchError(f"import failed: {se.read_text()[-2000:]}")
        return wall

    def fill_cache(self) -> float:
        """Solve the GN profiles into the empty cache; returns the solve time."""
        code, _, so, se = self._run(self._argv("fill-cache"))
        if code != 0:
            raise BenchError(f"profile cache fill failed: {se.read_text()[-2000:]}")
        return json.loads(so.read_text().splitlines()[-1])["fill_s"]

    def run_cycle(self, cycle: list, index: int) -> list:
        import cli_session
        records, outputs = [], {}
        for job in cycle:
            args = list(job["args"])
            out = None
            if job["ext"]:
                out = self.dir / "out" / f"{index}-{job['name']}.{job['ext']}"
                args += ["--out", str(out)]
            if self.trace:
                argv = self._argv("run", args)
            else:
                argv = [sys.executable, "-m", "bubblelab.cli", *args]
            code, wall, so, se = self._run(argv)
            stdout = so.read_text()
            data = out.read_bytes() if out is not None and out.exists() else b""
            self.bytes_out += len(data) + len(stdout.encode())
            if code != 0:
                error = f"exit {code}: {se.read_text()[-300:]}"
            else:
                try:
                    error = cli_session.check(job, data, stdout, self.pins, outputs,
                                              self.window_errs)
                except (ValueError, KeyError, IndexError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            outputs[job["name"]] = data
            records.append({"kind": job["kind"], "latency_s": wall, "error": error})
        return records

    def run_cycles(self, cycles, seconds=None):
        """Whole cycles: a fixed list, or drawn until the next would overrun."""
        records, done = [], []
        start = time.perf_counter()
        for i, cyc in enumerate(cycles):
            c0 = time.perf_counter()
            records += self.run_cycle(cyc, i)
            done.append(cyc)
            last = time.perf_counter() - c0
            if seconds is not None and time.perf_counter() - start + last > seconds:
                break
        return records, time.perf_counter() - start, done


def _draw_cycles(seed):
    import cli_session
    rng = random.Random(seed)
    while True:
        yield cli_session.cycle(rng)


def run_cli(seed, seconds, trace, tmp: Path):
    import oracles
    if trace:
        # one cycle, untraced then traced, on the cache the traced fill made
        traced = CliPass(tmp, "traced", trace=True)
        traced.fill_cache()
        plain = CliPass(tmp, "plain", trace=False, cache=traced.cache)
        cycles = [next(_draw_cycles(seed))]
        rec_a, wall_a, _ = plain.run_cycles(cycles)
        rec_b, wall_b, _ = traced.run_cycles(cycles)
        import tracer
        totals, import_s = [], 0.0
        for f in traced.span_files:
            doc = json.loads(f.read_text())
            import_s += doc["import_s"]
            totals.append(tracer.layer_totals(doc["spans"]))
        layers = tracer.merge_totals(totals)
        layers.update({
            "cli.import_s": import_s,
            "cli.bytes_out": traced.bytes_out,
            "dynamics.window_max_rel_err": max(traced.window_errs, default=0.0),
            "dynamics.window_tol_misses": sum(
                e > oracles.LAM_TOL for e in traced.window_errs),
            "trace.overhead_s": wall_b - wall_a,
        })
        records = rec_a + rec_b
        _, counts = stream_summary(records, wall_a + wall_b)
        counts["cycles"] = len(cycles)
        return records, tracer.finalize(layers), counts

    p = CliPass(tmp, "plain", trace=False)
    imports = [p.import_sample() for _ in range(SETUP_SAMPLES)]
    fill_s = p.fill_cache()
    records, wall, cycles = p.run_cycles(_draw_cycles(seed), seconds)
    metrics, counts = stream_summary(records, wall)
    metrics["setup_s"] = statistics.median(imports) + fill_s
    metrics["peak_rss_mb"] = p.peak_rss
    counts.update({"setup_samples": len(imports), "import_s": imports,
                   "cache_fill_s": fill_s, "cycles": len(cycles),
                   "window_max_rel_err": max(p.window_errs, default=0.0),
                   "window_tol_misses": sum(e > oracles.LAM_TOL for e in p.window_errs),
                   "window_lam_tol": oracles.LAM_TOL})
    return records, _with_units(metrics), counts


# --------------------------------------------------------------------------
# provenance and entry point
# --------------------------------------------------------------------------

def provenance(args, counts) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")) + [ROOT / "fixtures" / "derived.json"]:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], **versions,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        **counts,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (ROOT / "src" / "bubblelab" / "__init__.py", ROOT / "fixtures" / "derived.json"):
        if not need.is_file():
            print(f"perfbench: {need.relative_to(ROOT)} not found; run from the root "
                  "of a bubblelab source checkout", file=sys.stderr)
            return 2
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    try:
        if args.workload == "cli-session":
            records, metrics, counts = run_cli(args.seed, args.seconds, args.trace, tmp)
        else:
            records, metrics, counts = run_inprocess(args.workload, args.seed, args.seconds,
                                                     args.trace, tmp)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:             # another run still uses it
            pass
    failed = sum(r["error"] is not None for r in records)
    print("PROVENANCE " + json.dumps(provenance(args, counts), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
