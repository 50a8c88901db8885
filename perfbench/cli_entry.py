"""Child process of the cli-session workload when it needs more than the CLI.

    python3 perfbench/cli_entry.py import-only
    python3 perfbench/cli_entry.py fill-cache [--trace-out PATH]
    python3 perfbench/cli_entry.py run --trace-out PATH -- <bubblelab args>

``import-only`` imports the CLI and exits (one set-up sample). ``fill-cache``
solves the GN profiles the CLI commands read into the empty profile cache
and prints the solve time. ``run`` is ``bubblelab <args>`` with the span
tracer of this directory installed; the spans and the import time go to
``PATH`` when the command ends. Untraced commands run as
``python3 -m bubblelab.cli`` and never load this file.
"""
from __future__ import annotations

import json
import sys
import time

# (n, p) of every profile a cli-session command reads from the cache
CACHED_PROFILES = ((2, 3.0), (3, 3.0))


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    trace_out = None
    if rest[:1] == ["--trace-out"]:
        trace_out, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    t0 = time.perf_counter()
    if trace_out:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    import bubblelab.cli
    import_s = time.perf_counter() - t0
    if mode == "import-only":
        return 0
    code = 0
    t1 = time.perf_counter()
    try:
        if mode == "fill-cache":
            from bubblelab.fixtures import cached_gn_profiles
            for n, p in CACHED_PROFILES:
                cached_gn_profiles(n, p)
        else:
            code = bubblelab.cli.main(rest)
    finally:
        if trace_out:
            with open(trace_out, "w") as fh:
                json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    if mode == "fill-cache":
        print(json.dumps({"fill_s": time.perf_counter() - t1}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
