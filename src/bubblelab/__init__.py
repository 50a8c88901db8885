"""bubblelab: numerics for boundary-bubble energy expansions.

Model optimizer profiles, weighted moments and closed-form coefficients,
Fermi metric jets, energy quotients with eps-sweeps, energy-only curvature
estimators, the reduced multi-bubble potential, and fast-diffusion decay
bounds; see the README for the module map and the CLI.
"""
import os
import tempfile
from pathlib import Path

__version__ = "0.1.0"


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a fresh temp file in its directory,
    renamed over it: a reader sees the old file or the new one, and a failed
    write leaves the old file and no temp file."""
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
