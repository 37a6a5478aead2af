"""One timed repetition of a workload, in a fresh interpreter.

    python3 -m perfbench.rep --workload NAME --seed N --trace 0|1 --out DIR --result FILE

The parent (``perfbench.run``) notes the monotonic clock before it starts
this process; this process notes it again just before the first workload
call and once the checked outputs are on disk.  After that, and after
reading its own CPU time and peak memory, it times the reference
computation (``perfbench.reference``).  Nothing is printed: the result
goes to ``--result`` as JSON.  A workload error is recorded as a failed
check, so the timings are still reported.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_info() -> list[dict]:
    """Version string and thread count of every OpenBLAS this process loaded."""
    libs = set()
    if not Path("/proc/self/maps").is_file():
        return []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info["threads"] = int(threads())
                    info["config"] = config().decode()
                    break
            if "threads" in info:
                break
        out.append(info)
    return out


def _digests(out: Path) -> tuple[dict[str, str], int]:
    digests, total = {}, 0
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            total += len(data)
            if path.suffix == ".csv":
                digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests, total


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="perfbench.rep")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    import numpy
    import scipy
    import waveheat

    if not Path(waveheat.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"waveheat imported from {waveheat.__file__}, not from this checkout",
              file=sys.stderr)
        return 3

    from . import checks, reference
    from .tracing import Tracer, layer_metrics
    from .workloads import Workload

    out = Path(args.out)
    work = Workload(args.workload, args.seed, out)
    work.prepare()
    tracer = Tracer() if args.trace else None
    error = None
    with work.capturing(), tracer or contextlib.nullcontext():
        first_call = time.monotonic()
        try:
            work.run()
        except Exception:  # a failing workload still reports its timings
            error = traceback.format_exc(limit=3)
        done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ref_s = reference.measure()

    found = checks.completed(error)
    try:
        found += work.check()
    except Exception:
        found.append(checks.Check("checks_completed", False, traceback.format_exc(limit=3)))
    digests, written = _digests(out)
    series = work.outcome.series
    result = {
        "first_call": first_call,
        "done": done,
        "wall_s": done - first_call,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "ref_after_s": ref_s,
        "traced": bool(args.trace),
        "attempted": len(found),
        "failed": [{"name": c.name, "detail": c.detail} for c in found if not c.ok],
        "digests": digests,
        "arguments": work.arguments,
        "balance_defect_max": max((checks.balance_defect(s) for s in series), default=0.0),
        "io_bytes_written": written,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_info(),
        },
    }
    if tracer is not None:
        tracer.save(out.parent / "spans.npz")
        result["layers"] = layer_metrics(
            tracer.names, tracer.arrays(), done - first_call,
            tracer.newton_iters, tracer.max_dim,
        )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
