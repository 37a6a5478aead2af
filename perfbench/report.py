"""Print every end-to-end and per-layer metric of every workload, by name and unit.

    python3 -m perfbench.report [--seed 1] [--seconds 30]

Runs each workload untraced (end-to-end metrics) and then traced
(per-layer metrics), as ``perfbench.run`` does.  Exits 1 if any
correctness check failed, 2 for a checkout without ``src/waveheat``.
"""

from __future__ import annotations

import argparse
import sys

from . import run
from .workloads import NAMES


def main(argv: list[str] | None = None) -> int:
    spec = run.load_spec()
    p = argparse.ArgumentParser(prog="perfbench.report", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)
    if not (run.ROOT / "src" / "waveheat" / "__init__.py").is_file():
        print(f"perfbench: no waveheat sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    failed = 0
    for workload in NAMES:
        for trace in (False, True):
            try:
                summary = run.measure(workload, args.seed, args.seconds, trace)
            except run.RepError as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 1
            print("\n".join(run.describe(summary, spec)), flush=True)
            failed += len(summary["failed"])
    print(f"\n{failed} failed check(s)" if failed else "\nall checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
