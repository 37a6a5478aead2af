"""Benchmark entry point: repeat one workload for a fixed time and summarize it.

    python3 -m perfbench.run --workload census --seed 1 --seconds 30 --trace 0

Run it from the repository root.  Each repetition is a fresh interpreter
(``perfbench.rep``), so no module state, ARPACK start vector or import
carries over, and every repetition pays set-up as a CLI user does.  A new
repetition starts only while it is expected to end within ``--seconds``;
at least one always runs.

Each repetition also times the fixed reference computation of
``perfbench.reference`` right after its workload.  Its times are scaled
by ``NOMINAL_S`` over the mean of the reference times just before it (its
predecessor's) and just after it, so they read as seconds at the nominal
host speed: the speed of a shared host drifts by up to 2x over minutes,
and the scaled times drift much less.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced repetitions: the median scaled wall, set-up and CPU time, and the
median peak memory.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics (medians over the traced
ones, times scaled likewise), with the traced minus untraced median wall
time as ``trace.overhead_s`` and the unscaled figures as ``host.*``.
Human-readable lines come first; the last line of standard output is one
JSON object.  Full results, CSV digests and the spans of the last traced
repetition go to ``.perfbench_runs/`` in the repository root.

Exit status: 0 when a result was printed (``correct`` says whether every
check passed), 1 when a repetition could not run, 2 for a checkout
without ``src/waveheat`` or bad arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import reference
from .workloads import NAMES, work_units

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
RUN_LIMIT_S = 170.0


class RepError(RuntimeError):
    """A repetition exited abnormally or left no result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources: names the code in a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "waveheat").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn_rep(workload: str, seed: int, traced: bool, rep_dir: Path, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # one BLAS thread: a second one did not shorten any workload on a 2-core
    # host, doubled cpu_s, and spin-waited whenever another process held a core
    env["OPENBLAS_NUM_THREADS"] = "1"
    result = rep_dir.with_suffix(".json")
    cmd = [sys.executable, "-m", "perfbench.rep", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--out", str(rep_dir), "--result", str(result)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"{workload} repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.is_file():
        raise RepError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    rep = json.loads(result.read_text())
    rep["setup_s"] = rep["first_call"] - t_spawn
    return rep


def _digest_history(workload: str, seed: int, source: str, digests: dict) -> bool | None:
    """Compare with earlier runs of the same code and seed, then append this one."""
    log = RUNS / "digests.jsonl"
    match = None
    if log.is_file():
        for line in log.read_text().splitlines():
            entry = json.loads(line)
            if (entry["workload"], entry["seed"], entry["source"]) == (workload, seed, source):
                match = (match is not False) and entry["digests"] == digests
    with open(log, "a") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "source": source,
                             "digests": digests}) + "\n")
    return match


def repeat(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> list[dict]:
    """Start repetitions (alternately untraced and traced when tracing) for ``seconds``."""
    kinds = (False, True) if trace else (False,)
    reps: list[dict] = []
    t0 = time.monotonic()
    longest_cycle = 0.0
    while True:
        cycle_start = time.monotonic()
        for traced in kinds:
            remaining = RUN_LIMIT_S - (time.monotonic() - t0)
            rep = spawn_rep(workload, seed, traced, run_dir / f"rep{len(reps)}", remaining)
            # the reference around a repetition: the one its predecessor
            # timed just before it started, and its own, timed just after
            rep["ref_s"] = 0.5 * (reps[-1]["ref_after_s"] + rep["ref_after_s"]) if reps \
                else rep["ref_after_s"]
            reps.append(rep)
        now = time.monotonic()
        longest_cycle = max(longest_cycle, now - cycle_start)
        if now - t0 + longest_cycle > seconds:
            return reps


def _scale(rep: dict) -> float:
    """Factor that turns the repetition's seconds into seconds at the nominal host speed."""
    return reference.NOMINAL_S / rep["ref_s"]


def summarize(workload: str, reps: list[dict]) -> dict:
    """End-to-end metrics from untraced repetitions, layers from traced ones."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = [f for r in reps for f in r["failed"]]
    wall = [r["wall_s"] * _scale(r) for r in plain]
    end_to_end = {
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median([r["setup_s"] * _scale(r) for r in plain]),
        "cpu_s": statistics.median([r["cpu_s"] * _scale(r) for r in plain]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
    }
    extra = {"failed_frac": len(failed) / attempted if attempted else 1.0}
    units = work_units(workload)
    if units:
        extra[units[0]] = units[1] / end_to_end["wall_s"]
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            # times scale like the end-to-end ones; counts and fractions do not
            layers[key] = statistics.median(
                [r["layers"][key] * (_scale(r) if key.endswith("_s") else 1.0)
                 for r in traced])
        layers["simulator.balance_defect_max"] = max(r["balance_defect_max"] for r in reps)
        layers["io.bytes_written"] = statistics.median([r["io_bytes_written"] for r in traced])
        layers["trace.overhead_s"] = (
            statistics.median([r["wall_s"] * _scale(r) for r in traced]) - end_to_end["wall_s"])
        layers["checks.failed_frac"] = extra["failed_frac"]
        layers["host.ref_s"] = statistics.median([r["ref_s"] for r in reps])
        layers["host.wall_unscaled_s"] = statistics.median([r["wall_s"] for r in plain])
        layers["host.setup_unscaled_s"] = statistics.median([r["setup_s"] for r in plain])
    return {
        "workload": workload,
        "reps": len(reps),
        "traced_reps": len(traced),
        "arguments": reps[0]["arguments"],
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "wall_s_all": wall,
        "per_rep": [{k: r[k] for k in ("traced", "wall_s", "setup_s", "cpu_s", "peak_rss_mb",
                                       "ref_s")}
                    for r in reps],
        "extra": extra,
        "layers": layers,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions for ``seconds``; summarize them with digests and metadata."""
    run_dir = RUNS / f"{workload}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    t0 = time.monotonic()
    reps = repeat(workload, seed, seconds, trace, run_dir)
    summary = summarize(workload, reps)
    digests = [r["digests"] for r in reps]
    source = source_digest()
    versions = reps[0]["versions"]
    summary.update({
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "elapsed_s": time.monotonic() - t0,
        "digests": digests[0],
        "digests_agree_within_run": all(d == digests[0] for d in digests),
        "digests_match_previous": _digest_history(workload, seed, source, digests[0]),
        "meta": {
            **versions,
            "nproc": nproc(),
            "blas_threads_within_nproc": all(
                b.get("threads", 0) <= nproc() for b in versions["blas"]),
            "git_commit": _git_commit(),
            "source_sha256": source,
        },
    })
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1))
    return summary


def result_line(summary: dict, spec: dict) -> dict:
    """The final JSON object: every metric of the mode, by the names in BENCHMARK.json."""
    values = summary["layers"] if summary["trace"] else summary["end_to_end"]
    listed = spec["per_layer"] if summary["trace"] else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": not summary["failed"],
        "attempted": summary["attempted"],
        "failed": len(summary["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def describe(summary: dict, spec: dict) -> list[str]:
    """Every metric of the run by name and unit, then checks, digests and metadata."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failed_frac="1", disks_per_s="1/s", resonances_per_s="1/s", steps_per_s="1/s")
    s, meta = summary, summary["meta"]
    lines = [f"workload {s['workload']}  seed {s['seed']}  trace {s['trace']}  "
             f"repetitions {s['reps']} ({s['traced_reps']} traced) in {s['elapsed_s']:.1f} s"]
    args = s["arguments"]
    lines.append("  arguments: " + ("waveheat " + " ".join(args) if isinstance(args, list)
                                    else json.dumps(args)))
    wall = s["wall_s_all"]
    for name, value in {**s["end_to_end"], **s["extra"], **s["layers"]}.items():
        lines.append(f"  {name:44s} {value:.6g} {units.get(name, '')}")
    ref = [r["ref_s"] for r in s["per_rep"]]
    lines.append(f"  reference pass: {statistics.median(ref) * 1e3:.2f} ms median over the run, "
                 f"nominal {reference.NOMINAL_S * 1e3:.2f} ms; times are scaled by their ratio")
    lines.append(f"  scaled wall_s over {len(wall)} untraced repetitions: "
                 f"min {min(wall):.4f}  median {statistics.median(wall):.4f}  "
                 f"max {max(wall):.4f}")
    lines.append(f"  checks: {len(s['failed'])} failed of {s['attempted']}")
    lines += [f"    FAIL {f['name']} {f['detail']}".rstrip() for f in s["failed"][:20]]
    previous = {None: "no earlier run", True: "match", False: "DIFFER"}
    lines.append(f"  csv digests: agree within run: {s['digests_agree_within_run']}; "
                 f"earlier runs of this code and seed: {previous[s['digests_match_previous']]}")
    lines += [f"    {name} {digest}" for name, digest in s["digests"].items()]
    blas = ", ".join(f"{b.get('config', b['library'])} threads {b.get('threads', '?')}"
                     for b in meta["blas"])
    lines.append(f"  python {meta['python']}  numpy {meta['numpy']}  scipy {meta['scipy']}  "
                 f"nproc {meta['nproc']}  commit {meta['git_commit']}")
    lines.append(f"  blas: {blas}")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="perfbench.run", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "waveheat" / "__init__.py").is_file():
        print(f"perfbench: no waveheat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(summary, spec)
    except (RepError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(summary, spec)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
