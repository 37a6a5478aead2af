"""The entry point prints one JSON result line, and refuses a checkout without sources."""

import json
import shutil
import subprocess
import sys

from perfbench import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "-m", "perfbench.run", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_verify_run_reports_every_end_to_end_metric():
    proc = _bench(run.ROOT, "--workload", "verify", "--seed", "3", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_fails_without_printing_a_result_in_a_bare_copy(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
