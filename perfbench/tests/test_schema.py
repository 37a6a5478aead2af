"""BENCHMARK.json is well formed and within its limits, and every metric it names is measured."""

import json
import re

import numpy as np
import pytest

from perfbench import reference, run, workloads
from perfbench.tracing import layer_metrics

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_top_level_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
               for arg in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and ".." not in path and not path.startswith("/")
        assert (run.ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_run_budget_fits():
    # a full measurement makes 4 + 22 runs per workload and must end within
    # 3420 s; a run ends within its budget unless its last repetition is
    # slower than the ones before, by a few seconds at most
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 5) <= 3420


def test_workloads_match_the_runner():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"]) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metric_entries():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _rep(traced, failed=()):
    spans = {"name": np.array([0], np.int32), "parent": np.array([-1], np.int32),
             "start": np.array([0.0]), "end": np.array([1.0])}
    rep = {"traced": traced, "wall_s": 1.5, "setup_s": 0.5, "cpu_s": 2.0,
           "peak_rss_mb": 80.0, "ref_s": 0.03, "attempted": 10, "failed": list(failed),
           "arguments": None, "balance_defect_max": 0.0, "io_bytes_written": 100}
    if traced:
        rep["layers"] = layer_metrics(["spectrum.polish"], spans, 1.5, 3, 0)
    return rep


def test_every_listed_metric_is_reported_in_its_mode():
    summary = run.summarize("census", [_rep(False), _rep(True)])
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        line = run.result_line({**summary, "trace": trace}, SPEC)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in listed]
        assert all(line["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)


def test_end_to_end_metrics_are_never_zero():
    summary = run.summarize("verify", [_rep(False)])
    assert all(summary["end_to_end"][m["name"]] > 0 for m in SPEC["end_to_end"])


def test_times_are_scaled_to_the_nominal_host_speed():
    # a host running at half the nominal speed doubles every time it measures
    slow = {**_rep(False), "ref_s": 2.0 * reference.NOMINAL_S}
    summary = run.summarize("verify", [slow])
    assert summary["end_to_end"]["wall_s"] == pytest.approx(0.75)
    assert summary["end_to_end"]["setup_s"] == pytest.approx(0.25)
    assert summary["end_to_end"]["cpu_s"] == pytest.approx(1.0)
    assert summary["end_to_end"]["peak_rss_mb"] == 80.0


def test_reference_pass_time_is_positive():
    assert 0.0 < reference.measure(passes=3) < 1.0
