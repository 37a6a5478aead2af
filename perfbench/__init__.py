"""Benchmark of the waveheat toolkit: timed workloads, correctness gates and layer traces.

Run one workload with ``python3 -m perfbench.run --workload census --seed 1
--seconds 30 --trace 0`` from the repository root, or every workload with
``python3 -m perfbench.report``.  See ``perfbench/README.md``.
"""
