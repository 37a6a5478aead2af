import dataclasses
import importlib
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import waveheat
from waveheat import characteristic, checks, resolvent, simulator
from waveheat.characteristic import BoundaryVariant
from waveheat.discretization import GridSpec, assemble
from waveheat.errors import WaveHeatError
from waveheat.simulator import EnergySeries
from waveheat.spectrum import EigenvalueRecord
from waveheat.state import StateVector, heat_nodes, wave_nodes

from conftest import fail_dirichlet_polish, poison_step

NEU, DIR = BoundaryVariant.NEUMANN, BoundaryVariant.DIRICHLET
POINT_ARGS = ([1 + 2j, -3 + 9j, 4.5 + 0.7j],)
Y = StateVector(u=np.cos(wave_nodes(32)), v=np.sin(wave_nodes(32)), w=heat_nodes(32) ** 2 - 1)


def _record(n, lam, residual=1e-13):
    return EigenvalueRecord(n, lam, residual, 4, True, NEU)


def _series(energies, dissipation, phi=(1.0, 1.0, 1.0)):
    return EnergySeries(np.arange(3.0), np.array(energies), np.array(dissipation), np.array(phi))


def _scale(factor):
    return lambda real: lambda lam, v: real(lam, v) * factor


def _lift_w(real):
    """``ClosedFormResolvent.solve`` with w(1) != 0."""
    def solve(self, y):
        sol = real(self, y)
        return sol._replace(state=dataclasses.replace(sol.state, w=sol.state.w + 1e-6))
    return solve


# check name -> (arguments that break its bound, and None or the binding to
# wrap: (module or class, attribute, wrapper of the real function))
FAULTS = {
    "schwarz_reflection": (POINT_ARGS, (characteristic, "char_fn", _scale(1 + 1e-9j))),
    "scaled_unscaled_agreement": (POINT_ARGS, (characteristic, "char_fn", _scale(1 + 1e-11))),
    "fg_product_identity": (POINT_ARGS, (characteristic, "fg_split",
                                     lambda real: lambda lam: (real(lam)[0] * 1.001, 0.0))),
    "derivative_vs_fd": (POINT_ARGS, (characteristic, "char_fn_deriv", _scale(1.0001))),
    "axis_growth_ratio_positive": ((np.array([5.0, 50.0]),), (
        characteristic, "det_growth_ratio", lambda real: lambda s: np.zeros(len(s)))),
    "polish": (([_record(5, -0.1 + 17j), _record(6, -0.1 + 20j, residual=1e-8)],), None),
    "conjugate_pairs": (([_record(5, -0.1 + 17j)], [_record(-6, -0.1 - 17.001j)]), None),
    "contour_counts": ((NEU, [1, 2, 1]), None),
    "det_two_path": ((Y, (2.0, 17.0)), (resolvent, "ClosedFormResolvent", lambda real: (
        lambda s, n_wave, n_heat, variant: SimpleNamespace(M=np.eye(2), det=2.0)))),
    "resolvent_coupling": ((10.0, Y), (resolvent.ClosedFormResolvent, "solve", _lift_w)),
    # the Dirichlet string is clamped: constant displacement is not stationary
    "kernel_vector": ((assemble(GridSpec(16, 16), DIR),), None),
    "kernel_functional_values": ((16,), (
        simulator, "kernel_functional", lambda real: lambda x: real(x) + 1e-12)),
    "energy_monotone": ((_series([1.0, 1.0 + 1e-9, 0.5], [0.0, -1e-9, 0.5]),), None),
    "energy_balance": ((_series([1.0, 0.5, 0.25], [0.0, 0.5, 0.2]),), None),
    "phi_constant_along_flow": ((_series([1.0, 0.5, 0.25], [0.0, 0.5, 0.25], [1, 1, 1 + 1e-9]),),
                                None),
    "norm_times_gap": (([{"norm_discrete": 2.0, "spectral_lower_bound": 1.0},
                         {"norm_discrete": 0.9, "spectral_lower_bound": 1.0}],), None),
    "sampled_below_discrete": (([{"norm_discrete": 1.0, "norm_sampled": 1.1}],), None),
    # the Neumann generator's kernel is the one eigenvalue in |sigma| < 0.3
    "dirichlet_no_kernel": ((assemble(GridSpec(16, 16), NEU),), None),
}


def test_every_check_has_a_fault():
    public = {name for name, fn in vars(checks).items() if not name.startswith("_")
              and getattr(fn, "__annotations__", {}).get("return") == "Check"}
    assert public == set(FAULTS)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_every_check_can_fail(name, monkeypatch):
    args, binding = FAULTS[name]
    if binding is not None:
        module, attr, wrap = binding
        monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    result = getattr(checks, name)(*args)
    assert result.passed is False, result


def test_conjugate_pairs_fails_with_nothing_compared():
    result = checks.conjugate_pairs([_record(5, -0.1 + 17j)], [_record(-5, -0.1 - 17j)])
    assert result.passed is False and result.detail.startswith("compared 0 of 1")


@pytest.mark.parametrize("nmax", [5, 40])
def test_battery_compares_every_conjugate_pair(nmax):
    found = {}
    for check in checks.battery(nmax, np.random.default_rng(0)):
        if check.name.startswith("conjugate_pairs"):
            found[check.name] = check
            if len(found) == 2:
                break
    assert set(found) == {"conjugate_pairs_neumann", "conjugate_pairs_dirichlet"}
    for check in found.values():
        assert check.passed, check
        assert check.detail.startswith(f"compared {nmax - 4} of {nmax - 4},"), check


def _battery_and_rng(seed):
    """The battery's checks (or the error it raised) and its rng's state after it."""
    rng = np.random.default_rng(seed)
    try:
        outcome = list(checks.battery(12, rng))
    except WaveHeatError as exc:
        outcome = exc
    return repr(outcome), rng.bit_generator.state


@pytest.mark.parametrize("inject", [None, fail_dirichlet_polish, poison_step],
                         ids=["no_fault", "worker_fault", "trajectory_fault"])
def test_battery_leaves_rng_where_one_process_does(inject, forks, monkeypatch):
    if inject is not None:
        inject(monkeypatch)
    forked = _battery_and_rng(5)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    # repr round-trips every float, so equal reprs are equal bits
    assert forked == _battery_and_rng(5)
    assert forked[1] != np.random.default_rng(5).bit_generator.state


def test_tracer_targets_exist(monkeypatch):
    # the benchmark's traced run patches these bindings; Tier-1 does not
    # collect the benchmark's own tests
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    tracing = importlib.import_module("perfbench.tracing")
    for module, cls, attr, _ in tracing.TARGETS:
        assert attr in tracing.resolve(module, cls).__dict__, (module, cls, attr)


def test_public_names_resolve():
    # a stale entry in __all__ would otherwise fail only at `import *`
    package = Path(waveheat.__file__).parent
    for path in sorted(package.glob("[!_]*.py")):
        module = importlib.import_module(f"waveheat.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (path.stem, name)
