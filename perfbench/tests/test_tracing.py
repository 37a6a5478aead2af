"""The tracer records nested spans and leaves every wrapped attribute as it found it."""

import numpy as np
import pytest

from perfbench import tracing
from perfbench.tracing import Tracer, layer_metrics, resolve


def _bindings():
    return {(m, c, a): resolve(m, c).__dict__[a] for m, c, a, _ in tracing.TARGETS}


def _traced_calls():
    from waveheat import resolvent, simulator, spectrum
    from waveheat.characteristic import BoundaryVariant
    from waveheat.discretization import GridSpec

    variant = BoundaryVariant.NEUMANN
    seed = {s.n: s for s in spectrum.seeds(variant, 12)}[12]
    rec = spectrum.polish(seed, variant)
    spectrum.count_zeros_contour(seed.center, seed.radius, variant, n_start=64)
    disc = resolvent.assemble(GridSpec(16, 16), variant)
    resolvent.snap_to_resonance(disc, 5.0)
    config = simulator.SimulationConfig(dt=1 / 32, t_max=10.0, grid=GridSpec(16, 16),
                                        variant=variant, output_stride=32)
    x0 = disc.unpack(np.linspace(0.0, 1.0, disc.dim))
    simulator.run(x0, config)
    return rec


def test_wrappers_are_removed_and_spans_nest():
    before = _bindings()
    with Tracer() as tracer:
        assert all(resolve(m, c).__dict__[a] is not fn for (m, c, a), fn in before.items())
        rec = _traced_calls()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)

    spans = tracer.arrays()
    metrics = layer_metrics(tracer.names, spans, float(spans["end"].max()
                                                        - spans["start"].min()),
                            tracer.newton_iters, tracer.max_dim)
    assert metrics["spectrum.polish.calls"] == 1
    assert metrics["spectrum.polish.newton_iters"] == rec.iters
    assert metrics["spectrum.count_zeros_contour.calls"] == 1
    assert metrics["discretization.assemble.calls"] >= 1
    assert metrics["discretization.eigenvalues_near.calls"] == 1
    assert metrics["simulator.stepper_init.calls"] == 1
    assert metrics["simulator.advance.calls"] == 320
    assert metrics["discretization.max_dim"] > 0
    # newton_ratio evaluates the determinant inside: the nested spans are not
    # counted again as evaluation points
    names = [tracer.names[i] for i in spans["name"]]
    nested = sum(1 for name, p in zip(names, spans["parent"])
                 if p >= 0 and names[p].startswith("characteristic.")
                 and name.startswith("characteristic."))
    top = sum(1 for name, p in zip(names, spans["parent"])
              if name.startswith("characteristic.")
              and not (p >= 0 and names[p].startswith("characteristic.")))
    assert nested > 0 and metrics["characteristic.eval_points"] == top


def test_attributes_restored_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(_bindings()[key] is fn for key, fn in before.items())


def test_attributes_restored_when_installing_fails():
    before = _bindings()
    bad = tracing.TARGETS + (("waveheat.spectrum", None, "no_such_function", "x.y"),)
    with pytest.raises(KeyError):
        with Tracer(bad):
            pass
    assert all(_bindings()[key] is fn for key, fn in before.items())


def test_self_busy_and_unattributed_times():
    names = ["spectrum.count_zeros_contour", "characteristic.char_fn_scaled",
             "characteristic.newton_ratio"]
    spans = {
        "name": np.array([0, 1, 2, 1], np.int32),
        "parent": np.array([-1, 0, 0, 2], np.int32),
        "start": np.array([0.0, 1.0, 4.0, 4.5]),
        "end": np.array([10.0, 3.0, 6.0, 5.0]),
    }
    m = layer_metrics(names, spans, 12.5, 0, 0)
    assert m["spectrum.count_zeros_contour.busy_s"] == pytest.approx(10.0)
    assert m["spectrum.count_zeros_contour.self_s"] == pytest.approx(6.0)
    assert m["characteristic.busy_s"] == pytest.approx(4.0)
    assert m["characteristic.eval_points"] == 2
    assert m["trace.unattributed_frac"] == pytest.approx(0.2)
