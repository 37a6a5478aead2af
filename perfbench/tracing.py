"""Timing wrappers installed from outside the package, and the per-layer metrics they yield.

Each wrapper replaces one binding that a caller looks up at call time (a
module attribute such as ``waveheat.resolvent.assemble`` or a class
attribute such as ``CrankNicolsonStepper.advance``) and records a span
(name, start, end, parent) in memory.  ``Patches.restore`` puts back
exactly the objects that were found.  Aggregation happens after the timed
region, so only the wrapper itself adds to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable

import numpy as np

# (module, class or None, attribute, span name).  The same function appears
# once per binding that callers use: spectrum and resolvent import the
# determinant functions by name, the CLI reaches them through the module.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("waveheat.characteristic", None, "char_fn", "characteristic.char_fn"),
    ("waveheat.characteristic", None, "char_fn_scaled", "characteristic.char_fn_scaled"),
    ("waveheat.characteristic", None, "char_fn_deriv", "characteristic.char_fn_deriv"),
    ("waveheat.characteristic", None, "char_fn_deriv_scaled",
     "characteristic.char_fn_deriv_scaled"),
    ("waveheat.characteristic", None, "newton_ratio", "characteristic.newton_ratio"),
    ("waveheat.characteristic", None, "relative_residual", "characteristic.relative_residual"),
    ("waveheat.characteristic", None, "det_growth_ratio", "characteristic.det_growth_ratio"),
    ("waveheat.spectrum", None, "char_fn_scaled", "characteristic.char_fn_scaled"),
    ("waveheat.spectrum", None, "char_fn_deriv_scaled", "characteristic.char_fn_deriv_scaled"),
    ("waveheat.spectrum", None, "newton_ratio", "characteristic.newton_ratio"),
    ("waveheat.spectrum", None, "relative_residual", "characteristic.relative_residual"),
    ("waveheat.resolvent", None, "char_fn_scaled", "characteristic.char_fn_scaled"),
    ("waveheat.spectrum", None, "polish", "spectrum.polish"),
    ("waveheat.spectrum", None, "count_zeros_contour", "spectrum.count_zeros_contour"),
    ("waveheat.discretization", None, "assemble", "discretization.assemble"),
    ("waveheat.resolvent", None, "assemble", "discretization.assemble"),
    ("waveheat.simulator", None, "assemble", "discretization.assemble"),
    ("waveheat.discretization", "DiscreteGenerator", "eigenvalues_near",
     "discretization.eigenvalues_near"),
    ("waveheat.resolvent", None, "snap_to_resonance", "resolvent.snap_to_resonance"),
    ("waveheat.resolvent", None, "resolvent_norm_discrete", "resolvent.resolvent_norm_discrete"),
    ("waveheat.resolvent", None, "resolvent_norm_sampled", "resolvent.resolvent_norm_sampled"),
    ("waveheat.resolvent", None, "apply_resolvent", "resolvent.apply_resolvent"),
    ("waveheat.simulator", "CrankNicolsonStepper", "__init__", "simulator.stepper_init"),
    ("waveheat.simulator", "CrankNicolsonStepper", "advance", "simulator.advance"),
    ("waveheat.simulator", None, "run", "simulator.run"),
    ("waveheat.svgplot", None, "svg_plot", "svgplot.svg_plot"),
    ("waveheat.cli", None, "svg_plot", "svgplot.svg_plot"),
    ("waveheat.spectrum", None, "write_eigenvalues_csv", "io.write_eigenvalues_csv"),
    ("waveheat.simulator", None, "write_energy_csv", "io.write_energy_csv"),
)

# determinant entry points whose argument is one evaluation point
_EVAL_FUNCS = frozenset({
    "characteristic.char_fn", "characteristic.char_fn_scaled",
    "characteristic.char_fn_deriv", "characteristic.char_fn_deriv_scaled",
    "characteristic.newton_ratio", "characteristic.relative_residual",
})


def resolve(module: str, cls: str | None):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Patches:
    """Replace attributes and put the original objects back, newest first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def install(self, owner, attr: str, make: Callable[[object], object]) -> None:
        # read through __dict__ so a class gets back the plain function it had
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Span recorder for the bindings in ``TARGETS``; a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.newton_iters = 0
        self.max_dim = 0
        self._patches = Patches()

    def __enter__(self) -> "Tracer":
        try:
            for module, cls, attr, span in self.targets:
                self._patches.install(
                    resolve(module, cls), attr,
                    lambda fn, span=span: self._wrap(fn, span),
                )
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _on_result(self, span: str):
        if span == "spectrum.polish":
            def note(rec):
                self.newton_iters += rec.iters
            return note
        if span == "discretization.assemble":
            def note(gen):
                self.max_dim = max(self.max_dim, gen.dim)
            return note
        return None

    def _wrap(self, fn, span: str):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter
        note = self._on_result(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(result)
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(names: list[str], spans: dict[str, np.ndarray], wall_s: float,
                  newton_iters: int, max_dim: int) -> dict[str, float]:
    """Per-layer counts and times of one traced repetition.

    ``busy_s`` of a function is the summed duration of its spans; of a layer,
    the summed duration of its spans not nested in another span of the same
    layer.  ``self_s`` subtracts the time covered by child spans.  The
    unattributed share is the part of ``wall_s`` outside every top-level span.
    """
    name_id, parent = spans["name"].astype(np.int64), spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    n = len(dur)
    has_parent = parent >= 0
    par = np.where(has_parent, parent, 0)
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child

    layers = sorted({s.split(".")[0] for s in names})
    layer_of_name = np.array([layers.index(s.split(".")[0]) for s in names] or [0])
    layer = layer_of_name[name_id]
    bit = np.left_shift(1, layer)
    ancestors = np.zeros(n, np.int64)  # bit mask of layers above each span
    while True:
        nxt = np.where(has_parent, ancestors[par] | bit[par], 0)
        if np.array_equal(nxt, ancestors):
            break
        ancestors = nxt
    outermost = (ancestors & bit) == 0

    def of(span: str) -> np.ndarray:
        return name_id == names.index(span) if span in names else np.zeros(n, bool)

    def in_layer(lay: str) -> np.ndarray:
        return layer == layers.index(lay) if lay in layers else np.zeros(n, bool)

    def calls(span):
        return float(np.count_nonzero(of(span)))

    def busy(span):
        return float(dur[of(span)].sum())

    def self_s(span):
        return float(self_t[of(span)].sum())

    evals = np.zeros(n, bool)
    for span in _EVAL_FUNCS:
        evals |= of(span)
    top_busy = float(dur[~has_parent].sum())
    return {
        "characteristic.eval_points": float(np.count_nonzero(evals & outermost)),
        "characteristic.busy_s": float(dur[in_layer("characteristic") & outermost].sum()),
        "characteristic.det_growth_ratio.calls": calls("characteristic.det_growth_ratio"),
        "characteristic.det_growth_ratio.busy_s": busy("characteristic.det_growth_ratio"),
        "spectrum.polish.calls": calls("spectrum.polish"),
        "spectrum.polish.busy_s": busy("spectrum.polish"),
        "spectrum.polish.newton_iters": float(newton_iters),
        "spectrum.count_zeros_contour.calls": calls("spectrum.count_zeros_contour"),
        "spectrum.count_zeros_contour.busy_s": busy("spectrum.count_zeros_contour"),
        "spectrum.count_zeros_contour.self_s": self_s("spectrum.count_zeros_contour"),
        "discretization.assemble.calls": calls("discretization.assemble"),
        "discretization.assemble.busy_s": busy("discretization.assemble"),
        "discretization.max_dim": float(max_dim),
        "discretization.eigenvalues_near.calls": calls("discretization.eigenvalues_near"),
        "discretization.eigenvalues_near.busy_s": busy("discretization.eigenvalues_near"),
        "resolvent.snap_to_resonance.self_s": self_s("resolvent.snap_to_resonance"),
        "resolvent.resolvent_norm_discrete.calls": calls("resolvent.resolvent_norm_discrete"),
        "resolvent.resolvent_norm_discrete.busy_s": busy("resolvent.resolvent_norm_discrete"),
        "resolvent.apply_resolvent.calls": calls("resolvent.apply_resolvent"),
        "resolvent.apply_resolvent.busy_s": busy("resolvent.apply_resolvent"),
        "simulator.stepper_init.calls": calls("simulator.stepper_init"),
        "simulator.stepper_init.busy_s": busy("simulator.stepper_init"),
        "simulator.advance.calls": calls("simulator.advance"),
        "simulator.advance.busy_s": busy("simulator.advance"),
        "simulator.run.self_s": self_s("simulator.run"),
        "svgplot.svg_plot.busy_s": busy("svgplot.svg_plot"),
        "io.write_s": float(dur[in_layer("io") & outermost].sum()),
        "trace.unattributed_frac": max(0.0, 1.0 - top_busy / wall_s) if wall_s > 0 else 0.0,
    }
