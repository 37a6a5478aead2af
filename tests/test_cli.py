import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import waveheat.characteristic
from waveheat import checks
from waveheat.cli import _apply_config_file, build_parser, main
from waveheat.discretization import GridSpec
from waveheat.errors import NoConvergenceError

_finite = st.floats(-1e6, 1e6, allow_nan=False)
# every resolvent flag but --config, each drawn or left out
_resolvent_flags = st.fixed_dictionaries({}, optional={
    "variant": st.sampled_from(["neumann", "dirichlet"]),
    "out": st.sampled_from(["out", "runs/a", "b"]),
    "seed": st.integers(-5, 10**6),
    "s_min": _finite,
    "s_max": _finite,
    "s_points": st.integers(-3, 500),
    "trials": st.integers(-3, 50),
    "resolution_factor": _finite,
    "double_check": st.booleans(),
})


def _file_value(value):
    return str(value).lower() if isinstance(value, bool) else value


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--seed", "1"], ["simulate", "--seed", "1"], ["verify", "--variant", "neumann"],
])
def test_removed_flags_are_usage_errors(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["resolvent", "--s-min", "nan", "--s-points", "2"],
    ["resolvent", "--s-max", "inf", "--s-points", "2"],
    ["resolvent", "--resolution-factor", "inf", "--s-max", "20", "--s-points", "2"],
    ["resolvent", "--trials", "-3", "--s-max", "20", "--s-points", "2"],
    ["simulate", "--tmax", "inf", "--grid", "16"],
    ["simulate", "--tmax", "nan", "--grid", "16"],
    ["simulate", "--dt", "nan", "--grid", "16"],
    ["simulate", "--dt", "inf", "--grid", "16"],
    ["simulate", "--grid", "16", "--tmax", "10", "--dt", "0"],
    ["resolvent", "--resolution-factor", "0", "--s-max", "20", "--s-points", "2"],
    ["resolvent", "--resolution-factor", "-1", "--s-max", "20", "--s-points", "2"],
])
def test_bad_numeric_flags_exit_one(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "-1"],
    ["resolvent", "--seed", "-1", "--s-max", "20", "--s-points", "2"],
])
def test_negative_seed_exits_one(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"waveheat {argv[0]}: --seed must be >= 0\n"
    assert not (tmp_path / "out").exists()


class TestSpectrumCommand:
    def test_neumann_record_count(self, tmp_path):
        code = main(["spectrum", "--nmax", "100", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "eigenvalues.csv")
        assert rows[0] == ["n", "re", "im", "residual", "iters", "contained", "variant"]
        assert len(rows) - 1 == 201
        assert (tmp_path / "eigenvalues.svg").read_text().startswith("<svg")

    def test_dirichlet_record_count(self, tmp_path):
        code = main(["spectrum", "--variant", "dirichlet", "--nmax", "50",
                     "--out", str(tmp_path)])
        assert code == 0
        assert len(read_csv(tmp_path / "eigenvalues.csv")) - 1 == 100

    def test_invalid_nmax_exits_one(self, tmp_path, capsys):
        code = main(["spectrum", "--nmax", "-1", "--out", str(tmp_path)])
        assert code == 1
        assert "nmax" in capsys.readouterr().err

    def test_dirichlet_nmax_zero_exits_one(self, tmp_path, capsys):
        # Dirichlet has no branch 0, so --nmax 0 leaves no seed
        code = main(["spectrum", "--variant", "dirichlet", "--nmax", "0",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1 and "nmax" in err
        assert "Traceback" not in err

    def test_every_polish_failing_exits_two(self, tmp_path, capsys, monkeypatch):
        from waveheat import spectrum
        from waveheat.errors import NoConvergenceError

        def fail(seed, variant):
            raise NoConvergenceError("injected")

        monkeypatch.setattr(spectrum, "polish", fail)
        code = main(["spectrum", "--nmax", "0", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert read_csv(tmp_path / "eigenvalues.csv") == [
            ["n", "re", "im", "residual", "iters", "contained", "variant"]]
        assert not (tmp_path / "eigenvalues.svg").exists()

    def test_unwritable_out_dir_exits_one(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["spectrum", "--nmax", "2", "--out", str(blocker / "sub")])
        assert code == 1


class TestResolventCommand:
    def test_default_grid_contract(self):
        from waveheat.cli import build_parser

        args = build_parser().parse_args(["resolvent"])
        assert (args.s_min, args.s_max, args.s_points) == (10.0, 1000.0, 25)

    def test_sweep_rows_and_slope(self, tmp_path, capsys):
        code = main(["resolvent", "--s-min", "10", "--s-max", "60",
                     "--s-points", "5", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "resolvent.csv")
        assert rows[0] == ["s", "norm_discrete", "norm_sampled",
                           "spectral_lower_bound", "grid_N", "slope_window_estimate"]
        assert len(rows) - 1 == 5
        out = capsys.readouterr().out
        assert "fitted log-log slope" in out

    def test_arpack_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        import numpy as np
        import scipy.sparse.linalg as spla

        def fail(*args, **kwargs):
            raise spla.ArpackNoConvergence("injected", np.array([]), np.array([]))

        monkeypatch.setattr(spla, "eigsh", fail)  # the discrete norm's ARPACK call
        code = main(["resolvent", "--s-min", "10", "--s-max", "20",
                     "--s-points", "2", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_non_finite_sampled_trial_exits_two(self, tmp_path, capsys, monkeypatch):
        from waveheat.resolvent import ClosedFormResolvent

        draw = ClosedFormResolvent.random_rows

        def poisoned(self, rng, rows):
            f, g, h = draw(self, rng, rows)
            h[-1] = np.inf
            return f, g, h

        monkeypatch.setattr(ClosedFormResolvent, "random_rows", poisoned)
        code = main(["resolvent", "--s-min", "10", "--s-max", "20", "--s-points", "2",
                     "--trials", "3", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "trial 2 of 3" in err and "Traceback" not in err

    def test_double_check_same_bytes_without_worker(self, tmp_path, capsys, monkeypatch):
        # the doubled grids run in a forked worker; without os.fork they run in process
        argv = ["resolvent", "--s-min", "10", "--s-max", "100", "--s-points", "3",
                "--double-check", "--trials", "3", "--seed", "2", "--out"]
        outputs = []
        for sub in ("worker", "inline"):
            if sub == "inline":
                monkeypatch.delattr(os, "fork")
            out = tmp_path / sub
            assert main(argv + [str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("resolvent.csv",
                                                                   "resolvent.svg")]
                           + [capsys.readouterr().out.replace(str(out), "OUT")])
        assert outputs[0] == outputs[1]

    def test_doubled_grid_fault_exits_two(self, tmp_path, capfd, monkeypatch):
        def fail(grid):
            raise NoConvergenceError("injected doubled-grid fault")

        monkeypatch.setattr(GridSpec, "doubled", fail)  # raised in the worker
        code = main(["resolvent", "--s-min", "10", "--s-max", "20", "--s-points", "2",
                     "--double-check", "--out", str(tmp_path)])
        err = capfd.readouterr().err  # the worker's file descriptors included
        assert code == 2
        assert err == "sweep failed: injected doubled-grid fault\n"

    def test_bad_frequency_range_exits_one(self, tmp_path):
        assert main(["resolvent", "--s-min", "1", "--out", str(tmp_path)]) == 1

    def test_deterministic_output(self, tmp_path):
        # two sweeps up to s = 300 (dimension 2823) through secant snapping
        # and the ARPACK path of the discrete norm
        for sub in ("a", "b"):
            code = main(["resolvent", "--s-min", "10", "--s-max", "300",
                         "--s-points", "3", "--trials", "5", "--seed", "11",
                         "--out", str(tmp_path / sub)])
            assert code == 0
        a = (tmp_path / "a" / "resolvent.csv").read_bytes()
        b = (tmp_path / "b" / "resolvent.csv").read_bytes()
        assert a == b


class TestSimulateCommand:
    def test_energy_csv_monotone(self, tmp_path):
        code = main(["simulate", "--grid", "64", "--tmax", "20",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "energy.csv")
        assert rows[0] == ["t", "E", "dissipation_rate", "phi", "local_slope"]
        energies = [float(r[1]) for r in rows[1:]]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(energies[:-1], energies[1:]))
        assert (tmp_path / "energy.svg").exists()

    def test_dt_guard_exits_one(self, tmp_path, capsys):
        code = main(["simulate", "--grid", "64", "--dt", "0.5", "--tmax", "20",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "guard" in capsys.readouterr().err

    def test_non_finite_state_exits_two(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        from waveheat.simulator import CrankNicolsonStepper

        advance = CrankNicolsonStepper.advance
        calls = []

        def poisoned(self, z, mid):
            advance(self, z, mid)
            calls.append(1)
            if len(calls) >= 5:
                z[:] = mid[:] = np.nan

        monkeypatch.setattr(CrankNicolsonStepper, "advance", poisoned)
        code = main(["simulate", "--grid", "64", "--tmax", "20", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_k2_profile_reports_both_slopes(self, tmp_path, capsys):
        code = main(["simulate", "--grid", "64", "--tmax", "25",
                     "--profile", "k2", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "k=1" in out and "k=2" in out and "slope separation" in out


class TestConfigFile:
    def test_file_seeds_flags_and_cli_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nmax=3\nvariant=dirichlet\n")
        code = main(["spectrum", "--config", str(cfg), "--nmax", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "eigenvalues.csv")
        # nmax from the command line (2), variant from the file (dirichlet)
        assert len(rows) - 1 == 4
        assert rows[1][6] == "dirichlet"

    @pytest.mark.parametrize("value, expected", [("true", True), ("false", False)])
    def test_file_sets_boolean_flag(self, tmp_path, value, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"double_check={value}\n")
        argv = _apply_config_file(["waveheat", "resolvent", "--config", str(cfg)])
        assert build_parser().parse_args(argv[1:]).double_check is expected

    @settings(max_examples=60, deadline=None)
    @given(file_flags=_resolvent_flags, cli_flags=_resolvent_flags)
    def test_explicit_flags_win(self, file_flags, cli_flags):
        defaults = vars(build_parser().parse_args(["resolvent"]))
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("".join(f"{key}={_file_value(value)}\n"
                                   for key, value in file_flags.items()))
            argv = ["waveheat", "resolvent", "--config", str(cfg)]
            for key, value in cli_flags.items():
                flag = f"--{key.replace('_', '-')}"
                if value is True:
                    argv.append(flag)
                elif value is not False:  # store_true has no spelling for False
                    argv.append(f"{flag}={value}")
            args = build_parser().parse_args(_apply_config_file(argv)[1:])
        for key, default in defaults.items():
            if key == "config":
                continue
            if key in cli_flags and cli_flags[key] is not False:
                expected = cli_flags[key]
            else:
                expected = file_flags.get(key, default)
            assert getattr(args, key) == expected, key

    def test_missing_config_exits_one(self, tmp_path):
        code = main(["spectrum", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
        assert code == 1


class TestVerifyCommand:
    def test_fresh_checkout_passes(self, tmp_path, capsys):
        code = main(["verify", "--nmax", "12", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        # perfbench parses these lines: one PASS per check, in battery order
        lines = [line.split()[:2] for line in out.splitlines() if line[:4] in ("PASS", "FAIL")]
        names = [c.name for c in checks.battery(12, np.random.default_rng(0))]
        assert lines == [["PASS", name] for name in names] and len(names) == 21

    def test_injected_sign_error_detected(self, tmp_path, capsys, monkeypatch):
        real = waveheat.characteristic.char_fn

        def broken(lam, variant):
            val = real(lam, variant)
            return complex(val.real, -val.imag)  # conjugation bug

        monkeypatch.setattr(waveheat.characteristic, "char_fn", broken)
        code = main(["verify", "--nmax", "12", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out

    def test_writes_no_output_directory(self, tmp_path):
        # --out is still accepted (config files pass it) but verify writes nothing
        missing = tmp_path / "missing"
        assert main(["verify", "--nmax", "5", "--out", str(missing)]) == 0
        assert not missing.exists()

    def test_invalid_nmax_exits_one(self, tmp_path, capsys):
        for nmax in ("-1", "3"):
            code = main(["verify", "--nmax", nmax, "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == 1
            assert err.count("\n") == 1 and "nmax" in err


def test_import_loads_no_sparse_module():
    # the discrete norm imports scipy.sparse.linalg when it runs, not before
    code = ("import sys, waveheat.cli; "
            "print([m for m in ('scipy.sparse', 'scipy.sparse.linalg') if m in sys.modules])")
    src = str(Path(waveheat.characteristic.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
