"""State-file round trips and the command-line front end.

The binary format promises bit-exact persistence and loud failure on
corruption; the CLI promises deterministic artifacts (identical
configuration -> byte-identical files, timestamps confined to run.log)
and the documented exit codes 0/2/3/4.  Everything here runs at n = 16
with plane-wave initialisation so the whole module stays fast.
"""
from __future__ import annotations

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import mpwave
from mpwave import cli
from mpwave.errors import InputError
from mpwave.fields import PhysParams, random_fields
from mpwave.grid import Grid
from mpwave.io import read_state, write_state
from mpwave.minimize import MinimizeConfig, minimize, solve_vector_potential

from conftest import params


def run_module(*args):
    """``python -m mpwave args`` in a child process that imports the same
    package as this suite, also from a checkout that is not installed."""
    src = os.path.dirname(os.path.dirname(mpwave.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mpwave", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


# header layout: magic(4) version(u32) n(u32) box_l(f64) model(u8) 8*f64
_OFF_VERSION = 4
_OFF_BOX = 4 + 4 + 4
_OFF_MODEL = _OFF_BOX + 8
# the 8 f64 parameters follow the model byte: hbar, mass, c, Q, lambda, v
_OFF_MASS = _OFF_MODEL + 1 + 8
_OFF_V1 = _OFF_MODEL + 1 + 5 * 8

# ground-state energy of the v = (0.1, 0, 0) box: the lattice plane wave
# at the nearest admissible wavenumber k* = 2*pi/40
_GROUND_ENERGY = -0.0033709577665872719


def _write_sample(path, model="S", seed=3, v=(0.1, 0.0, 0.0)):
    grid = Grid(16, 40.0)
    p = params(model=model, v=v)
    psi, A = random_fields(grid, p, seed=seed)
    write_state(path, grid, p, psi, A)
    return grid, p, psi, A


def _patch_byte(path, offset, value):
    blob = bytearray(open(path, "rb").read())
    blob[offset:offset + len(value)] = value
    with open(path, "wb") as fh:
        fh.write(blob)


class TestStateFile:
    def test_round_trip_bit_exact(self, tmp_path):
        path = str(tmp_path / "s.mpwf")
        grid, p, psi, A = _write_sample(path)
        grid2, p2, psi2, A2 = read_state(path)
        assert grid2.n == grid.n and grid2.box_l == grid.box_l
        assert p2 == p
        assert np.array_equal(psi2.data, psi.data)
        assert np.array_equal(A2.data, A.data)

    def test_round_trip_nonunit_params(self, tmp_path):
        """Every header float travels; model P round-trips its code."""
        path = str(tmp_path / "s.mpwf")
        grid = Grid(16, 25.0)
        p = PhysParams(hbar=0.9, mass=1.3, light_speed=2.0, charge=-0.7,
                       lam=1.1, v=(0.2, -0.05, 0.125), model="P")
        psi, A = random_fields(grid, p, seed=11)
        write_state(path, grid, p, psi, A)
        grid2, p2, psi2, A2 = read_state(path)
        assert grid2.box_l == 25.0
        assert p2 == p
        assert np.array_equal(psi2.data, psi.data)
        assert np.array_equal(A2.data, A.data)

    def test_write_rejects_wrong_shapes(self, tmp_path):
        grid = Grid(16, 40.0)
        p = params()
        psi, A = random_fields(grid, p, seed=3)
        bad_psi = psi.data[:1]
        with pytest.raises(InputError):
            write_state(str(tmp_path / "x.mpwf"), grid, p, bad_psi, A)
        with pytest.raises(InputError):
            write_state(str(tmp_path / "x.mpwf"), grid, p, psi, A.data[:2])

    def test_write_rejects_component_last_arrays(self, tmp_path):
        grid = Grid(16, 40.0)
        p = params()
        psi, A = random_fields(grid, p, seed=3)
        path = str(tmp_path / "x.mpwf")
        with pytest.raises(InputError, match="component-first"):
            write_state(path, grid, p, np.moveaxis(psi.data, 0, -1), A)
        with pytest.raises(InputError, match="component-first"):
            write_state(path, grid, p, psi, np.moveaxis(A.data, 0, -1))

    def test_payload_follows_the_documented_order(self, tmp_path):
        """Each entry encodes its own (ix, iy, iz, c) index as its position
        in a C-order walk with the component fastest, so the payload must
        read 0, 1, 2, ... in both blocks."""
        n = 8
        grid = Grid(n, 10.0)
        p = params()
        ix, iy, iz = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        site = (ix * n + iy) * n + iz
        psi = np.stack([site * 2 + c for c in range(2)]) * (1.0 - 1.0j)
        A = np.stack([site * 3 + c for c in range(3)]).astype(float)
        path = str(tmp_path / "s.mpwf")
        write_state(path, grid, p, psi, A)
        blob = open(path, "rb").read()
        header = struct.calcsize("<4sIIdB8d")
        count = n ** 3 * 2
        psi_raw = np.frombuffer(blob, dtype="<c16", count=count, offset=header)
        a_raw = np.frombuffer(blob, dtype="<f8", offset=header + 16 * count)
        assert np.array_equal(psi_raw, np.arange(count) * (1.0 - 1.0j))
        assert np.array_equal(a_raw, np.arange(n ** 3 * 3, dtype=float))

    def test_reads_a_file_assembled_from_the_spec(self, tmp_path):
        """A file written byte by byte from the format spec reads back with
        psi[c, ix, iy, iz] and A[c, ix, iy, iz] at the entries it names."""
        n = 8
        hdr = struct.pack("<4sIIdB8d", b"MPWF", 1, n, 10.0, 1,
                          1.0, 1.0, 1.0, 1.0, 1.0, 0.1, 0.0, 0.0)
        code = lambda ix, iy, iz, c: 1000 * ix + 100 * iy + 10 * iz + c
        sites = [(ix, iy, iz) for ix in range(n) for iy in range(n) for iz in range(n)]
        psi_bytes = b"".join(
            struct.pack("<dd", code(*s, c), -code(*s, c)) for s in sites for c in range(2)
        )
        a_bytes = b"".join(struct.pack("<d", code(*s, c)) for s in sites for c in range(3))
        path = tmp_path / "s.mpwf"
        path.write_bytes(hdr + psi_bytes + a_bytes)
        grid, p, psi, A = read_state(str(path))
        assert grid.n == n and p.model == "P"
        assert psi.data.shape == (2, n, n, n) and A.data.shape == (3, n, n, n)
        for ix, iy, iz in ((0, 0, 0), (1, 2, 3), (7, 0, 5), (7, 7, 7)):
            for c in range(2):
                assert psi.data[c, ix, iy, iz] == code(ix, iy, iz, c) * (1.0 - 1.0j)
            for c in range(3):
                assert A.data[c, ix, iy, iz] == code(ix, iy, iz, c)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "s.mpwf")
        _write_sample(path)
        _patch_byte(path, 0, b"X")
        with pytest.raises(InputError, match="not a state file"):
            read_state(path)

    def test_bad_version_rejected(self, tmp_path):
        path = str(tmp_path / "s.mpwf")
        _write_sample(path)
        _patch_byte(path, _OFF_VERSION, struct.pack("<I", 99))
        with pytest.raises(InputError, match="version"):
            read_state(path)

    def test_bad_model_code_rejected(self, tmp_path):
        path = str(tmp_path / "s.mpwf")
        _write_sample(path)
        _patch_byte(path, _OFF_MODEL, bytes([7]))
        with pytest.raises(InputError, match="model code"):
            read_state(path)

    @pytest.mark.parametrize("offset, value, match", [
        (_OFF_BOX, 0.0, "box length"),
        (_OFF_BOX, np.inf, "box length"),
        (_OFF_MASS, 0.0, "mass"),
        (_OFF_V1, np.nan, "v must be finite"),
    ], ids=["box-0", "box-inf", "mass-0", "v-nan"])
    def test_bad_header_rejected(self, tmp_path, capsys, offset, value, match):
        """A header no grid or parameter set accepts is an input error, and
        check exits 2 on it rather than with a traceback."""
        path = str(tmp_path / "s.mpwf")
        _write_sample(path)
        _patch_byte(path, offset, struct.pack("<d", value))
        with pytest.raises(InputError, match=f"bad header: {match}"):
            read_state(path)
        rc, _, err = _main(["check", path], capsys)
        assert rc == 2 and "bad header" in err

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "s.mpwf")
        _write_sample(path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:10])
        with pytest.raises(InputError, match="truncated header"):
            read_state(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "s.mpwf")
        _write_sample(path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-8])
        with pytest.raises(InputError, match="truncated payload"):
            read_state(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "s.mpwf")
        _write_sample(path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(InputError, match="trailing bytes"):
            read_state(path)

    def test_non_finite_payload_rejected(self, tmp_path, capsys):
        """A NaN in psi or an inf in A is refused, and check exits 2."""
        grid = Grid(16, 40.0)
        p = params()
        psi, A = random_fields(grid, p, seed=3)
        for field in ("psi", "A"):
            bad_psi, bad_a = psi.data.copy(), A.data.copy()
            if field == "psi":
                bad_psi[0, 1, 2, 3] = np.nan
            else:
                bad_a[2, 3, 2, 1] = np.inf
            path = str(tmp_path / f"{field}.mpwf")
            write_state(path, grid, p, bad_psi, bad_a)
            with pytest.raises(InputError, match="non-finite"):
                read_state(path)
            rc, _, err = _main(["check", path], capsys)
            assert rc == 2 and "non-finite" in err, field

    def test_missing_file_is_input_error(self, tmp_path):
        with pytest.raises(InputError, match="cannot read state"):
            read_state(str(tmp_path / "absent.mpwf"))


class TestConfigParsing:
    def test_comments_and_blanks(self):
        pairs = cli.parse_config_text(
            "# full-line comment\n\nmodel = P  # trailing comment\n box_l =25\n"
        )
        assert pairs == {"model": "P", "box_l": "25"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(InputError, match="duplicate key"):
            cli.parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(InputError, match="key = value"):
            cli.parse_config_text("just some words\n")

    def test_empty_value_rejected(self):
        with pytest.raises(InputError, match="empty key or value"):
            cli.parse_config_text("seed =\n")

    def _resolve(self, tmp_path, text, **flags):
        """Build the namespace the parser would hand to resolve_config."""
        path = tmp_path / "run.cfg"
        path.write_text(text)
        ns_kw = dict(config=str(path), v=None, model=None, grid=None, box=None,
                     seed=None, out=None, force=False, speeds=None)
        ns_kw.update(flags)
        import argparse

        return cli.resolve_config(argparse.Namespace(**ns_kw))

    def test_full_config_file(self, tmp_path):
        cfg = self._resolve(
            tmp_path,
            "model = P\n"
            "lambda = 2.5\n"
            "v = 0.05, 0, 0.1\n"
            "grid_n = 16\n"
            "box_l = 30\n"
            "seed = 7\n"
            "force_supercritical = yes\n"
            "speeds = 0.1 0.2\n"
            "trial_points = 9\n"
            "minimize.max_iter = 12\n"
            "minimize.init = plane\n",
        )
        assert cfg.model == "P" and cfg.lam == 2.5
        assert cfg.velocity == (0.05, 0.0, 0.1)
        assert cfg.grid_n == 16 and cfg.box_l == 30.0
        assert cfg.speeds == (0.1, 0.2) and cfg.trial_points == 9
        assert cfg.minimize.max_iter == 12
        assert cfg.minimize.init == "plane"
        # the run seed reaches the minimizer so reruns are reproducible
        assert cfg.minimize.seed == 7
        # the force flag reaches the minimizer so --force can skip the gate
        assert cfg.minimize.force is True

    def test_flags_override_file(self, tmp_path):
        cfg = self._resolve(tmp_path, "v = 0.2,0,0\nseed = 3\n",
                            v="0.1,0,0", seed=9, model="P", grid=16)
        assert cfg.velocity == (0.1, 0.0, 0.0)
        assert cfg.minimize.seed == 9
        assert cfg.model == "P" and cfg.grid_n == 16

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(InputError, match="unknown config key"):
            self._resolve(tmp_path, "nope = 3\n")

    def test_unknown_minimize_key_rejected(self, tmp_path):
        with pytest.raises(InputError, match="unknown config key"):
            self._resolve(tmp_path, "minimize.nope = 3\n")

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(InputError, match="bad value"):
            self._resolve(tmp_path, "grid_n = sixteen\n")
        with pytest.raises(InputError, match="boolean"):
            self._resolve(tmp_path, "force_supercritical = maybe\n")
        with pytest.raises(InputError, match="three comma-separated"):
            self._resolve(tmp_path, "v = 1,2\n")

    def test_validate_rejects_bad_model_and_grid(self, tmp_path):
        with pytest.raises(InputError, match="model must be"):
            self._resolve(tmp_path, "model = X\n")
        with pytest.raises(InputError, match="even"):
            self._resolve(tmp_path, "grid_n = 15\n")
        with pytest.raises(InputError, match="even"):
            self._resolve(tmp_path, "grid_n = 4\n")
        with pytest.raises(InputError, match="positive"):
            self._resolve(tmp_path, "box_l = -5\n")
        with pytest.raises(InputError, match="finite"):
            self._resolve(tmp_path, "box_l = inf\n")


#: minimize.* keys of settings that no longer exist or are constants
_REMOVED_MINIMIZE_KEYS = [
    "step0", "step_min", "step_max", "residual_tol", "energy_tol", "patience",
    "confirm_stall", "backtrack", "armijo", "max_backtracks", "a_tol", "a_max_iter",
    "check_every",
]


def _main(argv, capsys):
    rc = cli.main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    """One canonical n = 16 solve shared by the artifact tests."""
    base = tmp_path_factory.mktemp("cli")
    cfg = base / "run.cfg"
    cfg.write_text("minimize.init = plane\n")
    out = base / "run1"
    rc = cli.main(["solve", "--config", str(cfg), "--grid", "16",
                   "--out", str(out), "--v", "0.1,0,0"])
    assert rc == 0
    return base, cfg, out


class TestCli:
    def test_solve_artifacts(self, solve_dir, capsys):
        _, _, out = solve_dir
        capsys.readouterr()
        for name in ("state.mpwf", "report.txt", "trace.csv", "run.log"):
            assert (out / name).exists(), name
        report = dict(
            line.split(" = ", 1)
            for line in (out / "report.txt").read_text().splitlines()
        )
        assert report["converged"] == "true"
        assert float(report["energy"]) == pytest.approx(_GROUND_ENERGY, rel=1e-12)
        assert float(report["residual_psi"]) < 1e-10
        assert float(report["energy.total"]) == float(report["energy"])
        # the trace is one energy per accepted step, ending at the reported value
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == "sample,energy"
        assert float(rows[-1].split(",")[1]) == float(report["energy"])

    def test_report_counts_solver_work(self, solve_dir):
        """report.txt carries the A-solves, the A-operator applications and
        the rejected trial energies of the solve it describes."""
        _, _, out = solve_dir
        report = dict(
            line.split(" = ", 1)
            for line in (out / "report.txt").read_text().splitlines()
        )
        rep = minimize(Grid(16, 40.0), params(v=0.1), MinimizeConfig(init="plane"))
        assert int(report["a_ops"]) == rep.a_ops
        # a plane start solves A at the start and at the polish only
        assert int(report["a_solves"]) == rep.a_solves == 2
        assert int(report["backtracks"]) == rep.backtracks == 0

    def test_solve_stdout(self, solve_dir, capsys):
        base, cfg, _ = solve_dir
        out2 = base / "stdout"
        rc, out, err = _main(["solve", "--config", str(cfg), "--grid", "16",
                              "--out", str(out2), "--v", "0.1,0,0"], capsys)
        assert rc == 0
        assert "energy = " in out and "residual_A = " in out
        assert err == ""

    def test_reruns_byte_identical(self, solve_dir, capsys):
        """Same configuration, fresh directory: every artifact except the
        timestamped run.log must be byte-for-byte identical."""
        base, cfg, out1 = solve_dir
        out2 = base / "run2"
        rc, _, _ = _main(["solve", "--config", str(cfg), "--grid", "16",
                          "--out", str(out2), "--v", "0.1,0,0"], capsys)
        assert rc == 0
        for name in ("state.mpwf", "report.txt", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_check_on_minimizer_all_pass(self, solve_dir, capsys):
        _, _, out1 = solve_dir
        rc, out, _ = _main(["check", str(out1 / "state.mpwf")], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "all checks passed"
        assert len(lines) == 7
        assert not any(line.startswith("FAIL") for line in lines)
        assert any(line.startswith("PASS stationarity") for line in lines)
        assert any(line.startswith("PASS a-priori-bounds") for line in lines)

    def test_check_skips_on_static_non_minimizer(self, tmp_path, capsys):
        """A hand-written state is checked for identities, not optimality:
        stationarity and the moving-frame bounds report SKIP, not FAIL."""
        grid = Grid(16, 40.0)
        p = params(v=0.0)
        psi, _ = random_fields(grid, p, seed=5)
        A, _ = solve_vector_potential(grid, p, psi, tol=1e-10)
        path = tmp_path / "rand.mpwf"
        write_state(str(path), grid, p, psi, A)
        rc, out, _ = _main(["check", str(path)], capsys)
        assert rc == 0
        assert "SKIP stationarity: not a minimizer" in out
        assert "SKIP a-priori-bounds: static state" in out
        assert out.strip().splitlines()[-1] == "all checks passed"

    def test_check_band_limit_between_powers_of_two(self, tmp_path, capsys):
        """At n = 24 the identity lines band-limit the state to half the
        dealias cutoff, where they are exact: a valid random state passes."""
        grid = Grid(24, 40.0)
        p = params(model="P")
        psi, A = random_fields(grid, p, seed=1, a_amp=0.1)
        path = tmp_path / "n24.mpwf"
        write_state(str(path), grid, p, psi, A)
        rc, out, _ = _main(["check", str(path)], capsys)
        assert "PASS spin-laplacian-identity" in out
        assert "PASS gauge-covariance" in out
        assert rc == 0, out

    def test_exit_2_bad_velocity_flag(self, tmp_path, capsys):
        rc, _, err = _main(["solve", "--grid", "16", "--out", str(tmp_path),
                            "--v", "1,2"], capsys)
        assert rc == 2
        assert err.startswith("error:")

    def test_exit_2_non_finite_velocity(self, tmp_path, capsys):
        """A NaN velocity in a config file is an input error, not a solve
        on NaN fields."""
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("v = nan, 0, 0\n")
        rc, _, err = _main(["solve", "--config", str(cfg), "--grid", "16",
                            "--out", str(tmp_path / "out")], capsys)
        assert rc == 2 and "v must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "trial"])
    def test_exit_2_infinite_box(self, tmp_path, capsys, command):
        """An infinite box is an input error, not a run on NaN fields."""
        argv = [command, "--grid", "16", "--box", "inf", "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--speeds", "0.1"]
        rc, _, err = _main(argv, capsys)
        assert rc == 2 and "finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("speeds, direction, match", [
        ("0.1", "0, 0, 0", "direction"),
        ("0.1", "nan, 0, 0", "direction"),
        ("0.1, inf", "1, 0, 0", "speeds"),
    ], ids=["zero-direction", "nan-direction", "inf-speed"])
    def test_exit_2_bad_sweep_input(self, tmp_path, capsys, speeds, direction, match):
        """A sweep direction that cannot be normalized, or a speed that is
        not finite, is an input error."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"speeds = {speeds}\ndirection = {direction}\n")
        rc, _, err = _main(["sweep", "--config", str(cfg), "--grid", "16",
                            "--out", str(tmp_path / "out")], capsys)
        assert rc == 2 and f"{match} must be" in err, err

    @pytest.mark.parametrize("line, match", [
        ("trial_points = 0", "at least one point"),
        ("trial_points = -2", "at least one point"),
        ("minimize.max_iter = -1", "max_iter must be at least 0"),
        ("minimize.log_every = -2", "log_every must be at least 0"),
    ], ids=["trial_points-0", "trial_points-neg", "max_iter-neg", "log_every-neg"])
    def test_exit_2_negative_count(self, tmp_path, capsys, line, match):
        """Counts below their least legal value are input errors."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        command = "trial" if line.startswith("trial") else "solve"
        rc, _, err = _main([command, "--config", str(cfg), "--grid", "16",
                            "--out", str(tmp_path / "out")], capsys)
        assert rc == 2 and match in err, err

    def test_exit_2_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope = 3\n")
        rc, _, err = _main(["solve", "--config", str(cfg)], capsys)
        assert rc == 2 and "unknown config key" in err

    def test_exit_2_removed_a_solver_key(self, tmp_path, capsys):
        """The A-solve has one method and no cadence knob: it runs where
        the solver reads A.  The former selector and cadence are unknown."""
        cfg = tmp_path / "old.cfg"
        for line in ("minimize.a_solver = gradient\n", "minimize.a_every = 2\n"):
            cfg.write_text(line)
            rc, _, err = _main(["solve", "--config", str(cfg), "--grid", "16",
                                "--out", str(tmp_path / "out")], capsys)
            assert rc == 2 and "unknown config key" in err, line

    @pytest.mark.parametrize(
        "line",
        [f"minimize.{key} = 0.05" for key in _REMOVED_MINIMIZE_KEYS] + ["velocity = 0.2,0,0"],
        ids=_REMOVED_MINIMIZE_KEYS + ["velocity"],
    )
    def test_exit_2_removed_step_key(self, tmp_path, capsys, line):
        """The preconditioned descent takes no step-length knobs, its fixed
        numerics are constants of MinimizeConfig, and the velocity has one
        key, ``v``: the former keys are unknown."""
        cfg = tmp_path / "old.cfg"
        cfg.write_text(line + "\n")
        rc, _, err = _main(["solve", "--config", str(cfg), "--grid", "16",
                            "--out", str(tmp_path / "out")], capsys)
        assert rc == 2 and "unknown config key" in err

    @pytest.mark.parametrize("line", ["minimize.seed = 5", "minimize.force = true"])
    def test_exit_2_duplicate_minimize_key(self, tmp_path, capsys, line):
        """The seed and the speed-gate override each have one key, ``seed``
        and ``force_supercritical``: their minimize. twins are unknown,
        rather than a second seed the report does not show or a force the
        speed gate ignores."""
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(f"minimize.init = random\nminimize.max_iter = 3\n{line}\n")
        rc, _, err = _main(["solve", "--config", str(cfg), "--grid", "16",
                            "--out", str(tmp_path / "out")], capsys)
        assert rc == 2 and "unknown config key" in err, line

    def test_exit_2_missing_config(self, tmp_path, capsys):
        rc, _, err = _main(["solve", "--config", str(tmp_path / "absent.cfg")],
                           capsys)
        assert rc == 2 and "cannot read config" in err

    def test_exit_2_missing_state(self, tmp_path, capsys):
        rc, _, err = _main(["check", str(tmp_path / "absent.mpwf")], capsys)
        assert rc == 2 and "cannot read state" in err

    def test_exit_3_speed_gate(self, tmp_path, capsys):
        rc, _, err = _main(["solve", "--grid", "16", "--out", str(tmp_path),
                            "--v", "1.0,0,0"], capsys)
        assert rc == 3
        assert "not below the admissible threshold" in err

    def test_exit_4_forced_past_gate(self, tmp_path, capsys):
        """--force trades the domain gate for an honest solver failure:
        beyond the admissible window the quadratic A-subproblem loses
        positivity and the solve must abort, not fabricate a state."""
        rc, _, err = _main(["solve", "--grid", "16", "--out", str(tmp_path),
                            "--v", "2.0,0,0", "--force"], capsys)
        assert rc == 4
        assert "wave symbol is indefinite" in err
        assert not (tmp_path / "state.mpwf").exists()

    def test_sweep_csv(self, solve_dir, capsys):
        base, cfg, _ = solve_dir
        out = base / "sweep"
        rc, text, _ = _main(["sweep", "--config", str(cfg), "--grid", "16",
                             "--out", str(out), "--speeds", "0.1,0.15"], capsys)
        assert rc == 0
        assert "alpha = " in text
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == ("v_mag,energy,energy_minus_rest,theta,omega,"
                           "residual_psi,residual_A,converged")
        assert len(rows) == 4 and rows[3].startswith("# fit: alpha = ")
        for row in rows[1:3]:
            cells = row.split(",")
            assert len(cells) == 8 and cells[7] == "true"
        # column 2 is column 1 minus the rest energy m v^2 lam / 2
        v, e, rel = (float(rows[1].split(",")[i]) for i in range(3))
        assert rel == pytest.approx(e - 0.5 * v ** 2, rel=1e-12)

    def test_sweep_gates_its_speeds_not_v(self, tmp_path, capsys):
        """A sweep runs at its speeds, not at ``v``: at P, lambda = 4 the
        threshold is 0.0635, below the default v = 0.1 but above the one
        speed of the list, so the sweep runs."""
        cfg = tmp_path / "p4.cfg"
        cfg.write_text("model = P\nlambda = 4\nminimize.init = plane\n")
        rc, _, err = _main(["sweep", "--config", str(cfg), "--grid", "16",
                            "--out", str(tmp_path), "--speeds", "0.03"], capsys)
        assert rc == 0, err
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3 and rows[1].startswith("0.029999999999999999,")

    def test_sweep_undetermined_fit(self, tmp_path, capsys):
        """One speed cannot determine the two-term fit: the rows are kept,
        the fit line says what it needs and the sweep exits 0."""
        cfg = tmp_path / "plane.cfg"
        cfg.write_text("minimize.init = plane\n")
        rc, text, err = _main(["sweep", "--config", str(cfg), "--grid", "16",
                               "--out", str(tmp_path), "--speeds", "0.1"], capsys)
        assert rc == 0, err
        assert "two nonzero speeds of distinct magnitude" in text
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3 and rows[1].startswith("0.10000000000000001,")
        assert rows[2] == "# fit: undetermined: the fit needs two nonzero speeds of distinct magnitude"

    @pytest.mark.parametrize("flags, code, reason", [
        (["--speeds", "0.1,1.0"], 3, "not below the admissible threshold"),
        (["--speeds", "2.0", "--force"], 4, "wave symbol is indefinite"),
    ], ids=["gated", "solver"])
    def test_sweep_failure_is_logged(self, tmp_path, capsys, monkeypatch, flags, code, reason):
        """A sweep that raises leaves its failure in run.log and closes
        the log, as a solve does."""
        closed = []
        close = cli._RunLog.close
        monkeypatch.setattr(cli._RunLog, "close", lambda log: (closed.append(log), close(log)))
        rc, _, err = _main(["sweep", "--grid", "16", "--out", str(tmp_path), *flags], capsys)
        assert rc == code and reason in err
        log = (tmp_path / "run.log").read_text().splitlines()
        assert "sweep failed: " in log[-1] and reason in log[-1]
        assert len(closed) == 1 and closed[0]._fh.closed
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_empty_speed_list(self, tmp_path, capsys):
        rc, text, _ = _main(["sweep", "--out", str(tmp_path)], capsys)
        assert rc == 0
        assert "header-only" in text
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 and rows[0].startswith("v_mag,")

    def test_trial_witness_csv(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("trial_points = 6\n")
        rc, text, _ = _main(["trial", "--config", str(cfg), "--grid", "16",
                             "--out", str(tmp_path)], capsys)
        assert rc == 0
        assert "no witness" in text  # honest report at this box size
        rows = (tmp_path / "witness.csv").read_text().splitlines()
        assert rows[0] == "amplitude,dilation,energy,margin"
        assert len(rows) == 1 + 6 + 3
        assert rows[-3].startswith("# threshold = ")
        assert rows[-2].startswith("# slope_at_zero = ")
        assert rows[-1] == "# found = false"
        margins = [float(r.split(",")[3]) for r in rows[1:7]]
        assert min(margins) > 0  # consistent with "no witness"

    def test_module_entry_point(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "exit codes" in proc.stdout

    def test_progress_goes_to_stderr(self, tmp_path):
        """``minimize.log_every`` progress lines reach stderr; stdout keeps
        only the results."""
        cfg = tmp_path / "log.cfg"
        cfg.write_text("minimize.log_every = 2\nminimize.max_iter = 4\n")
        proc = run_module("solve", "--config", str(cfg),
                          "--grid", "16", "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        progress = [line for line in proc.stderr.splitlines() if line.startswith("iter ")]
        assert len(progress) == 2
        assert "iter " not in proc.stdout
