"""The benchmark workloads: seeded inputs, one timed pass, correctness gates.

Every workload is a closed loop with one client: it makes one library call
at a time and starts the next when the previous one returns.  Library
functions are looked up on their modules at call time, so the tracer's
wrappers see every call.  All workloads use L = 40 and
hbar = m = c = Q = lambda = 1.

An operation is a solve, a witness scan, a state round trip or a check;
an operation fails when any of its gates fails or when it raises.
"""

from __future__ import annotations

import contextlib
import importlib
import io as _io
import os
import traceback

import numpy as np

BOX_L = 40.0
V = (0.1, 0.0, 0.0)
V_WITNESS = (0.2, 0.0, 0.0)
WITNESS_POINTS = 24
#: final solver energies against the closed-form lattice plane wave
ENERGY_RTOL = 1e-9
#: |total - total_shifted| of an evaluated state, relative to max(|total|, 1)
FORM_TOL = 1e-8


class Lib:
    """The ``mpwave`` submodules, reached with importlib (``mpwave.minimize``
    the attribute is the function, not the module)."""

    def __init__(self):
        for name in ("grid", "fields", "energy", "minimize", "diagnostics", "io", "cli"):
            setattr(self, name, importlib.import_module(f"mpwave.{name}"))


class Tally:
    """Attempted and failed operations of one pass, plus solver iterations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.iterations = 0
        self.failures: list[str] = []

    def op(self, what: str, fn) -> None:
        """Run one operation; ``fn`` returns the list of failed gates."""
        self.attempted += 1
        try:
            bad = fn()
        except Exception:  # a raising operation is a failed one; keep going
            bad = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if bad:
            self.failed += 1
            self.failures.append(f"{what}: " + "; ".join(bad))


def lattice_plane_energy(grid, p) -> float:
    """lambda (hbar^2 |k*|^2 / 2m - hbar v.k*), k* the rounded lattice carrier."""
    dk = 2.0 * np.pi / grid.box_l
    kstar = np.round(p.mass * p.v_arr / (p.hbar * dk)) * dk
    return p.lam * (p.hbar**2 * float(kstar @ kstar) / (2.0 * p.mass)
                    - p.hbar * float(p.v_arr @ kstar))


def _solve(lib, tally: Tally, grid, p, cfg, **start) -> list:
    """One solve; returns its failed gates."""
    rep = lib.minimize.minimize(grid, p, config=cfg, **start)
    tally.iterations += rep.iterations
    bad = []
    if not rep.converged:
        bad.append(f"not converged ({rep.message})")
    tol = cfg.residual_tol
    if not (rep.residual_psi < tol and rep.residual_a < tol):
        bad.append(f"residuals {rep.residual_psi:.3e}, {rep.residual_a:.3e} >= {tol:g}")
    ref = lattice_plane_energy(grid, p)
    err = abs(rep.energy - ref) / abs(ref)
    if not err <= ENERGY_RTOL:
        bad.append(f"energy {rep.energy!r} is {err:.3e} relative from {ref!r}")
    return bad


def _form_gate(lib, grid, p, psi, A) -> list:
    br = lib.energy.energy_functional(grid, p, psi, A)
    defect = abs(br.total - br.total_shifted)
    if not defect <= FORM_TOL * max(abs(br.total), 1.0):
        return [f"form defect {defect:.3e}"]
    return []


class SolveN16:
    """Trial-start solve of model S, then model P from seeded random fields."""

    name = "solve-n16"
    n = 16

    def setup(self, lib, seed, n=None):
        grid = lib.grid.Grid(n or self.n, BOX_L)
        ps = lib.fields.PhysParams(v=V, model="S")
        pp = lib.fields.PhysParams(v=V, model="P")
        psi0, a0 = lib.fields.random_fields(grid, pp, seed, a_amp=0.1)
        return {"grid": grid, "ps": ps, "pp": pp, "psi0": psi0, "a0": a0}

    def run(self, lib, inp, workdir):
        t = Tally()
        grid, cfg = inp["grid"], lib.minimize.MinimizeConfig()
        t.op("solve S trial", lambda: _solve(lib, t, grid, inp["ps"], cfg))
        t.op("solve P given", lambda: _solve(
            lib, t, grid, inp["pp"], lib.minimize.MinimizeConfig(init="given"),
            psi0=inp["psi0"], A0=inp["a0"]))
        return t


class PlaneN32:
    """Plane-start solves of models S and P; the inputs do not use the seed."""

    name = "plane-n32"
    n = 32

    def setup(self, lib, seed, n=None):
        grid = lib.grid.Grid(n or self.n, BOX_L)
        return {"grid": grid,
                "params": [lib.fields.PhysParams(v=V, model=m) for m in ("S", "P")]}

    def run(self, lib, inp, workdir):
        t = Tally()
        grid = inp["grid"]
        cfg = lib.minimize.MinimizeConfig(init="plane", seed=0)
        for p in inp["params"]:
            t.op(f"solve {p.model} plane", lambda p=p: _solve(lib, t, grid, p, cfg))
        return t


class AuditN32:
    """Evaluation only: witness scans, state round trips and ``mpwave check``."""

    name = "audit-n32"
    n = 32

    def setup(self, lib, seed, n=None):
        grid = lib.grid.Grid(n or self.n, BOX_L)
        states = []
        for i, model in enumerate(("S", "P")):
            p = lib.fields.PhysParams(v=V, model=model)
            psi, a = lib.minimize.plane_wave_state(grid, p)
            states.append((f"{model}-plane", p, psi, a))
            sub = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            # the amplitude of the package's own random start; at a_amp = 1
            # the check's gauge-covariance line fails (defect ~5e-6 > 1e-6)
            psi, a = lib.fields.random_fields(grid, p, sub, a_amp=0.1)
            states.append((f"{model}-random", p, psi, a))
        witness = [lib.fields.PhysParams(v=V_WITNESS, model=m) for m in ("S", "P")]
        return {"grid": grid, "states": states, "witness": witness}

    def run(self, lib, inp, workdir):
        t = Tally()
        grid = inp["grid"]
        for p in inp["witness"]:
            def scan(p=p):
                rep = lib.diagnostics.negativity_witness(grid, p, num=WITNESS_POINTS)
                finite = [r for r in rep.rows
                          if np.isfinite(r.energy) and np.isfinite(r.margin)]
                if len(finite) != WITNESS_POINTS:
                    return [f"{len(finite)} finite rows of {WITNESS_POINTS}"]
                return []
            t.op(f"witness {p.model}", scan)

        for label, p, psi, a in inp["states"]:
            path = os.path.join(workdir, f"{label}.mpwf")

            def round_trip(p=p, psi=psi, a=a, path=path):
                lib.io.write_state(path, grid, p, psi, a)
                grid2, p2, psi2, a2 = lib.io.read_state(path)
                bad = []
                if (grid2.n, grid2.box_l, p2) != (grid.n, grid.box_l, p):
                    bad.append("header differs after the round trip")
                if not (np.array_equal(psi2.data, psi.data) and np.array_equal(a2.data, a.data)):
                    bad.append("payload differs after the round trip")
                return bad + _form_gate(lib, grid2, p2, psi2, a2)

            def check(path=path):
                with contextlib.redirect_stdout(_io.StringIO()) as out:
                    code = lib.cli.main(["check", path])
                if code != 0:
                    return [f"check returned {code}: " + out.getvalue().strip().replace("\n", " | ")]
                return []

            t.op(f"round trip {label}", round_trip)
            t.op(f"check {label}", check)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        return t


WORKLOADS = {w.name: w for w in (SolveN16(), PlaneN32(), AuditN32())}
