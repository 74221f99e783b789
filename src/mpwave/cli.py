"""Command-line front end.

Four commands cover the workflow:

* ``solve``  -- minimize at one velocity, persist the state and a report;
* ``sweep``  -- minimize over a list of speeds, emit CSV plus a fit line;
* ``trial``  -- scan the explicit trial family for the negativity witness;
* ``check``  -- run the invariant suite against a saved state file.

Configuration is a flat ``key = value`` text file with ``#`` comments.
Each command-line flag is the pair of its config key, laid over the
file's pairs and parsed with them.  The pairs are laid over the library's
own objects: each key names a field of the run's ``PhysParams``, ``Grid``
or ``MinimizeConfig`` (or of the run itself), and those classes check the
values they hold.  All randomness flows from the
config seed, so identical configurations produce byte-identical
artifacts; wall-clock timestamps appear only in the ``run.log`` sidecar.
The speed is gated where it is used: each solve, each sweep speed and
the trial scan.  Exit codes: 0 success, 2 input error, 3 domain gate,
4 solver failure.  The environment variable ``MPW_THREADS`` sets the FFT
worker count of each grid.  ``main`` pins glibc's mmap and trim thresholds
for its process (``_heap``); importing the package leaves the allocator
alone.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import datetime
import functools
import logging
import os
import platform
import sys
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, io as state_io, pauli, spectral
from .energy import _apriori, _field_band, _parseval, speed_gate
# bound here for perfbench's tracer, whose tests check that it wraps and
# restores this binding; the check reads the record of ``_report``
from .energy import energy_functional  # noqa: F401
from .errors import DomainGateError, InputError, MpwaveError, SolverError
from .fields import PhysParams, _banded_psi, _spinor, component_array
from .grid import Grid
from .minimize import MinimizeConfig, _report, minimize

_EXIT = {InputError: 2, DomainGateError: 3, SolverError: 4}


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise InputError(f"expected a boolean, got {s!r}")


def _parse_floats(s: str) -> tuple:
    parts = [q for q in s.replace(",", " ").split() if q]
    try:
        return tuple(float(q) for q in parts)
    except ValueError as exc:
        raise InputError(f"bad number list {s!r}: {exc}") from None


def _parse_vec3(s: str) -> tuple:
    vec = _parse_floats(s)
    if len(vec) != 3:
        raise InputError(f"expected three comma-separated numbers, got {s!r}")
    return vec


@dataclass
class RunConfig:
    """Everything one run needs, resolved from file plus flags: the run's
    ``PhysParams``, ``Grid`` and ``MinimizeConfig``, which hold the run
    seed and the speed-gate override (``seed`` and ``force``), and the
    settings of the CLI alone.  The speed is gated by the library call
    that uses it: ``minimize`` per solve and per sweep speed,
    ``negativity_witness`` for the trial scan."""

    params: PhysParams = PhysParams(v=(0.1, 0.0, 0.0))
    # built per config, not on import
    grid: Grid = field(default_factory=lambda: Grid(32, 40.0))
    minimize: MinimizeConfig = field(default_factory=MinimizeConfig)
    output_dir: str = "."
    speeds: tuple = ()
    direction: tuple = (1.0, 0.0, 0.0)
    trial_points: int = 24


# configuration keys: name -> (field path, parser); a path ``owner.name``
# sets field ``name`` of the RunConfig field ``owner``
_KEYS = {
    "model": ("params.model", str.strip),
    "hbar": ("params.hbar", float),
    "mass": ("params.mass", float),
    "light_speed": ("params.light_speed", float),
    "charge": ("params.charge", float),
    "lambda": ("params.lam", float),
    "v": ("params.v", _parse_vec3),
    "grid_n": ("grid.n", int),
    "box_l": ("grid.box_l", float),
    "seed": ("minimize.seed", int),
    "output_dir": ("output_dir", str.strip),
    "force_supercritical": ("minimize.force", _parse_bool),
    "speeds": ("speeds", _parse_floats),
    "direction": ("direction", _parse_vec3),
    "trial_points": ("trial_points", int),
}
# MinimizeConfig's seed and force have the keys above only
_KEYS.update(
    (f"minimize.{f.name}", (f"minimize.{f.name}", {"int": int, "str": str.strip}[f.type]))
    for f in dataclasses.fields(MinimizeConfig) if f.name not in ("seed", "force")
)

# command-line flag -> the config key it sets
_FLAG_KEYS = {
    "v": "v",
    "model": "model",
    "grid": "grid_n",
    "box": "box_l",
    "seed": "seed",
    "out": "output_dir",
    "force": "force_supercritical",
    "speeds": "speeds",
}


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Flat ``key = value`` pairs; ``#`` starts a comment."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise InputError(f"{origin}:{lineno}: empty key or value")
        if key in pairs:
            raise InputError(f"{origin}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _apply_pairs(cfg: RunConfig, pairs: dict) -> RunConfig:
    """``cfg`` with each pair parsed onto the field its key's path names.
    Each owner is replaced once, minimize, then params, then grid, so its
    own checks run on the values it is given; their ValueError is an
    input error."""
    updates = {"minimize": {}, "params": {}, "grid": {}, "": {}}
    for key, value in pairs.items():
        if key not in _KEYS:
            raise InputError(f"unknown config key {key!r}")
        path, parser = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise InputError(f"bad value for {key!r}: {exc}") from None
        owner, _, name = path.rpartition(".")
        updates[owner][name] = parsed
    fields = updates.pop("")
    try:
        for owner, kw in updates.items():
            fields[owner] = dataclasses.replace(getattr(cfg, owner), **kw)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return dataclasses.replace(cfg, **fields)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The file's pairs with each given flag laid over them as the pair
    of its key, parsed in one pass."""
    pairs = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read config {args.config}: {exc}") from None
        pairs = parse_config_text(text, origin=args.config)
    for flag, key in _FLAG_KEYS.items():
        # argparse hands each flag over as a string, --force as a bool;
        # an absent or empty flag leaves the file's value
        value = getattr(args, flag, None)
        if value:
            pairs[key] = str(value)
    return _apply_pairs(RunConfig(), pairs)


# -- artifacts ------------------------------------------------------------------


class _RunLog:
    """Sidecar log; the only artifact allowed to carry timestamps.  As a
    context manager it writes "<command> failed: ..." for a package error
    and closes on every exit."""

    def __init__(self, directory: str, command: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, "run.log")
        self.command = command
        self._fh = open(self.path, "a")

    def __enter__(self) -> "_RunLog":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, MpwaveError):
            self.write(f"{self.command} failed: {exc}")
        self.close()

    def write(self, msg: str) -> None:
        stamp = datetime.datetime.now().isoformat(timespec="seconds")
        self._fh.write(f"[{stamp}] {msg}\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _write_lines(path: str, lines) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _report_lines(cfg: RunConfig, rep) -> list:
    v = cfg.params.v
    lines = [
        f"model = {cfg.params.model}",
        f"grid_n = {cfg.grid.n}",
        f"box_l = {_fmt(cfg.grid.box_l)}",
        f"velocity = {_fmt(v[0])},{_fmt(v[1])},{_fmt(v[2])}",
        f"seed = {cfg.minimize.seed}",
        f"converged = {str(rep.converged).lower()}",
        f"iterations = {rep.iterations}",
        f"energy = {_fmt(rep.energy)}",
        f"theta = {_fmt(rep.theta)}",
        f"omega = {_fmt(rep.omega)}",
        f"residual_psi = {_fmt(rep.residual_psi)}",
        f"residual_A = {_fmt(rep.residual_a)}",
        f"current_defect = {_fmt(rep.current_defect)}",
        f"message = {rep.message}",
        f"a_ops = {rep.a_ops}",
        f"a_solves = {rep.a_solves}",
        f"backtracks = {rep.backtracks}",
    ]
    for key, val in rep.breakdown.as_dict().items():
        lines.append(f"energy.{key} = {_fmt(val)}")
    return lines


def run_solve(cfg: RunConfig) -> int:
    grid, p = cfg.grid, cfg.params
    with _RunLog(cfg.output_dir, "solve") as log:
        log.write(f"solve start: model={p.model} n={grid.n} L={grid.box_l} v={p.v}")
        log.write(_heap())
        rep = minimize(grid, p, config=cfg.minimize)
        state_io.write_state(os.path.join(cfg.output_dir, "state.mpwf"), grid, p, rep.psi, rep.A)
        _write_lines(os.path.join(cfg.output_dir, "report.txt"), _report_lines(cfg, rep))
        rows = ["sample,energy"] + [f"{i},{_fmt(e)}" for i, e in enumerate(rep.energy_trace)]
        _write_lines(os.path.join(cfg.output_dir, "trace.csv"), rows)
        log.write(f"solve done: converged={rep.converged} iters={rep.iterations}")
    print(
        f"energy = {_fmt(rep.energy)}\ntheta = {_fmt(rep.theta)}\n"
        f"omega = {_fmt(rep.omega)}\n"
        f"residual_psi = {_fmt(rep.residual_psi)}\nresidual_A = {_fmt(rep.residual_a)}"
    )
    if not rep.converged:
        print(f"warning: not converged ({rep.message})", file=sys.stderr)
    return 0


def run_sweep(cfg: RunConfig) -> int:
    p = cfg.params
    rows = ["v_mag,energy,energy_minus_rest,theta,omega,residual_psi,residual_A,converged"]
    if not cfg.speeds:
        os.makedirs(cfg.output_dir, exist_ok=True)
        _write_lines(os.path.join(cfg.output_dir, "sweep.csv"), rows)
        print("empty speed list: header-only CSV written")
        return 0
    with _RunLog(cfg.output_dir, "sweep") as log:
        log.write(f"sweep start: speeds={list(cfg.speeds)}")
        log.write(_heap())
        result = diagnostics.mass_sweep(
            cfg.grid, p, cfg.speeds, direction=cfg.direction, config=cfg.minimize
        )
        for pt in result.points:
            rest = 0.5 * p.mass * pt.speed ** 2 * p.lam
            rows.append(
                ",".join(
                    [
                        _fmt(pt.speed),
                        _fmt(pt.energy_trav),
                        _fmt(pt.energy_trav - rest),
                        _fmt(pt.theta),
                        _fmt(pt.omega),
                        _fmt(pt.residual_psi),
                        _fmt(pt.residual_a),
                        str(pt.converged).lower(),
                    ]
                )
            )
        if np.isnan(result.alpha):
            undetermined = "undetermined: the fit needs two nonzero speeds of distinct magnitude"
            rows.append(f"# fit: {undetermined}")
            summary = f"fit {undetermined}"
        else:
            rows.append(
                f"# fit: alpha = {_fmt(result.alpha)}, beta = {_fmt(result.beta)}, "
                f"alpha_target = {_fmt(result.alpha_target)}, "
                f"residual = {_fmt(result.fit_residual)}"
            )
            summary = (f"alpha = {_fmt(result.alpha)} (target {_fmt(result.alpha_target)}), "
                       f"beta = {_fmt(result.beta)}")
        _write_lines(os.path.join(cfg.output_dir, "sweep.csv"), rows)
        log.write("sweep done")
    print(summary)
    return 0


def run_trial(cfg: RunConfig) -> int:
    report = diagnostics.negativity_witness(cfg.grid, cfg.params, num=cfg.trial_points)
    os.makedirs(cfg.output_dir, exist_ok=True)
    rows = ["amplitude,dilation,energy,margin"]
    for r in report.rows:
        rows.append(
            ",".join([_fmt(r.amplitude), _fmt(r.dilation), _fmt(r.energy), _fmt(r.margin)])
        )
    rows.append(f"# threshold = {_fmt(report.threshold)}")
    rows.append(f"# slope_at_zero = {_fmt(report.slope_at_zero)}")
    rows.append(f"# found = {str(report.found).lower()}")
    _write_lines(os.path.join(cfg.output_dir, "witness.csv"), rows)
    print(report.message)
    return 0


def _check_lines(grid, p, psi, A) -> tuple:
    """Invariant suite on a stored state; returns (lines, all_pass).

    The lines read the solver's report of (psi, A) (``_state_record``)
    and one record of its half-band part (``_half_band_checks``), each
    invariant in a function of its own that frees its stacks.  Form
    equivalence and the spin identity fail only on a corrupted record,
    gauge covariance also on valid strong-field states (a_amp = 1 at
    n = 32); stationarity SKIPs a state that is not a minimizer.
    """
    psi = component_array(grid, psi, 2, "psi")
    A = component_array(grid, A, 3, "A")
    br, res, grad_a, psi_h, a_h = _state_record(grid, p, psi, A)
    spin, gauge = _half_band_checks(grid, p, psi_h, a_h)
    del psi_h, a_h
    results = (
        ("form-equivalence", _form_equivalence(br)),
        ("spin-laplacian-identity", spin),
        ("gauge-covariance", gauge),
        ("a-priori-bounds", _apriori_check(grid, p, psi, grad_a, br.total)),
        ("coulomb-lower-bound", _coulomb_check(grid, p, psi, A, br.total)),
        ("stationarity", _stationarity(res)),
    )
    lines = []
    ok = True
    for name, (passed, detail) in results:
        if passed is None:
            lines.append(f"SKIP {name}: {detail}")
            continue
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and bool(passed)
    return lines, ok


def _state_record(grid, p, psi, A) -> tuple:
    """The ``EnergyBreakdown``, the ``ELResidual``, |grad A| and the
    half-band pair of (psi, A), the last two read from A_hat and psi_hat
    before ``minimize._report`` reads the bands: model S records the
    spin-up block of a spin-up psi, model P the spinor, whose current
    pairs both components of sigma . D psi."""
    a_band = _field_band(grid, p, A)
    a_hat = a_band[0]
    grad_a = 0.0 if a_hat is None else np.sqrt(_parseval(grid, a_hat, grid.k2 * a_hat))
    psi_hat, psi_low = spectral.band(grid, _banded_psi(p, psi))
    psi_h, a_h = _half_band(grid, psi_hat, a_hat)
    del a_hat
    res, br, _ = _report(grid, p, psi_hat, psi_low, a_band)
    return br, res, grad_a, psi_h, a_h


def _half_band(grid, psi_hat, a_hat) -> tuple:
    """The part of (psi, A) band limited to half the dealias cutoff, where
    the Lichnerowicz and gauge identities are exact, cut from psi_hat and
    A_hat (None for A = 0): a (2, n, n, n) spinor, a spin-up block padded
    back, and a real (3, n, n, n) field."""
    modes = np.rint(grid.k / (2.0 * np.pi / grid.box_l))
    mask = np.all(np.abs(modes) <= grid.mode_cut // 2, axis=0)
    psi_h = _spinor(grid.ifft(psi_hat * mask, overwrite=True))
    if a_hat is None:
        return psi_h, np.zeros((3,) + grid.shape)
    return psi_h, grid.ifft(a_hat * mask, overwrite=True).real.copy()


def _half_band_checks(grid, p, psi_h, a_h) -> tuple:
    """The spin-Laplacian identity and gauge covariance of the half-band
    pair, from one band of each field and one stack of the transforms of
    the three D_a psi_h: the model S Laplacian reads it as its K psi, and
    the gauge line's right side is its inverse transform, which consumes
    it."""
    psi_hat, psi_low = spectral.band(grid, psi_h)
    a_low = pauli._a_band(grid, a_h)[1]
    stack = pauli.kinetic_hat(grid, p.with_(model="S"), psi_hat, psi_low, a_low)
    spin = _spin_identity(grid, p, psi_hat, psi_low, stack, a_low)
    del psi_hat, psi_low, a_low
    return spin, _gauge_covariance(grid, p, psi_h, a_h, stack)


def _spin_identity(grid, p, psi_hat, psi_low, stack, a_low) -> tuple:
    """Lichnerowicz identity: the model P Laplacian equals the model S one
    plus the spin term, which vanishes at A = 0 (a_low None).  The model P
    side reads sigma . D psi from ``kinetic_hat``, as ``covariant_laplacian``
    does."""
    def laplacian(pm, kpsi_hat):
        st = pauli.KineticState(psi_hat, psi_low, kpsi_hat, a_low)
        return grid.ifft(pauli._laplacian_hat(grid, pm, st), overwrite=True)

    p_spin = p.with_(model="P")
    lap = laplacian(p_spin, pauli.kinetic_hat(grid, p_spin, psi_hat, psi_low, a_low))
    den = max(float(np.max(np.abs(lap))), 1e-300)
    lap -= laplacian(p.with_(model="S"), stack)
    if a_low is not None:
        lap -= pauli._spin_term(grid, p, psi_low, a_low)
    num = float(np.max(np.abs(lap)))
    return num / den < 1e-8, f"relative defect {num / den:.3e}"


def _gauge_covariance(grid, p, psi_h, a_h, stack) -> tuple:
    """D(phase psi) in the gauge A + grad u equals phase D psi; the right
    side is the inverse of ``stack``, taken in place."""
    # gauge function with only the lowest modes and a small amplitude:
    # exp(i u) then stays effectively band-limited and the covariance
    # identity survives the product truncation
    rng = np.random.default_rng(7)
    u_hat = np.zeros(grid.shape, dtype=complex)
    low = (slice(0, 2),) * 3
    u_hat[low] = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    u = np.real(grid.ifft(u_hat))
    u *= 0.05 / max(np.max(np.abs(u)), 1e-300)
    phase = np.exp(1j * p.charge / (p.hbar * p.light_speed) * u)
    rhs = grid.ifft(stack, overwrite=True)
    np.multiply(phase, rhs, out=rhs)
    gden = max(float(np.max(np.abs(rhs))), 1e-300)
    lhs = pauli.covariant_gradient(
        grid, p, phase * psi_h, a_h + spectral.gradient(grid, u).real
    )
    lhs -= rhs
    gnum = float(np.max(np.abs(lhs)))
    return gnum / gden < 1e-6, f"relative defect {gnum / gden:.3e}"


def _form_equivalence(br) -> tuple:
    scale = max(abs(br.total), 1.0)
    defect = abs(br.total - br.total_shifted) / scale
    return defect < 1e-8, f"relative defect {defect:.3e}"


def _apriori_check(grid, p, psi, grad_a, total) -> tuple:
    if not p.speed > 0:
        return None, "static state (v = 0)"
    try:
        speed_gate(p)
    except DomainGateError as exc:
        return None, str(exc)
    bounds = _apriori(grid, p, psi, grad_a, total)
    return bounds.all_hold, (
        f"field {bounds.field_bound.lhs:.3e} <= {bounds.field_bound.rhs:.3e}, "
        f"low-field regime {bounds.low_field_regime}"
    )


def _coulomb_check(grid, p, psi, A, total) -> tuple:
    cb = diagnostics.coulomb_lower_bound(grid, p, psi, A, total=total)
    return cb.holds, f"energy {cb.energy:.6e} >= bound {cb.bound:.6e}"


def _stationarity(res) -> tuple:
    if res.max_rel < 1e-3:
        return True, f"relative residual {res.max_rel:.3e}"
    return None, f"not a minimizer (residual {res.max_rel:.3e})"


def run_check(args: argparse.Namespace) -> int:
    grid, p, psi, A = state_io.read_state(args.state)
    lines, ok = _check_lines(grid, p, psi, A)
    print("\n".join(lines))
    print("all checks passed" if ok else "CHECK FAILED")
    return 0 if ok else 4


# -- entry point -----------------------------------------------------------------

# glibc's mallopt parameters (malloc.h) and the values ``_heap`` sets: every
# stack the package allocates up to n = 64 (a (3, 2, 64^3) complex stack is
# 25 MB) stays below the mmap threshold
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_SETTINGS = (("mmap_threshold", _M_MMAP_THRESHOLD, 32 << 20),
                  ("trim_threshold", _M_TRIM_THRESHOLD, 256 << 20))


@functools.cache
def _heap() -> str:
    """Pin glibc's mmap and trim thresholds for this process, once, and
    return the run.log line that says how its heap is set.

    With glibc's dynamic thresholds each field of n = 32 (0.25-3 MiB) is
    mapped, faulted in zero-filled and unmapped again, or the heap is
    trimmed and grown again, on every pass; with the thresholds pinned the
    freed blocks are reused.  A process whose environment already sets the
    allocator (``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or a
    ``glibc.malloc.`` tunable) is left as it is, and so is a C library that
    is not glibc.  The numerics do not depend on the allocator."""
    if platform.libc_ver()[0] != "glibc":
        return "heap: not glibc"
    chosen = [name for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
              if name in os.environ]
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        chosen.append("GLIBC_TUNABLES")
    if chosen:
        return f"heap: left to the environment ({', '.join(chosen)})"
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for name, param, value in _HEAP_SETTINGS:
        if not mallopt(param, value):
            return f"heap: glibc refused {name} = {value}"
    return "heap: " + ", ".join(f"{name} = {value}" for name, _, value in _HEAP_SETTINGS)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value configuration file")
    sub.add_argument("--out", help="output directory (default: current)")
    sub.add_argument("--v", help="velocity as 'vx,vy,vz'")
    sub.add_argument("--model", choices=("S", "P"), help="coupling model")
    sub.add_argument("--grid", help="grid points per axis")
    sub.add_argument("--box", help="box edge length")
    sub.add_argument("--seed", help="seed for all randomness")
    sub.add_argument(
        "--force",
        action="store_true",
        help="skip the subcritical speed gate (energy may be unbounded below)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpwave",
        description="travelling-wave solver for the coupled matter-field system",
        epilog="flags are parsed as their config keys; MPW_THREADS sets the FFT "
        "worker count; exit codes: "
        "0 ok, 2 input error, 3 domain gate, 4 solver failure",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="minimize at one velocity and persist the state")
    _add_common(s)
    s.set_defaults(func=lambda a: run_solve(resolve_config(a)))

    s = subs.add_parser("sweep", help="minimize over a speed list, emit CSV and a fit")
    _add_common(s)
    s.add_argument("--speeds", help="comma-separated speed magnitudes")
    s.set_defaults(func=lambda a: run_sweep(resolve_config(a)))

    s = subs.add_parser("trial", help="scan the explicit trial family (negativity witness)")
    _add_common(s)
    s.set_defaults(func=lambda a: run_trial(resolve_config(a)))

    s = subs.add_parser("check", help="run the invariant suite on a saved state")
    s.add_argument("state", help="state file written by solve")
    s.set_defaults(func=run_check)

    return parser


def main(argv=None) -> int:
    # solver progress (``minimize.log_every``) goes to stderr; stdout
    # carries only the results
    logging.basicConfig(format="%(message)s", level=logging.INFO)
    _heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MpwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in _EXIT.items():
            if isinstance(exc, klass):
                return code
        return 2


if __name__ == "__main__":
    sys.exit(main())
