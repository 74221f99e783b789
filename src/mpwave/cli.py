"""Command-line front end.

Four commands cover the workflow:

* ``solve``  -- minimize at one velocity, persist the state and a report;
* ``sweep``  -- minimize over a list of speeds, emit CSV plus a fit line;
* ``trial``  -- scan the explicit trial family for the negativity witness;
* ``check``  -- run the invariant suite against a saved state file.

Configuration is a flat ``key = value`` text file with ``#`` comments.
Each command-line flag is the pair of its config key, laid over the
file's pairs and parsed with them.  All randomness flows from the
config seed, so identical configurations produce byte-identical
artifacts; wall-clock timestamps appear only in the ``run.log`` sidecar.
The speed is gated where it is used: each solve, each sweep speed and
the trial scan.  Exit codes: 0 success, 2 input error, 3 domain gate,
4 solver failure.  The environment variable ``MPW_THREADS`` sets the FFT
worker count of each grid.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import logging
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, io as state_io, pauli, spectral
from .energy import apriori_bounds, energy_functional
from .errors import DomainGateError, InputError, MpwaveError, SolverError
from .fields import PhysParams
from .grid import Grid
from .minimize import MinimizeConfig, el_residual, minimize

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
    """Everything one run needs, resolved from file plus flags.  The run
    seed and the speed-gate override live in ``minimize`` (``seed`` and
    ``force``), where the solver reads them."""

    model: str = "S"
    hbar: float = 1.0
    mass: float = 1.0
    light_speed: float = 1.0
    charge: float = 1.0
    lam: float = 1.0
    velocity: tuple = (0.1, 0.0, 0.0)
    grid_n: int = 32
    box_l: float = 40.0
    output_dir: str = "."
    speeds: tuple = ()
    direction: tuple = (1.0, 0.0, 0.0)
    trial_points: int = 24
    minimize: MinimizeConfig = field(default_factory=MinimizeConfig)

    def validate(self) -> None:
        """InputError unless the model, the physical constants and the
        grid are valid: the checks of ``PhysParams`` and ``Grid``."""
        self.params()
        self.grid()

    def grid(self) -> Grid:
        try:
            return Grid(n=self.grid_n, box_l=self.box_l)
        except ValueError as exc:
            raise InputError(str(exc)) from None

    def params(self) -> PhysParams:
        """The physical parameters; the speed is gated by the library
        call that uses it (``minimize`` per solve and per sweep speed,
        ``negativity_witness`` for the trial scan)."""
        try:
            return PhysParams(
                hbar=self.hbar,
                mass=self.mass,
                light_speed=self.light_speed,
                charge=self.charge,
                lam=self.lam,
                v=tuple(self.velocity),
                model=self.model,
            )
        except ValueError as exc:
            raise InputError(str(exc)) from None


# configuration keys: name -> (attribute path, parser); a path under
# ``minimize.`` sets that MinimizeConfig field
_KEYS = {
    "model": ("model", str.strip),
    "hbar": ("hbar", float),
    "mass": ("mass", float),
    "light_speed": ("light_speed", float),
    "charge": ("charge", float),
    "lambda": ("lam", float),
    "v": ("velocity", _parse_vec3),
    "grid_n": ("grid_n", int),
    "box_l": ("box_l", float),
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
    updates = {}
    min_updates = {}
    for key, value in pairs.items():
        if key not in _KEYS:
            raise InputError(f"unknown config key {key!r}")
        attr, parser = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise InputError(f"bad value for {key!r}: {exc}") from None
        if attr.startswith("minimize."):
            min_updates[attr[len("minimize."):]] = parsed
        else:
            updates[attr] = parsed
    if min_updates:
        updates["minimize"] = dataclasses.replace(cfg.minimize, **min_updates)
    return dataclasses.replace(cfg, **updates)


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
    cfg = _apply_pairs(RunConfig(), pairs)
    cfg.validate()
    return cfg


# -- artifacts ------------------------------------------------------------------


class _RunLog:
    """Sidecar log; the only artifact allowed to carry timestamps."""

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, "run.log")
        self._fh = open(self.path, "a")

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
    lines = [
        f"model = {cfg.model}",
        f"grid_n = {cfg.grid_n}",
        f"box_l = {_fmt(cfg.box_l)}",
        f"velocity = {_fmt(cfg.velocity[0])},{_fmt(cfg.velocity[1])},{_fmt(cfg.velocity[2])}",
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
    grid = cfg.grid()
    p = cfg.params()
    log = _RunLog(cfg.output_dir)
    log.write(f"solve start: model={cfg.model} n={cfg.grid_n} L={cfg.box_l} v={cfg.velocity}")
    try:
        rep = minimize(grid, p, config=cfg.minimize)
    except MpwaveError as exc:
        log.write(f"solve failed: {exc}")
        log.close()
        raise
    state_io.write_state(os.path.join(cfg.output_dir, "state.mpwf"), grid, p, rep.psi, rep.A)
    _write_lines(os.path.join(cfg.output_dir, "report.txt"), _report_lines(cfg, rep))
    rows = ["sample,energy"] + [f"{i},{_fmt(e)}" for i, e in enumerate(rep.energy_trace)]
    _write_lines(os.path.join(cfg.output_dir, "trace.csv"), rows)
    log.write(f"solve done: converged={rep.converged} iters={rep.iterations}")
    log.close()
    print(
        f"energy = {_fmt(rep.energy)}\ntheta = {_fmt(rep.theta)}\n"
        f"omega = {_fmt(rep.omega)}\n"
        f"residual_psi = {_fmt(rep.residual_psi)}\nresidual_A = {_fmt(rep.residual_a)}"
    )
    if not rep.converged:
        print(f"warning: not converged ({rep.message})", file=sys.stderr)
    return 0


def run_sweep(cfg: RunConfig) -> int:
    grid = cfg.grid()
    p = cfg.params()
    rows = ["v_mag,energy,energy_minus_rest,theta,omega,residual_psi,residual_A,converged"]
    if not cfg.speeds:
        os.makedirs(cfg.output_dir, exist_ok=True)
        _write_lines(os.path.join(cfg.output_dir, "sweep.csv"), rows)
        print("empty speed list: header-only CSV written")
        return 0
    log = _RunLog(cfg.output_dir)
    log.write(f"sweep start: speeds={list(cfg.speeds)}")
    try:
        result = diagnostics.mass_sweep(
            grid, p, cfg.speeds, direction=cfg.direction, config=cfg.minimize
        )
    except MpwaveError as exc:
        log.write(f"sweep failed: {exc}")
        log.close()
        raise
    for pt in result.points:
        rest = 0.5 * cfg.mass * pt.speed ** 2 * cfg.lam
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
            f"alpha_target = {_fmt(result.alpha_target)}, residual = {_fmt(result.fit_residual)}"
        )
        summary = (f"alpha = {_fmt(result.alpha)} (target {_fmt(result.alpha_target)}), "
                   f"beta = {_fmt(result.beta)}")
    _write_lines(os.path.join(cfg.output_dir, "sweep.csv"), rows)
    log.write("sweep done")
    log.close()
    print(summary)
    return 0


def run_trial(cfg: RunConfig) -> int:
    grid = cfg.grid()
    p = cfg.params()
    report = diagnostics.negativity_witness(grid, p, num=cfg.trial_points)
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
    """Invariant suite on a stored state; returns (lines, all_pass)."""
    lines = []
    ok = True

    def record(name: str, passed, detail: str) -> None:
        nonlocal ok
        if passed is None:
            lines.append(f"SKIP {name}: {detail}")
            return
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        if not passed:
            ok = False

    br = energy_functional(grid, p, psi, A)
    scale = max(abs(br.total), 1.0)
    defect = abs(br.total - br.total_shifted) / scale
    record("form-equivalence", defect < 1e-8, f"relative defect {defect:.3e}")

    # Lichnerowicz identity, spin-coupled Laplacian = scalar one + spin
    # term, on the part of the state band limited to half the dealias
    # cutoff where it is exact
    modes = np.rint(grid.k / (2.0 * np.pi / grid.box_l))
    mask = np.all(np.abs(modes) <= grid.mode_cut // 2, axis=0)
    psi_low = grid.ifft(grid.fft(psi.data) * mask)
    a_low = grid.ifft(grid.fft(A.data) * mask).real
    lap = pauli.covariant_laplacian(grid, p.with_(model="P"), psi_low, a_low)
    lap_s = pauli.covariant_laplacian(grid, p.with_(model="S"), psi_low, a_low)
    num = float(np.max(np.abs(lap - lap_s - pauli.spin_term(grid, p, psi_low, a_low))))
    den = max(float(np.max(np.abs(lap))), 1e-300)
    record("spin-laplacian-identity", num / den < 1e-8, f"relative defect {num / den:.3e}")

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
    lhs = pauli.covariant_gradient(
        grid, p, phase * psi_low, a_low + spectral.gradient(grid, u).real
    )
    rhs = phase * pauli.covariant_gradient(grid, p, psi_low, a_low)
    gnum = float(np.max(np.abs(lhs - rhs)))
    gden = max(float(np.max(np.abs(rhs))), 1e-300)
    record("gauge-covariance", gnum / gden < 1e-6, f"relative defect {gnum / gden:.3e}")

    if p.speed > 0:
        try:
            bounds = apriori_bounds(grid, p, psi, A, total=br.total)
            record(
                "a-priori-bounds",
                bounds.all_hold,
                f"field {bounds.field_bound.lhs:.3e} <= {bounds.field_bound.rhs:.3e}, "
                f"low-field regime {bounds.low_field_regime}",
            )
        except DomainGateError as exc:
            record("a-priori-bounds", None, str(exc))
    else:
        record("a-priori-bounds", None, "static state (v = 0)")

    cb = diagnostics.coulomb_lower_bound(grid, p, psi, A, total=br.total)
    record(
        "coulomb-lower-bound",
        cb.holds,
        f"energy {cb.energy:.6e} >= bound {cb.bound:.6e}",
    )

    res = el_residual(grid, p, psi, A)
    if res.max_rel < 1e-3:
        record("stationarity", True, f"relative residual {res.max_rel:.3e}")
    else:
        record("stationarity", None, f"not a minimizer (residual {res.max_rel:.3e})")
    return lines, ok


def run_check(args: argparse.Namespace) -> int:
    grid, p, psi, A = state_io.read_state(args.state)
    lines, ok = _check_lines(grid, p, psi, A)
    print("\n".join(lines))
    print("all checks passed" if ok else "CHECK FAILED")
    return 0 if ok else 4


# -- entry point -----------------------------------------------------------------


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
