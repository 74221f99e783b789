"""Structural diagnostics for the travelling-wave variational problem.

This module collects the constructions used to probe a state or the
functional itself rather than to optimize it:

* an explicit two-parameter trial family (localized bump wave function
  plus a compactly supported solenoidal vector potential) whose energy
  obeys a closed-form law in the amplitude and dilation, giving a
  negativity witness for the strict inequality  inf E < -(m v^2 / 2) lam;
* the concentration function sup_y mass(ball(y, r)) and its maximizer;
* a gauge-covariant splitting of a state into an inner and an outer
  piece whose energies should sum to the total up to a small defect;
* the Coulomb-type lower bound controlled by the density alone;
* a velocity sweep fitting the small-|v| energy law.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import pauli, spectral
from .energy import (
    _field_part,
    _parseval,
    _vk_real,
    carrier_gate,
    energy_functional,
    speed_gate,
    travelling_energy,
)
from .errors import DomainGateError, InputError
from .fields import (PhysParams, SpinorField, VectorField, _spinor, as_array, component_array,
                     l2_norm_sq)
from .grid import Grid
from .minimize import MinimizeConfig, _psi_energy, minimize

# -- smooth profiles -----------------------------------------------------------


def _bump(t: np.ndarray) -> np.ndarray:
    """Standard mollifier profile: exp(1 - 1/(1-t^2)) inside |t| < 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def _bump_prime(t: np.ndarray) -> np.ndarray:
    """Derivative of ``_bump``, again supported in |t| < 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    om = 1.0 - ti * ti
    out[inside] = np.exp(1.0 - 1.0 / om) * (-2.0 * ti / om ** 2)
    return out


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


# -- trial family ---------------------------------------------------------------


@dataclass(frozen=True)
class TrialSpec:
    """Parameters of the bump trial family.

    The base pair lives at unit scale: the stream profile is a radial
    mollifier of radius 1 generating the solenoidal
    A_0 = (d2 Xi, -d1 Xi, 0), and the wave-function bump of radius
    ``psi_radius`` is centered a distance ``psi_offset`` below the
    x2 = 0 plane, inside the region where d2 Xi > 0.  ``amplitude``
    and ``dilation`` are the two scan parameters (a, R); the dilation is
    the support radius, which must stay the class constant ``margin``
    * box_l away from the box boundary.

    The default offset/radius pair was chosen by a small numerical
    study maximizing the coupling-to-cost quality of the base pair;
    see the shape study in the test suite for the measured value.
    """

    margin: ClassVar[float] = 0.1

    amplitude: float
    dilation: float
    psi_offset: float = 0.50
    psi_radius: float = 0.50

    def __post_init__(self):
        if self.amplitude <= 0 or self.dilation <= 0:
            raise InputError("trial amplitude and dilation must be positive")
        if self.psi_offset + self.psi_radius > 1.0 + 1e-12:
            raise InputError("wave-function bump must stay inside the base ball")
        if self.psi_offset - self.psi_radius < -1e-12:
            raise InputError("wave-function bump must stay below the x2 = 0 plane")

    @classmethod
    def fitted(cls, grid: Grid, amplitude: float, **kw) -> "TrialSpec":
        """Largest dilation that keeps the support inside the margin."""
        return cls(amplitude=amplitude, dilation=(0.5 - cls.margin) * grid.box_l, **kw)


def _check_fit(grid: Grid, spec: TrialSpec) -> None:
    limit = (0.5 - TrialSpec.margin) * grid.box_l
    if spec.dilation > limit + 1e-9:
        raise DomainGateError(
            f"trial support radius {spec.dilation:.3g} exceeds the "
            f"fit limit {limit:.3g} for box {grid.box_l:g}"
        )


def _trial_raw(grid: Grid, p: PhysParams, spec: TrialSpec, potential: bool = True):
    """Sampled envelope (normalized) and vector potential of the family;
    without ``potential`` the potential is not sampled and reads None."""
    _check_fit(grid, spec)
    x, y, z = grid.coords()
    cx, cy, cz = grid.center()
    R = spec.dilation
    xs, ys, zs = (x - cx) / R, (y - cy) / R, (z - cz) / R

    a_data = None
    if potential:
        r = np.sqrt(xs * xs + ys * ys + zs * zs)
        # d_a Xi = b'(r) x_a / r at the unit base radius
        with np.errstate(invalid="ignore", divide="ignore"):
            radial = np.where(r > 0, _bump_prime(r) / r, 0.0)
        a_data = np.zeros((3,) + grid.shape, dtype=float)
        a_data[0] = radial * ys
        a_data[1] = -radial * xs
        scale = spec.amplitude * p.light_speed / p.charge
        a_data *= scale

    rb = np.sqrt(xs * xs + (ys + spec.psi_offset) ** 2 + zs * zs)
    env = _bump(rb / spec.psi_radius) * R ** (-1.5)
    env_norm = np.sqrt(float(np.sum(env ** 2)) * grid.cell)
    if env_norm == 0.0:
        raise DomainGateError("trial bump is unresolved on this grid")
    env *= np.sqrt(p.lam) / env_norm
    return env, a_data


def trial_fields(grid: Grid, p: PhysParams, spec: TrialSpec) -> tuple[SpinorField, VectorField]:
    """Sample the trial pair on the grid.

    The wave function is the boosted bump  R^{-3/2} e^{i(mv/hbar).x}
    psi_0(x'/R)  in the spin-up state, normalized to lambda in grid
    quadrature; the vector potential is (a c / Q) A_0(x'/R), projected
    onto the exactly solenoidal zero-mean subspace on its transform (a
    rounding-level correction for resolved profiles): the inverse of the
    transform ``negativity_witness`` reads.  A carrier outside the
    dealias band raises DomainGateError; ``trial_energy_terms`` never
    samples the carrier and has no such limit.
    """
    up, a_hat = _trial_sample(grid, p, spec, _carrier(grid, p), potential=True)
    return SpinorField(grid, _spinor(up)), VectorField(grid, grid.ifft(a_hat, overwrite=True).real)


def _carrier(grid: Grid, p: PhysParams) -> np.ndarray:
    """The boost carrier e^{i (m v / hbar).x} sampled on the grid, after
    ``carrier_gate``; a scan samples it once for all its rows."""
    carrier_gate(grid, p)
    x, y, z = grid.coords()
    v = p.v_arr
    return np.exp(1j * (p.mass / p.hbar) * (v[0] * x + v[1] * y + v[2] * z))


def _trial_sample(grid: Grid, p: PhysParams, spec: TrialSpec, carrier: np.ndarray,
                  potential: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The spin-up block (1, n, n, n) of the psi of ``trial_fields``, the
    bump times ``carrier`` normalized to lambda, which takes no transform,
    and, with ``potential``, the transform of its A: the sampled A
    projected on its transform with the k = 0 mode set to 0, 3 scalar
    FFTs; without, A is not sampled and reads None."""
    env, a_data = _trial_raw(grid, p, spec, potential)
    up = (env * carrier)[None]
    up *= np.sqrt(p.lam / l2_norm_sq(grid, up))
    if a_data is None:
        return up, None
    a_hat = spectral.project_hat(grid, grid.fft(a_data))
    a_hat[:, 0, 0, 0] = 0.0
    return up, a_hat


def _witness_energy(grid: Grid, p: PhysParams, spec: TrialSpec, carrier: np.ndarray) -> float:
    """``energy_functional(*trial_fields(grid, p, spec)).total`` to rounding,
    read from the transforms the sampler holds: the record of the spin-up
    block against T A, taken from the projected A_hat, and the field term
    of that A_hat.  11 scalar FFTs: A_hat 3, T A 3, psi_hat and T psi 2,
    K psi_hat 3."""
    up, a_hat = _trial_sample(grid, p, spec, carrier, potential=True)
    a_low = grid.ifft(a_hat * grid.dealias_mask, overwrite=True).real
    return _psi_energy(grid, p, pauli.kinetic_state(grid, p, up, a_low)) + _field_part(grid, p, a_hat)


@dataclass(frozen=True)
class TrialEnergyTerms:
    """Closed-form energy law of the trial family, term by term."""

    envelope_kinetic: float
    diamagnetic: float
    coupling: float
    rest: float
    field: float
    spin: float
    total: float


def trial_energy_terms(grid: Grid, p: PhysParams, spec: TrialSpec) -> TrialEnergyTerms:
    """Evaluate the analytic energy law at (a, R) = (amplitude, dilation).

    Each term is the closed form of the base integrals (``BaseQuadratures``,
    sampled at the dilation R of ``spec``), the law that the balancing
    dilation R_a of ``effective_dilation`` also reads:

        kinetic   hbar^2 n2 / (2 m R^2)      diamagnetic  a^2 m2 / (2 m)
        coupling  -a |v| overlap             rest         -m v^2 lambda / 2
        field     a^2 R (c^2 g2 - v^2 g1v2) / (8 pi Q^2)
        spin      -(hbar a / 2 m) spin / R   (model P only)

    The carrier phase and the drift term cancel exactly and never enter.
    Against ``energy_functional(trial_fields(...))`` the law is not exact:
    on the witness rows at n = 32, L = 40 the two differ by up to 3 % of
    the row margin (test_05 bounds the gap at 5e-2 of it).  The cause of
    a gap that size at a resolved profile is not known.
    """
    b = _base_integrals(grid, p, spec)
    a, R = spec.amplitude, spec.dilation
    c, v = p.light_speed, p.speed
    kin = p.hbar ** 2 * b.n2 / (2.0 * p.mass * R ** 2)
    dia = a ** 2 * b.m2 / (2.0 * p.mass)
    coup = -a * v * b.overlap
    rest = -0.5 * p.mass * v ** 2 * p.lam
    field = a ** 2 * R * (c ** 2 * b.g2 - v ** 2 * b.g1v2) / (8.0 * np.pi * p.charge ** 2)
    spin = -(p.hbar * a / (2.0 * p.mass)) * b.spin / R if p.model == "P" else 0.0
    total = kin + dia + coup + rest + field + spin
    return TrialEnergyTerms(
        envelope_kinetic=kin,
        diamagnetic=dia,
        coupling=coup,
        rest=rest,
        field=field,
        spin=spin,
        total=total,
    )


@dataclass(frozen=True)
class BaseQuadratures:
    """Unit-scale integrals of the base pair (psi_0 carrying lambda).

    n2        |grad psi_0|^2
    g2        |grad (x) A_0|^2
    g1v2      |(vhat . grad) A_0|^2
    m2        |A_0 psi_0|^2
    overlap   (psi_0, vhat . A_0 psi_0)
    spin      int <psi_0, sigma . curl A_0 psi_0>
    """

    n2: float
    g2: float
    g1v2: float
    m2: float
    overlap: float
    spin: float


def _base_integrals(grid: Grid, p: PhysParams, spec: TrialSpec) -> BaseQuadratures:
    """The base integrals, sampled at the dilation R of ``spec``.

    The amplitude and gauge factors are stripped, and the dilation
    covariance of each integral undoes the scale R.
    """
    R = spec.dilation
    env, a_scaled = _trial_raw(grid, p, dataclasses.replace(spec, amplitude=1.0))
    # strip the (c / Q) factor to recover the bare geometric A_0
    a0 = a_scaled * (p.charge / p.light_speed)

    dens = env ** 2
    grad_env = spectral.gradient(grid, env)
    n2 = R ** 2 * float(np.sum(np.abs(grad_env) ** 2)) * grid.cell

    a0_hat = grid.fft(a0)
    g2 = _parseval(grid, a0_hat, grid.k2) / R

    speed = p.speed
    vhat = p.v_arr / speed if speed > 0 else np.array([1.0, 0.0, 0.0])
    g1v2 = _parseval(grid, a0_hat, _vk_real(grid, vhat) ** 2) / R

    m2 = float(np.sum(np.sum(a0 ** 2, axis=0) * dens)) * grid.cell
    overlap = float(np.sum(np.tensordot(a0, vhat, axes=(0, 0)) * dens)) * grid.cell
    curl_z = grid.ifft(1j * (grid.k[0] * a0_hat[1] - grid.k[1] * a0_hat[0]), overwrite=True)
    spin = R * float(np.sum(curl_z.real * dens)) * grid.cell
    return BaseQuadratures(n2=n2, g2=g2, g1v2=g1v2, m2=m2, overlap=overlap, spin=spin)


def base_quadratures(grid: Grid, p: PhysParams, spec: TrialSpec | None = None) -> BaseQuadratures:
    """Measure the base integrals by sampling at the largest fitting scale.

    The integrals come from the shape of ``spec`` (the default shape when
    None) at the fitted dilation; ``effective_dilation`` reads them for
    R_a, and ``trial_energy_terms`` reads the same integrals, sampled at
    its own dilation, for the closed-form law.
    """
    ref = TrialSpec.fitted(grid, amplitude=1.0)
    if spec is not None:
        ref = dataclasses.replace(spec, dilation=ref.dilation)
    return _base_integrals(grid, p, ref)


def effective_dilation(p: PhysParams, base: BaseQuadratures, a: float) -> float:
    """Energy-balancing dilation R_a of the trial family,

    R_a = ( (2 hbar |Q| / a) sqrt(pi / m) |grad psi_0| )^(2/3)
          ( c^2 |grad A_0|^2 - |(v.grad) A_0|^2 )^(-1/3),

    at which the field cost matches the envelope kinetic cost and the
    energy law becomes a polynomial in powers of a alone.
    """
    w = p.light_speed ** 2 * base.g2 - p.speed ** 2 * base.g1v2
    if w <= 0:
        raise DomainGateError(
            "field quadratic form is not positive: outside the bounded-energy regime"
        )
    num = (2.0 * p.hbar * abs(p.charge) / a) * np.sqrt(np.pi / p.mass) * np.sqrt(base.n2)
    return num ** (2.0 / 3.0) * w ** (-1.0 / 3.0)


@dataclass(frozen=True)
class WitnessRow:
    amplitude: float
    dilation: float
    energy: float
    margin: float


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the negativity scan over the trial family."""

    found: bool
    amplitude: float | None
    dilation: float | None
    energy: float | None
    threshold: float
    best_margin: float
    slope_at_zero: float
    rows: tuple
    message: str


def negativity_witness(
    grid: Grid,
    p: PhysParams,
    spec: TrialSpec | None = None,
    num: int = 24,
) -> WitnessReport:
    """Scan the trial family along a -> (a, R_a) for energies below
    -(m v^2 / 2) lambda.

    The scan starts at the smallest amplitude whose balancing dilation
    still fits the box and increases a (shrinking R_a) until the bump
    falls under the resolution floor.  When the analytic slope at a = 0
    is negative yet no sampled point beats the threshold, the witness
    amplitude lies below the box-imposed cutoff: the report says so and
    quantifies the gap instead of manufacturing a pass.  The scan samples
    the boosted states, so a box whose dealias band does not hold the
    carrier m v / hbar raises DomainGateError; beyond that size the
    closed-form ``trial_energy_terms`` follows R_a instead.  A scan of
    fewer than one point (``num`` < 1) is refused with InputError.

    The carrier is sampled once per scan.  Each row's energy is the total
    of ``energy_functional(*trial_fields(...))`` to rounding, read from the
    transforms the sampler holds (``_witness_energy``): the spin-up block
    of psi, and the trial A projected once on its transform, from which
    the field term and T A are read with no round trip through real space.
    A row costs 11 scalar FFTs.
    """
    if num < 1:
        raise InputError(f"the scan needs at least one point, got num = {num}")
    speed_gate(p)
    if spec is None:
        spec = TrialSpec.fitted(grid, amplitude=1.0)
    base = base_quadratures(grid, p, spec)
    threshold = -0.5 * p.mass * p.speed ** 2 * p.lam

    r_cap = TrialSpec.fitted(grid, 1.0).dilation
    # R_a scales as a^(-2/3), so the amplitude that balances at R is
    # (R_1 / R)^(3/2), with R_1 the balancing dilation of a = 1
    r_one = effective_dilation(p, base, 1.0)
    a_min = (r_one / r_cap) ** 1.5
    a_max = (r_one / max(4.0 * grid.spacing, 1e-3 * r_cap)) ** 1.5

    carrier = _carrier(grid, p)
    rows = []
    found = False
    hit = None
    for a in np.geomspace(a_min, a_max, num):
        R = min(effective_dilation(p, base, a), r_cap)
        spec_a = dataclasses.replace(spec, amplitude=float(a), dilation=float(R))
        e = _witness_energy(grid, p, spec_a, carrier)
        rows.append(WitnessRow(float(a), float(R), float(e), float(e - threshold)))
        if not found and e < threshold:
            found = True
            hit = rows[-1]

    best = min(rows, key=lambda r: r.margin)
    slope = -p.speed * base.overlap
    if found:
        msg = (
            f"witness at a = {hit.amplitude:.6g}, R = {hit.dilation:.6g}: "
            f"E = {hit.energy:.6g} < {threshold:.6g}"
        )
    else:
        msg = (
            f"no witness on this box: best margin {best.margin:.3e} at "
            f"a = {best.amplitude:.3g} (dilation capped at {r_cap:.3g}; the "
            f"balancing dilation grows ~ 1/v^2, so enlarge the box to follow it "
            f"while the dealias band still holds the carrier, or evaluate "
            f"trial_energy_terms on a box sized from the balancing dilation)"
        )
    return WitnessReport(
        found=found,
        amplitude=hit.amplitude if found else None,
        dilation=hit.dilation if found else None,
        energy=hit.energy if found else None,
        threshold=threshold,
        best_margin=float(best.margin),
        slope_at_zero=float(slope),
        rows=tuple(rows),
        message=msg,
    )


# -- concentration --------------------------------------------------------------


def concentration_function(psi: SpinorField, radii) -> np.ndarray:
    """C(r) = sup_y integral of |psi|^2 over the (periodic) ball B(y, r).

    Evaluated for every radius by circular convolution of the density
    with the ball indicator; exact at grid resolution.
    """
    grid = psi.grid
    dens = psi.density()
    dens_hat = grid.fft(dens)
    dist = _periodic_dist(grid, (0.0, 0.0, 0.0))
    out = np.empty(len(radii), dtype=float)
    for i, r in enumerate(radii):
        ind = (dist <= r).astype(float)
        mass = np.real(grid.ifft(dens_hat * grid.fft(ind))) * grid.cell
        out[i] = float(np.max(mass))
    return out


def centering(psi: SpinorField, radius: float) -> np.ndarray:
    """Position maximizing the mass in a ball of the given radius."""
    grid = psi.grid
    dens = psi.density()
    dist = _periodic_dist(grid, (0.0, 0.0, 0.0))
    ind = (dist <= radius).astype(float)
    mass = np.real(grid.ifft(grid.fft(dens) * grid.fft(ind)))
    idx = np.unravel_index(int(np.argmax(mass)), grid.shape)
    ax = grid.axis_coords()
    return np.array([ax[idx[0]], ax[idx[1]], ax[idx[2]]])


# -- splitting -------------------------------------------------------------------


def _inner_profile(s: np.ndarray) -> np.ndarray:
    """1 on [0, 1], smooth descent to 0 on [1, 1.45]."""
    return 1.0 - _smoothstep((s - 1.0) / 0.45)


def _outer_profile(s: np.ndarray) -> np.ndarray:
    """0 on [0, 1.55], smooth ascent to 1 on [1.55, 2]."""
    return _smoothstep((s - 1.55) / 0.45)


@dataclass(frozen=True)
class SplitSpec:
    """Geometry of the inner/outer splitting.

    The wave function is cut at scales ``radius`` (inner) and
    2^(doublings-1) * radius (outer); both gauge cutoffs act at
    2^(gauge_level-1) * radius.  ``gauge_level = None`` picks the level
    whose transition shell carries the smallest L^6 mass of A, scanning
    {2, ..., doublings-2} when that range is nonempty (the nesting
    identities chi_A chi_psi = chi_psi then hold with room to spare) and
    {1, ..., doublings-1} otherwise.
    """

    center: tuple
    radius: float
    doublings: int = 3
    gauge_level: int | None = None

    def __post_init__(self):
        if self.radius <= 0:
            raise InputError("split radius must be positive")
        if self.doublings < 2:
            raise InputError("need at least two doublings to separate the scales")
        if self.gauge_level is not None and not (
            1 <= self.gauge_level <= self.doublings - 1
        ):
            raise InputError("gauge_level must lie in {1, ..., doublings-1}")


@dataclass(frozen=True)
class SplitPieces:
    psi_in: SpinorField
    A_in: VectorField
    psi_out: SpinorField
    A_out: VectorField
    u_in: np.ndarray
    u_out: np.ndarray
    gauge_level: int


def _periodic_dist(grid: Grid, center) -> np.ndarray:
    x, y, z = grid.coords()
    L = grid.box_l
    d = []
    for c, w in zip(center, (x, y, z)):
        raw = np.abs(w - c) % L
        d.append(np.minimum(raw, L - raw))
    return np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)


def _pick_gauge_level(grid: Grid, A: np.ndarray, spl: SplitSpec, dist: np.ndarray) -> int:
    if spl.gauge_level is not None:
        return spl.gauge_level
    candidates = list(range(2, spl.doublings - 1)) or list(range(1, spl.doublings))
    a_mag6 = np.sum(A ** 2, axis=0) ** 3
    best, best_val = candidates[0], np.inf
    for m in candidates:
        lo, hi = 2 ** (m - 1) * spl.radius, 2 ** m * spl.radius
        shell = (dist >= lo) & (dist <= hi)
        val = float(np.sum(a_mag6[shell])) * grid.cell
        if val < best_val:
            best, best_val = m, val
    return best


def split_fields(grid: Grid, p: PhysParams, psi, A, spl: SplitSpec) -> SplitPieces:
    """Cut (psi, A) into gauge-covariant inner and outer pieces.

    Each piece uses the gradient part of the cut vector potential to
    re-gauge the wave function,

        u_l = poisson_solve(div(chi_l A)),
        psi_l = exp(i Q u_l / hbar c) chi_l^psi psi,
        A_l = chi_l^A A + grad u_l,

    which keeps A_l exactly solenoidal and cancels the worst cutoff
    artifacts in the covariant derivative.
    """
    psi_a = as_array(psi)
    A_a = as_array(A)
    if 2 ** spl.doublings * spl.radius > 0.5 * grid.box_l + 1e-9:
        raise DomainGateError(
            "outer cutoff does not complete inside the box: reduce radius or doublings"
        )
    dist = _periodic_dist(grid, spl.center)
    m = _pick_gauge_level(grid, A_a, spl, dist)

    chi_psi_in = _inner_profile(dist / spl.radius)
    chi_psi_out = _outer_profile(dist / (2 ** (spl.doublings - 1) * spl.radius))
    ga_scale = 2 ** (m - 1) * spl.radius
    chi_a_in = _inner_profile(dist / ga_scale)
    chi_a_out = _outer_profile(dist / ga_scale)

    pieces = []
    for chi_a, chi_p in ((chi_a_in, chi_psi_in), (chi_a_out, chi_psi_out)):
        cut = chi_a * A_a
        # strip Nyquist planes so the Poisson gauge fix below cancels the
        # divergence exactly (odd multipliers are lossy on those planes)
        cut = np.real(grid.ifft(grid.fft(cut) * grid.nyquist_mask, overwrite=True))
        u = spectral.poisson_solve(grid, spectral.divergence(grid, cut))
        a_piece = cut + spectral.gradient(grid, u).real
        phase = np.exp(1j * p.charge / (p.hbar * p.light_speed) * u)
        psi_piece = phase * chi_p * psi_a
        pieces.append((psi_piece, a_piece, u))

    (psi_i, a_i, u_i), (psi_o, a_o, u_o) = pieces
    return SplitPieces(
        psi_in=SpinorField(grid, psi_i),
        A_in=VectorField(grid, a_i),
        psi_out=SpinorField(grid, psi_o),
        A_out=VectorField(grid, a_o),
        u_in=u_i,
        u_out=u_o,
        gauge_level=m,
    )


@dataclass(frozen=True)
class SplitReport:
    energy: float
    energy_in: float
    energy_out: float
    defect: float
    rel_defect: float
    mass: float
    mass_in: float
    mass_out: float
    mass_defect: float
    gauge_level: int


def split_energy_check(grid: Grid, p: PhysParams, psi, A, spl: SplitSpec) -> SplitReport:
    """Compare E(psi, A) against E(inner) + E(outer)."""
    pieces = split_fields(grid, p, psi, A, spl)
    e = energy_functional(grid, p, psi, A).total
    e_i = energy_functional(grid, p, pieces.psi_in, pieces.A_in).total
    e_o = energy_functional(grid, p, pieces.psi_out, pieces.A_out).total
    defect = e_i + e_o - e
    mass = l2_norm_sq(grid, as_array(psi))
    m_i = l2_norm_sq(grid, pieces.psi_in.data)
    m_o = l2_norm_sq(grid, pieces.psi_out.data)
    return SplitReport(
        energy=e,
        energy_in=e_i,
        energy_out=e_o,
        defect=defect,
        rel_defect=abs(defect) / max(abs(e), np.finfo(float).tiny),
        mass=mass,
        mass_in=m_i,
        mass_out=m_o,
        mass_defect=mass - m_i - m_o,
        gauge_level=pieces.gauge_level,
    )


# -- Coulomb-type lower bound -----------------------------------------------------


def coulomb_double_integral(grid: Grid, psi) -> float:
    """The density self-interaction  integral rho(x) rho(y) / |x-y|,

    realized on the torus through the zero-mean Green's function of the
    Laplacian: 4 pi <rho, u> with -lap u = rho - mean(rho).
    """
    psi_a = component_array(grid, psi, 2, "psi")
    dens = np.sum(np.abs(psi_a) ** 2, axis=0)
    u = spectral.poisson_solve(grid, dens)
    return 4.0 * np.pi * float(np.real(np.sum(dens * u)) * grid.cell)


@dataclass(frozen=True)
class CoulombReport:
    energy: float
    bound: float
    double_integral: float
    slack: float

    @property
    def holds(self) -> bool:
        return self.slack >= -1e-10 * max(1.0, abs(self.bound))


def coulomb_lower_bound(grid: Grid, p: PhysParams, psi, A, total: float | None = None) -> CoulombReport:
    """Check  E >= -Q^2 v^2/(c^2 - v^2) * self-interaction - (m v^2/2) lam."""
    if total is None:
        total = energy_functional(grid, p, psi, A).total
    I = coulomb_double_integral(grid, psi)
    v2 = p.speed ** 2
    bound = (
        -p.charge ** 2 * v2 / (p.light_speed ** 2 - v2) * I
        - 0.5 * p.mass * v2 * p.lam
    )
    return CoulombReport(energy=total, bound=bound, double_integral=I, slack=total - bound)


# -- velocity sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    speed: float
    energy_var: float
    energy_trav: float
    excess: float
    theta: float
    omega: float
    converged: bool
    iterations: int
    residual_psi: float
    residual_a: float


@dataclass(frozen=True)
class SweepResult:
    """Small-velocity energy law fit E_trav ~ alpha v^2 + beta |v|^3.

    ``alpha``, ``beta`` and ``fit_residual`` are NaN when the points do not
    determine the fit: it needs two nonzero speeds of distinct magnitude.
    """

    points: tuple
    alpha: float
    beta: float
    fit_residual: float
    alpha_target: float


def mass_sweep(
    grid: Grid,
    p: PhysParams,
    speeds,
    direction=(1.0, 0.0, 0.0),
    config: MinimizeConfig | None = None,
) -> SweepResult:
    """Minimize at each speed and fit the travelling energy law.

    The quadratic coefficient of E_trav(v) is compared against the
    effective-mass prediction m lambda / 2; the fit is least squares on
    the model alpha v^2 + beta |v|^3 through the origin, NaN when fewer
    than two nonzero speeds of distinct magnitude leave its design of
    rank < 2 (no speeds, one, or repeats), where any alpha would fit
    exactly.  A direction
    that is not a finite nonzero 3-vector, or a speed that is not finite,
    is refused with InputError before any solve.
    """
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if direction.shape != (3,) or not (np.isfinite(norm) and norm > 0):
        raise InputError(f"direction must be a finite nonzero 3-vector, got {direction.tolist()}")
    if not np.all(np.isfinite(np.asarray(speeds, dtype=float))):
        raise InputError(f"speeds must be finite, got {np.asarray(speeds, dtype=float).tolist()}")
    direction = direction / norm
    pts = []
    for s in speeds:
        ps = p.with_(v=tuple(s * direction))
        rep = minimize(grid, ps, config=config)
        etrav = travelling_energy(grid, ps, rep.psi, rep.A)
        pts.append(
            SweepPoint(
                speed=float(s),
                energy_var=rep.energy,
                energy_trav=float(etrav),
                excess=rep.energy + 0.5 * p.mass * s ** 2 * p.lam,
                theta=rep.theta,
                omega=rep.omega,
                converged=rep.converged,
                iterations=rep.iterations,
                residual_psi=rep.residual_psi,
                residual_a=rep.residual_a,
            )
        )
    v = np.array([q.speed for q in pts])
    e = np.array([q.energy_trav for q in pts])
    design = np.stack([v ** 2, np.abs(v) ** 3], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, e, rcond=None)
    resid = float(np.linalg.norm(design @ coef - e))
    if rank < 2:
        coef, resid = (np.nan, np.nan), np.nan
    return SweepResult(
        points=tuple(pts),
        alpha=float(coef[0]),
        beta=float(coef[1]),
        fit_residual=resid,
        alpha_target=0.5 * p.mass * p.lam,
    )


__all__ = [
    "TrialSpec",
    "trial_fields",
    "TrialEnergyTerms",
    "trial_energy_terms",
    "BaseQuadratures",
    "base_quadratures",
    "effective_dilation",
    "WitnessRow",
    "WitnessReport",
    "negativity_witness",
    "concentration_function",
    "centering",
    "SplitSpec",
    "SplitPieces",
    "split_fields",
    "SplitReport",
    "split_energy_check",
    "coulomb_double_integral",
    "CoulombReport",
    "coulomb_lower_bound",
    "SweepPoint",
    "SweepResult",
    "mass_sweep",
]
