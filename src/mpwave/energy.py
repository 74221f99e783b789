"""Energy functionals, velocity thresholds, and a-priori bounds.

The variational energy of a state (psi, A) moving at velocity v is

    E = (1/2m) |grad_{j,A} psi|^2
        + (1/8 pi) ( |grad A|^2 - |((v/c).grad) A|^2 )
        + (psi, i hbar (v.grad) psi),

where grad_{j,A} is the plain covariant gradient for the scalar model
("S") and the spin-coupled one for model "P".  Completing the square in
the boost direction gives the equivalent "shifted" form

    E = (1/2m) |grad_{j,A+(mc/Q)v} psi|^2 - (Q/c)(psi, v.A psi)
        - (m v^2 / 2) |psi|^2
        + (1/8 pi) ( |grad A|^2 - |((v/c).grad) A|^2 ),

and because every gauge product in this package goes through the same
self-adjoint dealiased multiply, the two forms agree to rounding error
for arbitrary grid fields -- not just in the continuum limit.  The
coupling term is evaluated with the filtered density accordingly.

Every quadratic term is read from transforms by Parseval, in the same
grid inner product h^3 sum |f|^2 = (h^3 / n^3) sum |f_hat|^2: the kinetic
norms from the transform of K psi, the drift and the field term from
psi_hat and A_hat weighted by their Fourier symbols.
"""
from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from . import pauli, spectral
from .errors import DomainGateError
from .fields import PhysParams, _re_dot, _spin_up, component_array, l2_norm_sq
from .grid import Grid

#: Best constant in the Sobolev inequality |f|_{L^6} <= K_S |grad f|_{L^2}
#: on R^3, equal to (3 pi)^(-1/2) (4 / sqrt(pi))^(1/3).
K_SOBOLEV = 4.0 ** (1.0 / 3.0) / (np.sqrt(3.0) * np.pi ** (2.0 / 3.0))


def sobolev_constant() -> float:
    """Sharp constant K_S of the L^6 Sobolev embedding on R^3."""
    return K_SOBOLEV


@dataclass(frozen=True)
class EnergyBreakdown:
    """Termwise values of the variational energy (direct and shifted form)."""

    kinetic: float
    field: float
    drift: float
    total: float
    kinetic_shifted: float
    coupling: float
    rest: float
    total_shifted: float
    mass_constraint: float  # measured |psi|_{L^2}^2

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _vk(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Fourier symbol v.k of the directional derivative -i (v.grad) of
    psi, read by the drift and the psi-gradient; A reads ``_wave_symbol``."""
    kx, ky, kz = grid.k
    return v[0] * kx + v[1] * ky + v[2] * kz


def _k_real(grid: Grid) -> np.ndarray:
    """The wavenumbers of one axis for the derivative of a real field,
    whose real part the inverse transform keeps: the Nyquist entry is
    zeroed, where the odd multiplier i k has no real counterpart."""
    k1 = grid.k[0][:, 0, 0].copy()
    k1[grid.n // 2] = 0.0
    return k1


def _vk_real(grid: Grid, v: np.ndarray) -> np.ndarray:
    """v.k for the derivative of a real field (``_k_real``)."""
    k1 = _k_real(grid)
    return v[0] * k1[:, None, None] + v[1] * k1[None, :, None] + v[2] * k1[None, None, :]


def _wave_symbol(grid: Grid, p: PhysParams) -> np.ndarray:
    """Fourier symbol k^2 - (v.k)^2 / c^2 of the travelling wave operator
    on real fields A, with the convective v.k of ``_vk_real``.

    The A-operator, its preconditioner, the residual's A side, ``grad_A``
    and the field energy read this one symbol.  Positive away from k = 0
    whenever |v| < c; vanishes identically at the zero mode, which is why
    that mode is frozen throughout.
    """
    return grid.k2 - _vk_real(grid, p.v_arr) ** 2 / p.light_speed ** 2


def _parseval(grid: Grid, uh: np.ndarray, wh: np.ndarray | None = None) -> float:
    """Grid inner product Re <u, w> = h^3 Re sum conj(u) w
    = (h^3 / n^3) Re sum conj(u_hat) w_hat read from the transforms, or
    the norm |u|^2 when ``wh`` is None: the one place the Parseval weight
    is applied.  A norm weighted by a real symbol s, sum s |u_hat|^2, passes
    ``s * uh`` as ``wh``.  The sum is ``fields._re_dot``, a BLAS dot."""
    return _re_dot(uh, wh) * (grid.cell / grid.n ** 3)


def _em_energy(grid: Grid, p: PhysParams, a_hat: np.ndarray) -> float:
    """``field_energy`` of A and (v.grad) A from the transform ``a_hat`` of
    A by Parseval, with the derivatives of a real field (``_k_real``), read
    as 1-D broadcasts."""
    k1 = _k_real(grid)
    kx, ky, kz = k1[:, None, None], k1[None, :, None], k1[None, None, :]
    curl_sq = (
        _parseval(grid, ky * a_hat[2] - kz * a_hat[1])
        + _parseval(grid, kz * a_hat[0] - kx * a_hat[2])
        + _parseval(grid, kx * a_hat[1] - ky * a_hat[0])
    )
    conv_sq = _parseval(grid, a_hat, _vk_real(grid, p.v_arr) ** 2 * a_hat) / p.light_speed ** 2
    return (curl_sq + conv_sq) / (8.0 * np.pi)


def _field_part(grid: Grid, p: PhysParams, a_hat: np.ndarray) -> float:
    """Field term (1/8 pi) ( |grad A|^2 - |((v/c).grad) A|^2 ) of the energy,
    from the transform ``a_hat`` of A weighted by the wave symbol."""
    return _parseval(grid, a_hat, _wave_symbol(grid, p) * a_hat) / (8.0 * np.pi)


def _field_band(grid: Grid, p: PhysParams, A: np.ndarray) -> tuple:
    """A_hat, T A and the field term of the real field A, from one forward
    FFT; (None, None, 0.0) for an all-zero A, the field-free record's."""
    a_hat, a_low = pauli._a_band(grid, A)
    return a_hat, a_low, 0.0 if a_hat is None else _field_part(grid, p, a_hat)


def _kinetic(grid: Grid, p: PhysParams, kpsi_hat: np.ndarray) -> float:
    """Kinetic term |K psi|^2 / 2m of the model ``p`` names, from K psi_hat."""
    return _parseval(grid, kpsi_hat) / (2.0 * p.mass)


def _drift(grid: Grid, p: PhysParams, psi_hat: np.ndarray) -> float:
    """Drift term (psi, i hbar (v.grad) psi) = -hbar sum (v.k) |psi_hat|^2
    (Parseval); 0 at rest."""
    if not np.any(p.v_arr):
        return 0.0
    return -p.hbar * _parseval(grid, psi_hat, _vk(grid, p.v_arr) * psi_hat)


def field_energy(grid: Grid, p: PhysParams, A, Adot) -> float:
    """Electromagnetic energy (1/8 pi) ( |curl A|^2 + |Adot / c|^2 )."""
    A = component_array(grid, A, 3, "A")
    Adot = component_array(grid, Adot, 3, "Adot")
    curl_sq = l2_norm_sq(grid, spectral.curl(grid, A))
    dot_sq = l2_norm_sq(grid, Adot) / p.light_speed ** 2
    return (curl_sq + dot_sq) / (8.0 * np.pi)


def energy_functional(grid: Grid, p: PhysParams, psi, A) -> EnergyBreakdown:
    """Evaluate the variational energy and its shifted decomposition.

    A psi whose spin-down component is exactly zero is evaluated on its
    spin-up block (``fields._spin_up``), for both models: with a field 11
    scalar FFTs for model S and 10 for P, 2 at A = 0.
    """
    psi = _spin_up(component_array(grid, psi, 2, "psi"))
    a_low, field = _field_band(grid, p, component_array(grid, A, 3, "A"))[1:]
    return _energy(grid, p, pauli.kinetic_state(grid, p, psi, a_low), field)


def _energy(grid: Grid, p: PhysParams, st: pauli.KineticState, field: float) -> EnergyBreakdown:
    """``energy_functional`` of the record ``st`` and the field term
    ``field``, with no transform; |psi|^2 is the Parseval sum of
    ``st.psi_hat``.  The shifted form adds the boost into ``st.kpsi_hat``
    in place, so this is the record's last reader."""
    v = p.v_arr
    # the shifted form sees A + (mc/Q) v; a constant cannot alias, so it
    # multiplies psi directly, shifting K psi_hat in place
    boost = (p.charge / p.light_speed) * (p.mass * p.light_speed / p.charge * v)
    kpsi_hat = st.kpsi_hat
    kinetic = _kinetic(grid, p, kpsi_hat)
    if p.model == "P":
        kpsi_hat += pauli._sigma_mul(boost, st.psi_hat)
    else:
        for a in range(3):
            kpsi_hat[a] += boost[a] * st.psi_hat
    kinetic_sh = _kinetic(grid, p, kpsi_hat)
    drift = _drift(grid, p, st.psi_hat)

    coupling = 0.0
    if st.a_low is not None:
        dens_low = np.sum(np.abs(st.psi_low) ** 2, axis=0)
        coupling = -(p.charge / p.light_speed) * float(
            grid.integrate(dens_low * np.tensordot(st.a_low, v, axes=(0, 0)))
        )

    lam_meas = _parseval(grid, st.psi_hat)
    rest = -0.5 * p.mass * float(v @ v) * lam_meas

    total = kinetic + field + drift
    total_shifted = kinetic_sh + coupling + rest + field
    return EnergyBreakdown(
        kinetic=kinetic,
        field=field,
        drift=drift,
        total=total,
        kinetic_shifted=kinetic_sh,
        coupling=coupling,
        rest=rest,
        total_shifted=total_shifted,
        mass_constraint=lam_meas,
    )


def travelling_energy(grid: Grid, p: PhysParams, psi, A) -> float:
    """Energy carried by the travelling wave,

    E_trav = (1/2m)|grad_{j,A} psi|^2
             + lambda (1/8 pi)( |curl A|^2 + |((v/c).grad) A|^2 ).

    Note the plus sign on the convective term and the mass-constraint
    factor on the field part, in contrast with the variational energy.
    A spin-up psi is evaluated on its block, as in ``energy_functional``.
    """
    a_hat, a_low = pauli._a_band(grid, component_array(grid, A, 3, "A"))
    st = pauli.kinetic_state(grid, p, _spin_up(component_array(grid, psi, 2, "psi")), a_low)
    field = 0.0 if a_hat is None else _em_energy(grid, p, a_hat)
    return _kinetic(grid, p, st.kpsi_hat) + p.lam * field


def theta_thresholds(p: PhysParams) -> tuple[float, float]:
    """Velocity window (Theta_-, Theta_+) for boundedness from below."""
    c = p.light_speed
    if p.model == "S":
        return (-c, c)
    b = 8.0 * np.pi * K_SOBOLEV ** 3 * p.charge ** 2 * p.lam / p.hbar
    root = np.sqrt(b * b + c * c)
    return (-b - root, -b + root)


def speed_gate(p: PhysParams) -> tuple[float, float]:
    """Validate |v| against the admissible window, returning (lo, hi).

    Raises DomainGateError when |v| >= Theta_+; a zero velocity is let
    through with a warning since several quantities (thresholds, some
    bounds) degenerate there.
    """
    lo, hi = theta_thresholds(p)
    speed = p.speed
    if speed >= hi:
        raise DomainGateError(
            f"|v| = {speed:.6g} is not below the admissible threshold {hi:.6g} "
            f"for model {p.model}"
        )
    if speed == 0.0:
        warnings.warn(
            "v = 0: travelling-wave analysis degenerates to the static problem",
            stacklevel=2,
        )
    return (lo, hi)


def carrier_gate(grid: Grid, p: PhysParams, lattice: bool = False) -> np.ndarray:
    """Boost carrier m v / hbar in lattice units 2 pi / L, checked
    against the dealias band.

    A carrier component beyond ``mode_cut`` lattice steps cannot be
    represented in the lab frame: sampled on the grid it aliases onto
    another wavenumber, and the energy of the state is then the energy
    of a different boost.  Raises DomainGateError in that case.  With
    ``lattice`` the modes are rounded to the reciprocal lattice before
    the check, for samplers that use the rounded carrier; otherwise
    they are returned unrounded.
    """
    dk = 2.0 * np.pi / grid.box_l
    modes = p.mass * p.v_arr / (p.hbar * dk)
    if lattice:
        modes = np.round(modes)
    if np.max(np.abs(modes)) > grid.mode_cut + 1e-9:
        raise DomainGateError(
            f"carrier m v / hbar = {p.mass * p.speed / p.hbar:.6g} lies outside the "
            f"dealias band |k| <= {grid.mode_cut * dk:.6g} of the n = {grid.n}, "
            f"L = {grid.box_l:g} grid; shrink the box or refine the grid"
        )
    return modes


@dataclass(frozen=True)
class BoundCheck:
    """One inequality: measured left side, computed right side."""

    lhs: float
    rhs: float
    applicable: bool

    @property
    def holds(self) -> bool:
        return (not self.applicable) or self.lhs <= self.rhs


@dataclass(frozen=True)
class AprioriBounds:
    """A-priori bounds evaluated on a concrete state.

    ``low_field_regime`` is True when |grad A| lies strictly below the
    case-splitting threshold; ``field_bound`` applies always, the first
    density bound only in the low-field regime and the second only in the
    complementary one.
    """

    low_field_regime: bool
    case_threshold: float
    grad_a_norm: float
    psi_l6: float
    excess: float
    field_bound: BoundCheck
    density_bound_low: BoundCheck
    density_bound_high: BoundCheck

    @property
    def all_hold(self) -> bool:
        return (
            self.field_bound.holds
            and self.density_bound_low.holds
            and self.density_bound_high.holds
        )


def psi_l6_norm(grid: Grid, psi) -> float:
    """L^6 norm of the pointwise spinor magnitude."""
    psi = component_array(grid, psi, 2, "psi")
    dens = np.sum(np.abs(psi) ** 2, axis=0)
    return float(grid.integrate(dens ** 3)) ** (1.0 / 6.0)


def apriori_bounds(
    grid: Grid, p: PhysParams, psi, A, total: float | None = None
) -> AprioriBounds:
    """Check the universal field/density bounds on a given state.

    ``total`` may pass in a precomputed variational energy; otherwise it
    is evaluated here.  All bounds are expressed through the energy excess
    E + (m v^2 / 2) lambda, which is nonnegative whenever the lower bound
    theory applies.
    """
    speed_gate(p)
    if p.speed == 0.0:
        raise DomainGateError("a-priori bounds are stated for 0 < |v| only")
    psi = component_array(grid, psi, 2, "psi")
    A = component_array(grid, A, 3, "A")
    if total is None:
        total = energy_functional(grid, p, psi, A).total
    a_hat = grid.fft(A)
    return _apriori(grid, p, psi, np.sqrt(_parseval(grid, a_hat, grid.k2 * a_hat)), total)


def _apriori(grid: Grid, p: PhysParams, psi: np.ndarray, grad_a: float,
             total: float) -> AprioriBounds:
    """``apriori_bounds`` of psi past its speed gates, from |grad A| =
    ``grad_a`` and the variational energy ``total``."""
    c = p.light_speed
    v2 = p.speed ** 2
    lam = p.lam
    K = K_SOBOLEV
    lo, hi = theta_thresholds(p)
    gap = (hi - p.speed) * (p.speed - lo)
    c2mv2 = c * c - v2

    psi6 = psi_l6_norm(grid, psi)
    excess = total + 0.5 * p.mass * v2 * lam

    case_threshold = (
        16.0 * np.pi * K * c * abs(p.charge) * lam ** 0.75 * p.speed / c2mv2 * psi6 ** 0.5
    )
    low = grad_a < case_threshold

    rhs_a = (
        2.0 ** 8 * np.pi ** 3 * K ** 6 * c ** 2 * p.charge ** 4 * p.mass * lam ** 3
        * v2 ** 2 / (p.hbar ** 2 * c2mv2 ** 2 * gap)
        + 16.0 * np.pi * c ** 2 / c2mv2 * excess
    )
    field_bound = BoundCheck(lhs=grad_a ** 2, rhs=rhs_a, applicable=True)

    rhs_low = (
        4.0 * p.mass * K ** 2 / p.hbar ** 2 * c2mv2 / gap * excess
        + 2.0 ** 6 * np.pi ** 2 * K ** 8 * p.charge ** 4 * p.mass ** 2 * lam ** 3
        * v2 ** 2 / (p.hbar ** 4 * gap ** 2)
    )
    density_bound_low = BoundCheck(lhs=psi6 ** 2, rhs=rhs_low, applicable=low)

    rhs_high = c2mv2 / (16.0 * np.pi * K ** 2 * p.charge ** 2 * lam ** 1.5 * v2) * excess
    density_bound_high = BoundCheck(lhs=psi6, rhs=rhs_high, applicable=not low)

    return AprioriBounds(
        low_field_regime=low,
        case_threshold=case_threshold,
        grad_a_norm=grad_a,
        psi_l6=psi6,
        excess=excess,
        field_bound=field_bound,
        density_bound_low=density_bound_low,
        density_bound_high=density_bound_high,
    )


__all__ = [
    "K_SOBOLEV",
    "sobolev_constant",
    "EnergyBreakdown",
    "field_energy",
    "energy_functional",
    "travelling_energy",
    "theta_thresholds",
    "speed_gate",
    "carrier_gate",
    "BoundCheck",
    "AprioriBounds",
    "psi_l6_norm",
    "apriori_bounds",
]
