"""Constrained minimization of the travelling-wave energy.

The functional is minimized over pairs (psi, A) with |psi|^2 = lambda and
div A = 0 by alternating two moves:

* psi: kinetic-preconditioned descent on the sphere.  The raw gradient
  G = (1/2m) lap_{j,A} psi + i hbar (v.grad) psi is projected on the
  tangent space of the constraint (which is exactly Gt = G + hbar theta
  psi with the standard multiplier theta).  The spectral multiplier
  P = (alpha + hbar^2 k^2 / 2m)^-1, with alpha the kinetic energy per
  unit mass of the current state, equalizes the kinetic spectrum; P Gt
  projected back on the tangent space is the search direction d.  The
  step length is Barzilai-Borwein in the metric of P, the iterate is
  pulled back by renormalization, and an Armijo backtracking guard keeps
  the energy monotone (Antoine, Levitt & Tang, J. Comput. Phys. 343
  (2017); Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20 (1998)).

* A: the energy is an inhomogeneous positive-definite quadratic in A at
  fixed psi, so the subproblem is solved essentially exactly by
  preconditioned conjugate gradients in Fourier space, on the transform
  of the (3, n, n, n) stack A; each stage of the operator (the band
  limit of A, its products with T psi, the pairing) is one transform
  call on a whole stack.  The
  preconditioner is the inverse of the operator's diagonal at a uniform
  density: the wave symbol / 4 pi shifted by the diamagnetic mean field
  (Q^2 / m c^2) rho_bar, the counterpart for A of the psi shift.  A is
  solved where the run reads it: at the start, before each stationarity
  check and at the polish.

On a periodic box the average of the gauge current need not vanish while
the wave operator k^2 - (v.k)^2/c^2 kills the k = 0 mode, so the zeroth
Fourier coefficient of A is frozen at zero and the stationarity residual
for A is measured on the k != 0 modes only.  The leftover k = 0 forcing
is reported separately as ``current_defect``; it is a property of the
finite box, not of the optimizer.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import energy as energy_mod
from . import pauli, spectral
from .energy import (
    EnergyBreakdown,
    _drift,
    _field_band,
    _kinetic,
    _vk,
    carrier_gate,
    energy_functional,
    field_energy,
    speed_gate,
)
from .errors import InputError, SolverError
from .fields import (
    PhysParams,
    SpinorField,
    VectorField,
    as_array,
    component_array,
    inner,
    l2_norm_sq,
    normalize_to_lambda,
    random_fields,
)
from .grid import Grid

logger = logging.getLogger(__name__)


def grad_psi(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """First variation of the energy in psi-bar (unconstrained),

    G = (1/2m) lap_{j,A} psi + i hbar (v.grad) psi,

    so that dE[delta] = 2 Re <G, delta>.  Both terms are summed in
    spectral space, the drift as -hbar (v.k) psi_hat, before one inverse
    transform.  The solver reads the same G from the ``KineticState`` of
    its energy evaluation (``_gradient``).
    """
    return _gradient(grid, p, pauli._state(grid, p, psi, A))


def _gradient(grid: Grid, p: PhysParams, st: pauli.KineticState) -> np.ndarray:
    """``grad_psi`` of the state whose record is ``st``."""
    out_hat = pauli._laplacian_hat(grid, p, st)
    out_hat /= 2.0 * p.mass
    if np.any(p.v_arr):
        out_hat -= p.hbar * _vk(grid, p.v_arr) * st.psi_hat
    return grid.ifft(out_hat, overwrite=True)


def _psi_energy(grid: Grid, p: PhysParams, st: pauli.KineticState) -> float:
    """Kinetic + drift of the record ``st``: the energy less its field term."""
    return _kinetic(grid, p, st.kpsi_hat) + _drift(grid, p, st.psi_hat)


def lagrange_theta(grid: Grid, p: PhysParams, psi, A) -> float:
    """Multiplier of the mass constraint at (psi, A),

    theta = -( |grad_{j,A} psi|^2 / 2m + (psi, i hbar v.grad psi) )
            / (hbar |psi|^2).

    The measured norm |psi|^2 is used rather than the nominal lambda, so
    the tangency identity <psi, G + hbar theta psi> = 0 is exact even for
    slightly off-constraint states.
    """
    psi_a = as_array(psi)
    e_psi = _psi_energy(grid, p, pauli._state(grid, p, psi_a, A))
    return -e_psi / (p.hbar * l2_norm_sq(grid, psi_a))


def _tangent(
    grid: Grid, p: PhysParams, psi: np.ndarray, G: np.ndarray, lam_meas: float
) -> tuple[np.ndarray, float]:
    """G + hbar theta psi and theta, the multiplier that makes the sum
    tangent to the mass sphere at psi, whose measured |psi|^2 is
    ``lam_meas``."""
    theta = -float(np.real(np.sum(np.conj(psi) * G)) * grid.cell) / (p.hbar * lam_meas)
    return G + p.hbar * theta * psi, theta


def omega_from_theta(grid: Grid, p: PhysParams, A, theta: float) -> float:
    """Phase frequency omega = E_EM[A, (v.grad)A] / hbar - theta."""
    A_a = as_array(A)
    if not np.any(A_a):
        return -theta
    adot = spectral.directional_derivative(grid, A_a, p.v_arr)
    return field_energy(grid, p, A_a, adot) / p.hbar - theta


def grad_A(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """First variation of the energy in A against solenoidal test fields,

    grad_A = P[ -(1/c) J_j - (1/4 pi) lap A + (1/4 pi c^2) (v.grad)^2 A ].

    The k = 0 component carries (-1/c) times the mean current; on the
    torus it cannot be relaxed by any admissible A and is excluded from
    the stationarity residual.
    """
    psi = as_array(psi)
    A = as_array(A)
    cur = pauli.current(grid, p, psi, A)
    lin_hat = grid.fft(A) * energy_mod._wave_symbol(grid, p)
    out = -cur / p.light_speed + np.real(grid.ifft(lin_hat, overwrite=True)) / (4.0 * np.pi)
    return spectral.helmholtz_project(grid, out)


@dataclass(frozen=True)
class ELResidual:
    """Dimensionless stationarity diagnostics for a state (psi, A)."""

    psi_raw: float
    psi_scale: float
    psi_rel: float
    a_raw: float
    a_scale: float
    a_rel: float
    current_defect: float
    theta: float

    @property
    def max_rel(self) -> float:
        return max(self.psi_rel, self.a_rel)


def el_residual(grid: Grid, p: PhysParams, psi, A) -> ELResidual:
    """Residuals of the stationarity system at (psi, A).

    psi-side: |(1/2m) lap_{j,A} psi + hbar theta psi + i hbar v.grad psi|
    relative to the size of its constituents; A-side: analogous for the
    wave equation with the k = 0 mode split off into ``current_defect``
    (reported as (4 pi / c) |mean J|).  Both read one ``KineticState``.
    """
    psi_a = as_array(psi)
    A_a = as_array(A)
    st = pauli._state(grid, p, psi_a, A_a)
    return _residual(grid, p, psi_a, A_a, _gradient(grid, p, st), st)


def _residual(
    grid: Grid, p: PhysParams, psi_a: np.ndarray, A_a: np.ndarray, G: np.ndarray,
    st: pauli.KineticState,
) -> ELResidual:
    """``el_residual`` for a caller that already holds G = grad_psi(psi, A)
    and the KineticState ``st`` of (psi, A)."""
    lam_meas = l2_norm_sq(grid, psi_a)
    resid, theta = _tangent(grid, p, psi_a, G, lam_meas)
    psi_raw = np.sqrt(l2_norm_sq(grid, resid))
    del resid  # not held through the A-side, where el_residual peaks
    # exactly flat states (constant psi, vanishing current) leave every
    # term at rounding scale; flooring the denominators by the weakest
    # signal the box can carry turns 0/0 noise into a ~0 report
    k_min = 2.0 * np.pi / grid.box_l
    psi_floor = p.hbar ** 2 * k_min ** 2 / (2.0 * p.mass) * np.sqrt(lam_meas)
    psi_scale = max(
        np.sqrt(l2_norm_sq(grid, G)) + abs(p.hbar * theta) * np.sqrt(lam_meas),
        psi_floor,
    )
    psi_rel = psi_raw / psi_scale if psi_scale > 0 else 0.0

    # (4 pi / c) P J_hat from the record; its k = 0 mode is the mean drive
    coef = -4.0 * np.pi * p.charge / (p.mass * p.light_speed)
    rhs_hat = spectral.project_hat(grid, coef * pauli._pair_hat(grid, p, st))
    if np.any(A_a):
        lhs_hat = grid.fft(A_a) * energy_mod._wave_symbol(grid, p)
    else:
        lhs_hat = np.zeros_like(rhs_hat)
    mask = grid.k2 > 0
    norm = lambda fh: np.sqrt(float(np.sum(np.abs(fh) ** 2)) * grid.cell / grid.n ** 3)
    a_raw = norm((lhs_hat - rhs_hat) * mask)
    # scale against the full source (k = 0 included) so delocalised states
    # with a pure mean current do not degenerate to 0/0, floored by the
    # drive a unit-mass plane wave on the largest scale would produce
    a_floor = (
        4.0 * np.pi * abs(p.charge) * p.hbar * k_min * lam_meas
        / (p.mass * p.light_speed * grid.box_l ** 1.5)
    )
    a_scale = max(norm(lhs_hat * mask) + norm(rhs_hat), a_floor)
    a_rel = a_raw / a_scale if a_scale > 0 else 0.0

    defect = float(np.linalg.norm(rhs_hat[:, 0, 0, 0].real)) / grid.n ** 3
    return ELResidual(
        psi_raw=float(psi_raw),
        psi_scale=float(psi_scale),
        psi_rel=float(psi_rel),
        a_raw=float(a_raw),
        a_scale=float(a_scale),
        a_rel=float(a_rel),
        current_defect=defect,
        theta=float(theta),
    )


# -- A-subproblem -------------------------------------------------------------


def _field_symbol(grid: Grid, p: PhysParams) -> np.ndarray:
    """Wave symbol / 4 pi of the field energy; SolverError if indefinite."""
    sym = energy_mod._wave_symbol(grid, p) / (4.0 * np.pi)
    if float(np.min(sym)) < 0.0:
        raise SolverError(
            "wave symbol is indefinite at this speed; "
            "the quadratic subproblem in A has no minimizer"
        )
    return sym


def _a_operator(grid: Grid, p: PhysParams, psi_low: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Spectral-space matvec of the (SPD) quadratic form in A at fixed psi.

    Maps the transform of a solenoidal zero-mean field to the transform
    of the energy Hessian applied to it: wave symbol / 4 pi plus the
    dealiased diamagnetic sandwich, re-projected, with k = 0 frozen.
    """
    sym = _field_symbol(grid, p)
    coef = p.charge ** 2 / (p.mass * p.light_speed ** 2)
    mask = grid.dealias_mask

    def op(a_hat: np.ndarray) -> np.ndarray:
        # the A-derivative of pauli.current, built from the same
        # contraction and pairing with the same dealias placement, so the
        # solve is stationary for the same equation el_residual checks;
        # each stage transforms its whole stack in one call, and each
        # temporary goes as soon as the next stage holds its result
        low = grid.ifft(a_hat * mask, overwrite=True).real
        prods = grid.fft(low[:, None] * psi_low, overwrite=True)
        del low
        np.multiply(prods, mask, out=prods)
        g = pauli._spin_contract(p.model, grid.ifft(prods, overwrite=True))
        del prods  # model P contracts into a new array; the stack can go
        pair = pauli._pair(p.model, psi_low, g)
        del g
        out = grid.fft(pair)
        del pair
        np.multiply(out, mask, out=out)
        np.multiply(coef, out, out=out)
        out += sym * a_hat
        spectral.project_hat(grid, out)
        out[:, 0, 0, 0] = 0.0
        return out

    return op


def _a_rhs(grid: Grid, p: PhysParams, st: pauli.KineticState) -> tuple[np.ndarray, float]:
    """Transform of the paramagnetic forcing (1/c) P J0, the current at
    A = 0 read from the field-free record ``st``, with k = 0 frozen, and
    the grid norm of the unprojected (1/c) J0, k = 0 included."""
    coef = -p.charge / (p.mass * p.light_speed)
    j_hat = coef * pauli._pair_hat(grid, p, st)
    j_norm = np.sqrt(energy_mod._parseval(grid, j_hat))
    b = spectral.project_hat(grid, j_hat)
    b[:, 0, 0, 0] = 0.0
    return b, j_norm


def _a_precond(grid: Grid, p: PhysParams, psi_low: np.ndarray) -> np.ndarray:
    """Diagonal preconditioner of the A-operator at fixed psi (spectral
    multiplier), k = 0 frozen:

        1 / (wave symbol / 4 pi + (Q^2 / m c^2) rho_bar),

    rho_bar the mean of |T psi|^2 over the box.  At a uniform density the
    diamagnetic sandwich is (Q^2 / m c^2) rho_bar times the identity, for
    both models, so this is the exact inverse of the operator's diagonal;
    the shift is the A counterpart of the kinetic shift of the psi
    preconditioner (Antoine, Levitt & Tang, J. Comput. Phys. 343 (2017)).
    """
    sym = energy_mod._wave_symbol(grid, p)
    rho_bar = float(np.sum(psi_low.real ** 2 + psi_low.imag ** 2)) / grid.n ** 3
    diag = sym / (4.0 * np.pi) + p.charge ** 2 / (p.mass * p.light_speed ** 2) * rho_bar
    inv = np.zeros_like(sym)
    np.divide(1.0, diag, out=inv, where=sym > 0)
    return inv


def solve_vector_potential(
    grid: Grid,
    p: PhysParams,
    psi,
    A0=None,
    tol: float = 1e-11,
    max_iter: int = 400,
) -> tuple[VectorField, int]:
    """Minimize the energy over solenoidal zero-mean A at fixed psi.

    Returns the minimizer and the number of operator applications, and
    logs at DEBUG level on the ``mpwave.minimize`` logger the stop reason
    (floor, tol, stagnation, blow-up, max_iter, rz <= 0 or dAd <= 0), the
    operator applications and the best |r| relative to the reference.
    A forcing |b| at the rounding floor eps log2(n^3) |J| of the transform
    of the current it came from (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002) is the projection's residue of a current
    with no transverse part, such as a plane wave's mean current: the
    solve returns the exact minimizer A = 0 after no operator application
    and logs the reason "floor" with |b| / |J|.
    """
    st = pauli.kinetic_state(grid, p, component_array(grid, psi, 2, "psi"))
    b, j_norm = _a_rhs(grid, p, st)
    psi_low = st.psi_low
    op = _a_operator(grid, p, psi_low)
    del st  # psi_hat and K psi_hat are not needed past the forcing

    # everything lives in spectral space; the inner product matches the
    # grid one through Parseval
    scale = grid.cell / grid.n ** 3
    dot = lambda u, w: float(np.real(np.sum(np.conj(u) * w))) * scale
    b_norm = np.sqrt(dot(b, b))
    if b_norm <= np.finfo(float).eps * np.log2(grid.n ** 3) * j_norm:
        logger.debug("A-solve: floor after 0 operator applications, |b|/|J| = %.3e",
                     b_norm / j_norm if j_norm > 0 else 0.0)
        return VectorField(grid, np.zeros((3,) + grid.shape)), 0

    inv = _a_precond(grid, p, psi_low)
    if A0 is None:
        x = np.zeros((3,) + grid.shape, dtype=complex)
    else:
        x = spectral.project_hat(grid, grid.fft(component_array(grid, A0, 3, "A0")))
        x[:, 0, 0, 0] = 0.0
    r = b - op(x)
    n_ops = 1
    # a warm start can sit far from the solution, so the target is
    # relative to whichever of |b| and |r0| is larger
    ref = max(b_norm, np.sqrt(dot(r, r)))
    z = inv * r
    d = z.copy()
    rz = dot(r, z)
    best = np.inf
    best_x = x.copy()
    since_best = 0
    for _ in range(max_iter):
        r_norm = np.sqrt(dot(r, r))
        if r_norm < best * (1.0 - 1e-3):
            best, since_best = r_norm, 0
            best_x[...] = x
        else:
            since_best += 1
        # past the rounding floor the recurrence decouples from the true
        # residual and can amplify junk geometrically; any of these
        # signals ends the iteration, and the best iterate is returned
        stops = (("tol", r_norm <= tol * ref), ("rz <= 0", rz <= 0),
                 ("stagnation", since_best >= 15), ("blow-up", r_norm > 100.0 * best))
        reason = next((name for name, hit in stops if hit), None)
        if reason is not None:
            break
        od = op(d)
        n_ops += 1
        denom = dot(d, od)
        if denom <= 0:
            reason = "dAd <= 0"
            break
        alpha = rz / denom
        x += alpha * d
        r -= alpha * od
        z = inv * r
        rz_new = dot(r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    else:
        reason = "max_iter"
        # the last step's iterate has not been tested yet
        r_norm = np.sqrt(dot(r, r))
        if r_norm < best:
            best = r_norm
            best_x[...] = x
    logger.debug("A-solve: %s after %d operator applications, best |r|/ref = %.3e",
                 reason, n_ops, best / ref)
    out = np.real(grid.ifft(best_x, overwrite=True))
    if not np.all(np.isfinite(out)):
        raise SolverError("vector-potential subproblem diverged")
    return VectorField(grid, out), n_ops


# -- initial states ------------------------------------------------------------


def plane_wave_state(grid: Grid, p: PhysParams) -> tuple[SpinorField, VectorField]:
    """Spin-up boosted plane wave on the nearest lattice wavevector, A = 0.

    The carrier m v / hbar is rounded to the reciprocal lattice; the
    resulting pair is an exact discrete stationary point of the energy.
    A rounded carrier outside the dealias band raises DomainGateError.
    """
    dk = 2.0 * np.pi / grid.box_l
    kstar = carrier_gate(grid, p, lattice=True) * dk
    x, y, z = grid.coords()
    phase = np.exp(1j * (kstar[0] * x + kstar[1] * y + kstar[2] * z))
    data = np.zeros((2,) + grid.shape, dtype=complex)
    data[0] = phase
    psi = normalize_to_lambda(SpinorField(grid, data), p.lam)
    return psi, VectorField(grid, np.zeros((3,) + grid.shape))


def _initial_state(
    grid: Grid, p: PhysParams, config: "MinimizeConfig", psi0, A0
) -> tuple[SpinorField, VectorField]:
    if config.init == "given":
        if psi0 is None or A0 is None:
            raise InputError('init="given" requires both psi0 and A0')
    if psi0 is not None and A0 is not None:
        psi, A = psi0, A0
    elif config.init == "random":
        psi, A = random_fields(grid, p, config.seed, a_amp=0.1)
    elif config.init == "plane":
        psi, A = plane_wave_state(grid, p)
    elif config.init == "trial":
        from .diagnostics import TrialSpec, trial_fields

        spec = TrialSpec.fitted(grid, amplitude=0.5)
        psi, A = trial_fields(grid, p, spec)
    else:
        raise InputError(f"unknown init mode {config.init!r}")
    if psi0 is not None:
        psi = psi0
    if A0 is not None:
        A = A0
    psi = normalize_to_lambda(SpinorField(grid, as_array(psi)), p.lam)
    a_data = as_array(A)
    if np.any(a_data):
        a_data = spectral.zero_mean(grid, spectral.helmholtz_project(grid, a_data))
    else:
        a_data = np.zeros(a_data.shape)
    return psi, VectorField(grid, a_data)


# -- driver --------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizeConfig:
    """Knobs of the alternating descent.

    The A-subproblem has no cadence knob: it is solved at the start,
    before each stationarity check (every ``check_every`` iterations, to
    ``a_tol``) and at the polish.
    """

    max_iter: int = 4000
    residual_tol: float = 1e-5
    energy_tol: float = 1e-13
    patience: int = 100
    confirm_stall: int = 10
    backtrack: float = 0.5
    armijo: float = 1e-4
    max_backtracks: int = 40
    a_tol: float = 1e-9
    a_max_iter: int = 400
    check_every: int = 5
    init: str = "trial"
    seed: int = 0
    log_every: int = 0
    force: bool = False

    def __post_init__(self):
        if self.init not in ("trial", "random", "plane", "given"):
            raise InputError(f"unknown init {self.init!r}")


@dataclass
class MinimizeReport:
    """Outcome of a minimization run."""

    converged: bool
    iterations: int
    energy: float
    theta: float
    omega: float
    residual_psi: float
    residual_a: float
    current_defect: float
    message: str
    a_ops: int
    a_solves: int
    backtracks: int
    breakdown: EnergyBreakdown
    psi: SpinorField
    A: VectorField
    energy_trace: list = field(default_factory=list)


def _shift(grid: Grid, p: PhysParams, st: pauli.KineticState, lam_meas: float) -> float:
    """Shift alpha of the preconditioner: the kinetic energy per unit mass
    |K psi|^2 / (2m |psi|^2) read from ``st``, floored by that of the
    longest wave the box holds so a flat state still gets a positive one."""
    k_min = 2.0 * np.pi / grid.box_l
    return max(_kinetic(grid, p, st.kpsi_hat) / lam_meas, p.hbar ** 2 * k_min ** 2 / (2.0 * p.mass))


def _direction(
    grid: Grid, p: PhysParams, psi: np.ndarray, Gt: np.ndarray, alpha: float, lam_meas: float
) -> np.ndarray:
    """Preconditioned descent direction d at psi: P Gt with the spectral
    multiplier P = 1 / (alpha + hbar^2 k^2 / 2m), projected back on the
    tangent space of the mass sphere.  For a tangent Gt, Re <Gt, d> =
    Re <Gt, P Gt> > 0, so d is a descent direction."""
    symbol = 1.0 / (alpha + p.hbar ** 2 * grid.k2 / (2.0 * p.mass))
    pg_hat = grid.fft(Gt)
    pg_hat *= symbol
    pg = grid.ifft(pg_hat, overwrite=True)
    return pg - (inner(grid, psi, pg).real / lam_meas) * psi


def minimize(
    grid: Grid,
    p: PhysParams,
    config: MinimizeConfig | None = None,
    psi0=None,
    A0=None,
) -> MinimizeReport:
    """Alternating preconditioned-descent / linear-solve minimization to a
    stationary pair.

    Each iteration moves psi along the preconditioned tangent direction d
    of the module docstring.  The step length is s = 1 at the first
    iteration and the Barzilai-Borwein length in the metric of P after it,

        s = Re <dpsi, dGt> / Re <dd, dGt>,

    from the differences of psi, Gt and d over the previous step; the
    previous s is kept when either sum is not positive.  A trial is
    accepted under the Armijo test E(trial) <= E - armijo s Re <Gt, d>;
    otherwise s shrinks by the factor ``backtrack``.  The quadratic
    subproblem in A is solved from a warm start where the run reads A:
    at the start, on each iteration that runs the stationarity check
    (every ``check_every`` iterations), before that check, and at the
    polish, so every convergence decision reads an A solved at the same
    psi.  The search ends as a failed one, without a trial energy, once
    the predicted decrease s Re <Gt, d> is below the rounding of E; the
    stationarity residual then decides whether that is convergence.
    """
    if config is None:
        config = MinimizeConfig()
    if config.force:
        # a forced supercritical speed fails on the field problem itself,
        # before sampling a start whose carrier may not fit the grid
        _field_symbol(grid, p)
    else:
        speed_gate(p)
    # no field object is kept: the loop's rebinding of psi and A frees
    # the start
    psi, A = (f.data for f in _initial_state(grid, p, config, psi0, A0))

    def renorm(psi: np.ndarray) -> np.ndarray:
        return psi * np.sqrt(p.lam / (l2_norm_sq(grid, psi)))

    a_ops = a_solves = 0

    def solve_a(psi: np.ndarray, A: np.ndarray, tol: float) -> np.ndarray:
        nonlocal a_ops, a_solves
        A_f, n_ops = solve_vector_potential(
            grid, p, psi, A0=A, tol=tol, max_iter=config.a_max_iter
        )
        a_ops += n_ops
        a_solves += 1
        return A_f.data

    A = solve_a(psi, A, config.a_tol)
    # an all-zero A, as the solve returns at a forcing on its rounding
    # floor, is the field-free record: no transform of A or of a product
    a_low, field_term = _field_band(grid, p, A)

    # st, the KineticState of psi, is read by E, alpha, G and the residual
    # check; at most one is alive, so it goes at the top of each iteration
    # and, with the transforms of A, before each A-solve
    st = pauli.kinetic_state(grid, p, psi, a_low)
    E = _psi_energy(grid, p, st) + field_term
    lam_meas = l2_norm_sq(grid, psi)
    alpha = _shift(grid, p, st, lam_meas)
    G = _gradient(grid, p, st)
    Gt, theta = _tangent(grid, p, psi, G, lam_meas)

    step = 1.0
    backtracks = 0
    trace = [E]
    best_E = E
    since_best = 0
    msg = "max_iter reached"
    converged = False
    it = 0
    prev_psi = prev_Gt = prev_d = None

    for it in range(1, config.max_iter + 1):
        st = None
        d = _direction(grid, p, psi, Gt, alpha, lam_meas)
        gd = inner(grid, Gt, d).real
        if gd == 0.0:
            msg = "stationary: zero tangent gradient"
            converged = True
            break

        # BB step in the metric of P, with Armijo guard
        if prev_psi is not None:
            dGt = Gt - prev_Gt
            num = inner(grid, psi - prev_psi, dGt).real
            den = inner(grid, d - prev_d, dGt).real
            if num > 0 and den > 0:
                step = num / den
        accepted = False
        s = step
        # a step whose predicted decrease is below the rounding of E cannot
        # be told from no step: at a stationary start every trial would be
        # rejected, so the search ends there as a failed one.  E carries
        # the rounding of its kinetic term, at most alpha |psi|^2, even
        # where the terms cancel to E ~ 0
        floor = np.finfo(float).eps * (abs(E) + alpha * lam_meas)
        for _ in range(config.max_backtracks):
            if s * gd <= floor:
                break
            trial = renorm(psi - s * d)
            st = pauli.kinetic_state(grid, p, trial, a_low)
            e_trial = _psi_energy(grid, p, st)
            if e_trial + field_term <= E - config.armijo * s * gd:
                accepted = True
                break
            st = None
            backtracks += 1
            s *= config.backtrack
        if not accepted:
            # rebuilt here rather than kept alive through the trials
            res = _residual(grid, p, psi, A, G, pauli.kinetic_state(grid, p, psi, a_low))
            converged = res.max_rel < config.residual_tol
            msg = (
                "stationary: no descent direction left"
                if converged
                else "line search failed away from stationarity"
            )
            break

        prev_psi, prev_Gt, prev_d = psi, Gt, d
        psi = trial
        E = e_trial + field_term

        if it % config.check_every == 0:
            # the check below reads A, so it is solved at this psi first
            st = a_low = None
            A = solve_a(psi, A, config.a_tol)
            a_low, field_term = _field_band(grid, p, A)
            st = pauli.kinetic_state(grid, p, psi, a_low)
            E = _psi_energy(grid, p, st) + field_term

        lam_meas = l2_norm_sq(grid, psi)
        alpha = _shift(grid, p, st, lam_meas)
        G = _gradient(grid, p, st)
        Gt, theta = _tangent(grid, p, psi, G, lam_meas)
        trace.append(E)

        if config.log_every and it % config.log_every == 0:
            logger.info("iter %5d  E = %+.12e  step = %.3e  alpha = %.3e", it, E, s, alpha)

        if E < best_E - config.energy_tol * max(1.0, abs(best_E)):
            best_E = E
            since_best = 0
        else:
            since_best += 1

        if it % config.check_every == 0 or since_best >= config.patience:
            res = _residual(grid, p, psi, A, G, st)
            # a small residual alone can be a slow plateau transit; accept
            # stationarity only once the energy has also stopped moving
            if res.max_rel < config.residual_tol and since_best >= config.confirm_stall:
                msg = "stationarity residual below tolerance"
                converged = True
                break
            if since_best >= config.patience:
                msg = f"stalled: no energy decrease for {config.patience} iterations"
                break

    # the loop's arrays go before the polish solve, which sets peak memory
    st = a_low = G = Gt = d = trial = prev_psi = prev_Gt = prev_d = None
    # polish the quadratic subproblem before reporting
    A = solve_a(psi, A, 1e-12)
    res = el_residual(grid, p, psi, A)
    converged = res.max_rel < config.residual_tol
    breakdown = energy_functional(grid, p, psi, A)
    omega = omega_from_theta(grid, p, A, res.theta)
    stride = max(1, len(trace) // 1000)
    return MinimizeReport(
        converged=converged,
        iterations=it,
        energy=breakdown.total,
        theta=res.theta,
        omega=omega,
        residual_psi=res.psi_rel,
        residual_a=res.a_rel,
        current_defect=res.current_defect,
        message=msg,
        a_ops=a_ops,
        a_solves=a_solves,
        backtracks=backtracks,
        breakdown=breakdown,
        psi=SpinorField(grid, psi),
        A=VectorField(grid, A),
        energy_trace=trace[::stride],
    )


__all__ = [
    "grad_psi",
    "grad_A",
    "lagrange_theta",
    "omega_from_theta",
    "ELResidual",
    "el_residual",
    "solve_vector_potential",
    "plane_wave_state",
    "MinimizeConfig",
    "MinimizeReport",
    "minimize",
]
