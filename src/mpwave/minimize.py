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
  psi is iterated as its band-limited transform psi_hat, zero outside
  the dealias band: out-of-band modes of psi couple to no field, so they
  decouple and vanish at a minimizer, and a start's out-of-band content
  is dropped.

* A: the energy is an inhomogeneous positive-definite quadratic in A at
  fixed psi, so the subproblem is solved essentially exactly by
  preconditioned conjugate gradients in Fourier space, on the transform
  of the (3, n, n, n) stack A.  The operator's diamagnetic term is -1/c
  times the current of the field part of A, through the current
  transform the forcing reads; each stage is one transform call on a
  whole stack.  The preconditioner is the inverse of the operator's
  diagonal at a uniform density: the wave symbol / 4 pi shifted by the
  diamagnetic mean field (Q^2 / m c^2) rho_bar, the counterpart for A of
  the psi shift.  A is solved at the start, after every
  ``a_solve_every``-th accepted psi step and at the polish, each from
  A = 0: A is a function of psi, and only a given pair's first solve
  reads its A0, so the loop holds no A between solves.

The psi-loop and the A-solve live in spectral space.  Every sum on
transforms is the grid inner product ``energy._parseval``, the one place
the weight h^3 / n^3 is applied.  The tangent and theta, the direction
P Gt, the step, the Armijo test and the renormalization of a trial read
psi_hat, the transform of G and their sums, with no transform: a
band-limited psi_hat is its own T psi, so a trial's record takes one
inverse transform, ifft(psi_hat), besides its product transforms.  The
start, normalized on the grid, is banded once and masked.  Each A-solve
reads psi_hat and T psi from the record the loop holds, and the record
of psi against a new A reuses them for the product transforms alone, 6
for model S and 2 for model P.  The run returns ifft(psi_hat) normalized
on the grid; the polish and the report read the band of that psi.  The
report (``_report``) takes the band of A as well: the residual, whose
theta, |Gt|, |G| and |psi|^2 are sums of G_hat and psi_hat, the
breakdown and omega read that A_hat and one record of the pair.  It is
the one judge of a pair: ``el_residual`` is its residual, and the solver
and ``mpwave check`` read all three.  The public ``energy_functional``
and ``omega_from_theta`` check their inputs, build the same record and
run the same bodies, so the report equals them bit for bit.

Model S couples no spin, so a psi_down that starts exactly zero stays
zero: such a run, from any start, carries the spin-up block of psi
(``fields._spin_up``) through every record, A-solve and report, and pads
the zero back onto the psi it returns.  Every grid sum of the block
equals that of the spinor, the kinetic sum over the (3, 1, n, n, n)
stack too, since an unweighted sum adds its (n, n, n) blocks in order;
``energy_functional`` evaluates the returned psi on the same block, so
the report still equals the public functions bit for bit.  Model P runs
on the full spinor, since sigma . D mixes the components.

A run ends where its line search ends: once the predicted decrease of a
step is below the rounding of E, or at ``max_iter``.  The Euler-Lagrange
residual of the polished pair alone then judges it.

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
from typing import Callable, ClassVar

import numpy as np

from . import energy as energy_mod
from . import pauli, spectral
from .energy import (
    EnergyBreakdown,
    _drift,
    _field_band,
    _kinetic,
    _parseval,
    _vk,
    carrier_gate,
    energy_functional,  # importable from this module, as before
    speed_gate,
)
from .errors import InputError, SolverError
from .fields import (
    PhysParams,
    SpinorField,
    VectorField,
    _random_psi,
    _re_dot,
    _spin_up,
    _spinor,
    as_array,
    component_array,
    l2_norm_sq,
    normalize_to_lambda,
)
from .grid import Grid

logger = logging.getLogger(__name__)


def grad_psi(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """First variation of the energy in psi-bar (unconstrained),

    G = (1/2m) lap_{j,A} psi + i hbar (v.grad) psi,

    so that dE[delta] = 2 Re <G, delta>.  Both terms are summed in
    spectral space, the drift as -hbar (v.k) psi_hat, before one inverse
    transform.  The solver and the residual read the transform of the same
    G from the ``KineticState`` of the state (``_gradient_hat``).
    """
    return grid.ifft(_gradient_hat(grid, p, pauli._state(grid, p, psi, A)), overwrite=True)


def _gradient_hat(grid: Grid, p: PhysParams, st: pauli.KineticState) -> np.ndarray:
    """Transform of ``grad_psi`` of the record ``st``, with no transform of
    its own: the solver's psi-loop reads it as it is."""
    out_hat = pauli._laplacian_hat(grid, p, st)
    out_hat /= 2.0 * p.mass
    if np.any(p.v_arr):
        out_hat -= p.hbar * _vk(grid, p.v_arr) * st.psi_hat
    return out_hat


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
    grid: Grid, p: PhysParams, psi_hat: np.ndarray, g_hat: np.ndarray, lam_meas: float,
) -> tuple[np.ndarray, float]:
    """The transform of G + hbar theta psi and theta, the multiplier that
    makes the sum tangent to the mass sphere at psi, whose measured |psi|^2
    is ``lam_meas``, from the transforms of psi and G by Parseval."""
    theta = -_parseval(grid, psi_hat, g_hat) / (p.hbar * lam_meas)
    return g_hat + p.hbar * theta * psi_hat, theta


def omega_from_theta(grid: Grid, p: PhysParams, A, theta: float) -> float:
    """Phase frequency omega = E_EM[A, (v.grad)A] / hbar - theta."""
    A_a = component_array(grid, A, 3, "A")
    if not np.any(A_a):
        return -theta
    return energy_mod._em_energy(grid, p, grid.fft(A_a)) / p.hbar - theta


def grad_A(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """First variation of the energy in A against solenoidal test fields,

    grad_A = P[ -(1/c) J_j - (1/4 pi) lap A + (1/4 pi c^2) (v.grad)^2 A ].

    Summed on transforms with the residual's ``_source_hat``, A_hat and
    T A from one band of A.  The k = 0 component carries (-1/c) times the
    mean current; on the torus it cannot be relaxed by any admissible A and
    is excluded from the residual.
    """
    a_hat, a_low = pauli._a_band(grid, component_array(grid, A, 3, "A"))
    st = pauli.kinetic_state(grid, p, component_array(grid, psi, 2, "psi"), a_low)
    out = -_source_hat(grid, p, st)
    if a_hat is not None:
        out += a_hat * (energy_mod._wave_symbol(grid, p) / (4.0 * np.pi))
    spectral.project_hat(grid, out)
    return grid.ifft(out, overwrite=True).real.copy()


def _source_hat(grid: Grid, p: PhysParams, st: pauli.KineticState) -> np.ndarray:
    """Transform of J / c of the record ``st``: the A-side's one source."""
    j_hat = pauli._current_hat(grid, p, st.psi_low, st.kpsi_hat * grid.dealias_mask)
    j_hat /= p.light_speed
    return j_hat


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
        # NaN when either side is: the builtin max(0.0, nan) returns 0.0
        return float(np.maximum(self.psi_rel, self.a_rel))


def _rel(raw: float, scale: float) -> float:
    """raw / scale: 0 for the all-zero state (scale 0) and NaN when either
    is not finite, so a non-finite state never passes a tolerance."""
    if not (np.isfinite(raw) and np.isfinite(scale)):
        return float("nan")
    return float(raw / scale if scale > 0 else 0.0)


def el_residual(grid: Grid, p: PhysParams, psi, A) -> ELResidual:
    """Residuals of the stationarity system at (psi, A).

    psi-side: |(1/2m) lap_{j,A} psi + hbar theta psi + i hbar v.grad psi|
    relative to the size of its constituents; A-side: analogous for the
    wave equation with the k = 0 mode split off into ``current_defect``
    (reported as (4 pi / c) |mean J|).  The residual of the solver's
    report (``_report``), from one band of psi and one of A.
    """
    psi_hat, psi_low = spectral.band(grid, component_array(grid, psi, 2, "psi"))
    # the band of A goes unnamed, so the report frees A_hat once it has read it
    return _report(grid, p, psi_hat, psi_low,
                   _field_band(grid, p, component_array(grid, A, 3, "A")))[0]


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

    Maps the transform of a solenoidal zero-mean field a to the transform
    of the energy Hessian applied to it: wave symbol / 4 pi plus -1/c times
    the current of the field part of K psi at A = a (``pauli._field_hat``),
    re-projected, with k = 0 frozen.  One matvec takes 18 scalar transforms
    for model S and 10 for model P, whose field part is one transform of
    the spinor (sigma . T a) T psi.
    """
    sym = _field_symbol(grid, p)

    def op(a_hat: np.ndarray) -> np.ndarray:
        # the field part of K psi at A = a, as kinetic_hat forms it, is passed
        # on unnamed, so each stack goes once the next holds its result
        out = pauli._current_hat(grid, p, psi_low, pauli._field_hat(
            grid, p, psi_low, grid.ifft(a_hat * grid.dealias_mask, overwrite=True).real
        ))
        np.multiply(-1.0 / p.light_speed, out, out=out)
        out += sym * a_hat
        spectral.project_hat(grid, out)
        out[:, 0, 0, 0] = 0.0
        return out

    return op


def _a_rhs(grid: Grid, p: PhysParams, st: pauli.KineticState) -> tuple[np.ndarray, float]:
    """Transform of the paramagnetic forcing (1/c) P J0, the current at
    A = 0 read from the field-free record ``st``, with k = 0 frozen, and
    the grid norm of the unprojected (1/c) J0, k = 0 included."""
    j_hat = _source_hat(grid, p, st)
    j_norm = np.sqrt(_parseval(grid, j_hat))
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
    rho_bar = _re_dot(psi_low) / grid.n ** 3
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
    operator applications and the best |r| relative to |b|, the norm of
    the forcing, against which ``tol`` is measured.  A warm start ``A0``
    whose residual exceeds |b| is dropped for x = 0; a cold start (A0 None
    or all zero) begins at x = 0 with r = b, with no operator application.
    A forcing |b| at the rounding floor eps log2(n^3) |J| of the transform
    of the current it came from (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002) is the projection's residue of a current
    with no transverse part, such as a plane wave's mean current: the
    solve returns the exact minimizer A = 0 after no operator application
    and logs the reason "floor" with |b| / |J|.
    """
    psi_hat, psi_low = spectral.band(grid, component_array(grid, psi, 2, "psi"))
    A0 = None if A0 is None else component_array(grid, A0, 3, "A0")
    return _solve_vector_potential(grid, p, psi_hat, psi_low, A0, tol=tol, max_iter=max_iter)


def _solve_vector_potential(
    grid: Grid,
    p: PhysParams,
    psi_hat: np.ndarray,
    psi_low: np.ndarray,
    A0: np.ndarray | None,
    tol: float,
    max_iter: int = 400,
) -> tuple[VectorField, int]:
    """``solve_vector_potential`` of the psi whose FFT and T psi are
    ``psi_hat`` and ``psi_low``, from the warm start ``A0``, None for A = 0
    as in every solve of ``minimize`` but a given pair's first.  Its
    field-free record takes no transform and goes once the forcing is formed."""
    st = pauli._record(grid, p, psi_hat, psi_low, None)
    b, j_norm = _a_rhs(grid, p, st)
    del st
    op = _a_operator(grid, p, psi_low)

    # everything lives in spectral space, in the grid inner product
    b_norm = np.sqrt(_parseval(grid, b))
    if b_norm <= np.finfo(float).eps * np.log2(grid.n ** 3) * j_norm:
        logger.debug("A-solve: floor after 0 operator applications, |b|/|J| = %.3e",
                     b_norm / j_norm if j_norm > 0 else 0.0)
        return VectorField(grid, np.zeros((3,) + grid.shape)), 0

    inv = _a_precond(grid, p, psi_low)
    if A0 is None or not np.any(A0):
        # a cold start: r = b - op(0) = b, with no operator application
        x = np.zeros((3,) + grid.shape, dtype=complex)
        r, n_ops = b, 0
    else:
        x = spectral.project_hat(grid, grid.fft(A0))
        x[:, 0, 0, 0] = 0.0
        r, n_ops = b - op(x), 1
        if _parseval(grid, r) > b_norm ** 2:
            # a warm start farther from the solution than x = 0 is dropped,
            # so the target is relative to |b| on every start
            x[...] = 0.0
            r = b
    del b  # r is b itself on a cold start; past the start nothing reads b
    z = inv * r
    d = z.copy()
    rz = _parseval(grid, r, z)
    best = np.inf
    best_x = x.copy()
    since_best = 0
    for _ in range(max_iter):
        r_norm = np.sqrt(_parseval(grid, r))
        if r_norm < best * (1.0 - 1e-3):
            best, since_best = r_norm, 0
            best_x[...] = x
        else:
            since_best += 1
        # past the rounding floor the recurrence decouples from the true
        # residual and can amplify junk geometrically; any of these
        # signals ends the iteration, and the best iterate is returned
        stops = (("tol", r_norm <= tol * b_norm), ("rz <= 0", rz <= 0),
                 ("stagnation", since_best >= 15), ("blow-up", r_norm > 100.0 * best))
        reason = next((name for name, hit in stops if hit), None)
        if reason is not None:
            break
        od = op(d)
        n_ops += 1
        denom = _parseval(grid, d, od)
        if denom <= 0:
            reason = "dAd <= 0"
            break
        alpha = rz / denom
        x += alpha * d
        r -= alpha * od
        del od  # so the next op(d) does not run beside this one's result
        z = inv * r
        rz_new = _parseval(grid, r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    else:
        reason = "max_iter"
        # the last step's iterate has not been tested yet
        r_norm = np.sqrt(_parseval(grid, r))
        if r_norm < best:
            best = r_norm
            best_x[...] = x
    logger.debug("A-solve: %s after %d operator applications, best |r|/ref = %.3e",
                 reason, n_ops, best / b_norm)
    # each iterate carries the projection's rounding of the longitudinal
    # forcing, eps |J_long|, which can dwarf an A near zero; projected once
    # more, the result is solenoidal to its own rounding
    out = np.real(grid.ifft(spectral.project_hat(grid, best_x), overwrite=True))
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
    x, y, z = grid.open_coords()
    phase = np.exp(1j * (kstar[0] * x + kstar[1] * y + kstar[2] * z))
    data = np.zeros((2,) + grid.shape, dtype=complex)
    data[0] = phase
    psi = normalize_to_lambda(SpinorField(grid, data), p.lam)
    return psi, VectorField(grid, np.zeros((3,) + grid.shape))


def _initial_state(
    grid: Grid, p: PhysParams, config: "MinimizeConfig", psi0, A0
) -> tuple[np.ndarray, np.ndarray | None]:
    """The start psi of ``config.init``, normalized to lambda, and the warm
    start of the first A-solve: the array of ``A0`` for "given", None
    (A = 0) for every other start, whose A is the solution of that solve
    alone, so its sampler draws psi and no A.  A given pair with a
    non-finite entry, or an all-zero psi0, is refused with InputError."""
    a0 = None
    if config.init == "given":
        if psi0 is None or A0 is None:
            raise InputError('init="given" requires both psi0 and A0')
        psi = component_array(grid, psi0, 2, "psi0")
        a0 = component_array(grid, A0, 3, "A0")
        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(a0))):
            raise InputError("psi0 and A0 must be finite everywhere")
        if not np.any(psi):
            raise InputError("psi0 is zero everywhere and cannot carry the mass lambda")
    elif psi0 is not None or A0 is not None:
        raise InputError(f'psi0 and A0 go with init="given", not init={config.init!r}')
    elif config.init == "random":
        psi = _random_psi(grid, p, config.seed)[0]
    elif config.init == "plane":
        psi = plane_wave_state(grid, p)[0]
    else:
        from .diagnostics import TrialSpec, _carrier, _trial_sample

        spec = TrialSpec.fitted(grid, amplitude=0.5)
        psi = _spinor(_trial_sample(grid, p, spec, _carrier(grid, p), potential=False)[0])
    return normalize_to_lambda(SpinorField(grid, as_array(psi)), p.lam).data, a0


# -- driver --------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizeConfig:
    """Settings of one run: ``max_iter``, the start ``init`` of psi
    ("trial", "random", "plane", or "given" with the psi0 and A0 of
    ``minimize``, A0 only warm-starting the first A-solve), the ``seed``
    of the random start (the psi of ``random_fields``, whose correlation
    length 2 is an absolute length, so that start alone is not
    unit-covariant), ``log_every`` (log every k iterations, 0 for
    never) and ``force`` (skip the speed gate).  A negative ``max_iter``
    or ``log_every`` is refused with InputError; ``max_iter`` 0 polishes
    the start.

    The numerics are class constants: ``residual_tol`` 1e-5, the bound on
    the polished residual that makes a run converged; ``armijo`` 1e-4,
    ``backtrack`` 0.5 and ``max_backtracks`` 40 of the line search; and
    ``a_solve_every`` 5 and ``a_tol`` 1e-9: A is re-solved to ``a_tol``
    after every fifth accepted step (the polish solves it to 1e-12).
    """

    residual_tol: ClassVar[float] = 1e-5
    backtrack: ClassVar[float] = 0.5
    armijo: ClassVar[float] = 1e-4
    max_backtracks: ClassVar[int] = 40
    a_tol: ClassVar[float] = 1e-9
    a_solve_every: ClassVar[int] = 5

    max_iter: int = 4000
    init: str = "trial"
    seed: int = 0
    log_every: int = 0
    force: bool = False

    def __post_init__(self):
        if self.init not in ("trial", "random", "plane", "given"):
            raise InputError(f"unknown init {self.init!r}")
        for name in ("max_iter", "log_every"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be at least 0, got {getattr(self, name)}")


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
    grid: Grid, p: PhysParams, psi_hat: np.ndarray, gt_hat: np.ndarray, alpha: float,
    lam_meas: float,
) -> np.ndarray:
    """Transform of the preconditioned descent direction d at psi: P Gt
    with the spectral multiplier P = 1 / (alpha + hbar^2 k^2 / 2m),
    projected back on the tangent space of the mass sphere, read from the
    transforms of psi and Gt with no transform.  For a tangent Gt,
    Re <Gt, d> = Re <Gt, P Gt> > 0, so d is a descent direction."""
    d = gt_hat * (1.0 / (alpha + p.hbar ** 2 * grid.k2 / (2.0 * p.mass)))
    d -= (_parseval(grid, psi_hat, d) / lam_meas) * psi_hat
    return d


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
    subproblem in A is solved from A = 0 at the start, after every
    ``a_solve_every``-th accepted step and, to 1e-12, at the polish.
    The run ends where its line search ends, as a failed one without a
    trial energy, once the predicted decrease s Re <Gt, d> is below the
    rounding of E, or at ``max_iter``.  The Euler-Lagrange residual of the
    polished pair alone judges it: it sets ``converged`` (below
    ``residual_tol``) and names how a line search ended, "stationary: no
    descent direction left" or "line search failed away from
    stationarity", also at a start whose tangent gradient is exactly zero.
    ``psi0`` and ``A0`` start the run of ``init="given"``, which needs
    both; any other ``init`` refuses them with InputError.  A is a
    function of psi, so only psi starts the run: ``A0`` warm-starts the
    first A-solve alone, which drops it if A = 0 lies nearer the solution.
    psi is iterated as its transform, zero outside the dealias band: a
    start's out-of-band modes are dropped (and the start put back on the
    mass sphere if they carried more than rounding), and the returned psi
    is band-limited.
    A model S run whose start has psi_down exactly zero (the trial and
    plane starts, or such a given psi0) runs on the spin-up block of psi;
    the returned ``psi`` is (2, n, n, n) with that zero component.
    """
    if config is None:
        config = MinimizeConfig()
    if config.force:
        # a forced supercritical speed fails on the field problem itself,
        # before sampling a start whose carrier may not fit the grid
        _field_symbol(grid, p)
    else:
        speed_gate(p)
    psi, a0 = _initial_state(grid, p, config, psi0, A0)
    if p.model == "S":
        psi = _spin_up(psi)

    # the loop iterates psi as its transform psi_hat, zero outside the
    # dealias band, so ifft(psi_hat) is T psi and psi itself; its sums are
    # Parseval sums
    a_ops = a_solves = 0

    def solve_a(psi_hat: np.ndarray, psi_low: np.ndarray, tol: float) -> np.ndarray:
        nonlocal a0, a_ops, a_solves
        A, n_ops = _solve_vector_potential(grid, p, psi_hat, psi_low, a0, tol=tol)
        a0 = None  # A is a function of psi: a given A0 starts the first solve alone
        a_ops += n_ops
        a_solves += 1
        return A.data

    # the start, normalized on the grid, drops its out-of-band modes, which
    # decouple and vanish at a minimizer.  Its A-solve and each record of
    # it against a new A read this band.  A band-limited start keeps its
    # mass to the rounding of a transform, eps log2(n^3) lambda (Higham
    # 2002), and is not rescaled, so a restart from a returned psi keeps
    # its bits; a start whose out-of-band modes carried more is put back
    # on the sphere, so the first Armijo test compares energies at one mass
    psi_hat, psi_low = spectral.band(grid, psi)
    psi_hat *= grid.dealias_mask
    del psi
    lam_meas = _parseval(grid, psi_hat)
    if abs(lam_meas - p.lam) > np.finfo(float).eps * np.log2(grid.n ** 3) * p.lam:
        scale = np.sqrt(p.lam / lam_meas)
        psi_hat *= scale
        psi_low *= scale
        lam_meas = _parseval(grid, psi_hat)
    # an all-zero A, as the solve returns at a forcing on its rounding
    # floor, is the field-free record: no transform of A or of a product
    a_low, field_term = _field_band(grid, p, solve_a(psi_hat, psi_low, config.a_tol))[1:]

    # st, the KineticState of psi, is read by E, alpha and G; at most one
    # is alive, so it goes at the top of each iteration and, with T A,
    # before each A-solve
    st = pauli._record(grid, p, psi_hat, psi_low, a_low)
    E = _psi_energy(grid, p, st) + field_term
    alpha = _shift(grid, p, st, lam_meas)
    Gt = _tangent(grid, p, psi_hat, _gradient_hat(grid, p, st), lam_meas)[0]

    step = 1.0
    backtracks = 0
    trace = [E]
    msg = "max_iter reached"
    it = 0
    prev_psi = prev_Gt = prev_d = None

    for it in range(1, config.max_iter + 1):
        st = None
        d = _direction(grid, p, psi_hat, Gt, alpha, lam_meas)
        gd = _parseval(grid, Gt, d)

        # BB step in the metric of P, with Armijo guard
        if prev_psi is not None:
            dGt = Gt - prev_Gt
            num = _parseval(grid, psi_hat - prev_psi, dGt)
            den = _parseval(grid, d - prev_d, dGt)
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
            trial = psi_hat - s * d
            trial *= np.sqrt(p.lam / _parseval(grid, trial))
            # a band-limited trial is its own T psi: one inverse transform
            st = pauli._record(grid, p, trial, grid.ifft(trial), a_low)
            e_trial = _psi_energy(grid, p, st)
            if e_trial + field_term <= E - config.armijo * s * gd:
                accepted = True
                break
            st = None
            backtracks += 1
            s *= config.backtrack
        if not accepted:
            # the run ends here; the polished residual below names how
            msg = None
            break

        prev_psi, prev_Gt, prev_d = psi_hat, Gt, d
        psi_hat, psi_low = st.psi_hat, st.psi_low
        E = e_trial + field_term

        if it % config.a_solve_every == 0:
            st = a_low = None
            a_low, field_term = _field_band(grid, p, solve_a(psi_hat, psi_low, config.a_tol))[1:]
            st = pauli._record(grid, p, psi_hat, psi_low, a_low)
            E = _psi_energy(grid, p, st) + field_term

        lam_meas = _parseval(grid, psi_hat)
        alpha = _shift(grid, p, st, lam_meas)
        Gt = _tangent(grid, p, psi_hat, _gradient_hat(grid, p, st), lam_meas)[0]
        trace.append(E)

        if config.log_every and it % config.log_every == 0:
            logger.info("iter %5d  E = %+.12e  step = %.3e  alpha = %.3e", it, E, s, alpha)

    # the loop's arrays go before the polish solve, which sets peak memory.
    # The run returns T psi = ifft(psi_hat), normalized on the grid in
    # place, as no record holds it any more, and the polish and the report
    # read the band of that psi
    st = a_low = Gt = d = trial = prev_psi = prev_Gt = prev_d = psi_hat = None
    psi = psi_low
    psi *= np.sqrt(p.lam / l2_norm_sq(grid, psi))
    psi_hat, psi_low = spectral.band(grid, psi)
    # polish the quadratic subproblem before reporting
    A = solve_a(psi_hat, psi_low, 1e-12)
    res, breakdown, omega = _report(grid, p, psi_hat, psi_low, _field_band(grid, p, A))
    converged = res.max_rel < config.residual_tol
    if msg is None:
        msg = ("stationary: no descent direction left" if converged
               else "line search failed away from stationarity")
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
        psi=SpinorField(grid, _spinor(psi)),
        A=VectorField(grid, A),
        energy_trace=trace[::stride],
    )


def _report(
    grid: Grid, p: PhysParams, psi_hat: np.ndarray, psi_low: np.ndarray, a_band: tuple,
) -> tuple[ELResidual, EnergyBreakdown, float]:
    """``el_residual``, ``energy_functional`` and ``omega_from_theta`` of
    the pair (psi, A), bit for bit, from the band ``psi_hat``, ``psi_low``
    of psi and the band ``a_band`` of A (``energy._field_band``): one
    record of the pair, 6 (S) or 2 (P) scalar transforms for K psi with a
    field and none at A = 0, and the residual's current.  theta, |Gt|, |G|
    and |psi|^2 are Parseval sums of the transform of G and psi_hat, with
    no transform.  A caller that passes ``a_band`` unnamed leaves T A to
    the record alone.  Each reader that writes into what it reads comes
    after every other reader of it."""
    a_hat, a_low, field_term = a_band
    del a_band
    st = pauli._record(grid, p, psi_hat, psi_low, a_low)
    del a_low
    # E_EM is read before the residual's A side overwrites A_hat
    em = None if a_hat is None else energy_mod._em_energy(grid, p, a_hat) / p.hbar
    norm = lambda fh: np.sqrt(_parseval(grid, fh))

    # A side: (4 pi / c) P J_hat from the record; its k = 0 mode is the
    # mean drive, reported as the defect and then split off
    rhs_hat = spectral.project_hat(grid, 4.0 * np.pi * _source_hat(grid, p, st))
    defect = float(np.linalg.norm(rhs_hat[:, 0, 0, 0].real)) / grid.n ** 3
    rhs_norm = norm(rhs_hat)
    rhs_hat[:, 0, 0, 0] = 0.0
    if a_hat is None:
        lhs_norm, a_raw = 0.0, norm(rhs_hat)
    else:
        # the wave symbol vanishes at k = 0; the product and the difference
        # are taken in place, so the A side holds two stacks, which go
        # before the gradient, where the report peaks
        a_hat *= energy_mod._wave_symbol(grid, p)
        lhs_norm = norm(a_hat)
        a_hat -= rhs_hat
        a_raw = norm(a_hat)
    del a_hat, rhs_hat

    lam_meas = _parseval(grid, st.psi_hat)
    # exactly flat states (constant psi, vanishing current) leave every
    # term at rounding scale; flooring the denominators by the weakest
    # signal the box can carry turns 0/0 noise into a ~0 report
    k_min = 2.0 * np.pi / grid.box_l
    # scale against the full source (k = 0 included) so delocalised states
    # with a pure mean current do not degenerate to 0/0, floored by the
    # drive a unit-mass plane wave on the largest scale would produce
    a_floor = (
        4.0 * np.pi * abs(p.charge) * p.hbar * k_min * lam_meas
        / (p.mass * p.light_speed * grid.box_l ** 1.5)
    )
    a_scale = max(lhs_norm + rhs_norm, a_floor)

    G = _gradient_hat(grid, p, st)
    resid, theta = _tangent(grid, p, st.psi_hat, G, lam_meas)
    psi_raw = norm(resid)
    psi_floor = p.hbar ** 2 * k_min ** 2 / (2.0 * p.mass) * np.sqrt(lam_meas)
    psi_scale = max(norm(G) + abs(p.hbar * theta) * np.sqrt(lam_meas), psi_floor)
    del G, resid
    res = ELResidual(
        psi_raw=float(psi_raw),
        psi_scale=float(psi_scale),
        psi_rel=_rel(psi_raw, psi_scale),
        a_raw=float(a_raw),
        a_scale=float(a_scale),
        a_rel=_rel(a_raw, a_scale),
        current_defect=defect,
        theta=float(theta),
    )
    # the breakdown adds the boost into K psi_hat in place: the last reader
    breakdown = energy_mod._energy(grid, p, st, field_term)
    omega = -res.theta if em is None else em - res.theta
    return res, breakdown, omega


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
