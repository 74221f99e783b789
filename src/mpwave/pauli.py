"""Covariant derivatives, Pauli algebra, and gauge currents.

Spinors are arrays of shape (2, n, n, n) with the spin index first, and
a stack of one spinor per direction a = x, y, z, such as D psi, is
(3, 2, n, n, n): each kernel transforms a whole stack in one call.  The
magnetic covariant derivative acting on a spinor is

    D_a psi = i*hbar d_a psi + (Q/c) A_a psi,        a = 1, 2, 3,

where the product A_a psi is evaluated through the dealiased multiply
(see :mod:`mpwave.spectral`), so each D_a is exactly self-adjoint for the
grid inner product.  The kinetic operator K is D psi for the scalar
model ("S") and sigma . D psi for the spin-coupled model ("P"); the
kinetic energy is |K psi|^2 / 2m and ``covariant_laplacian`` is
K^dagger K psi, its exact psi-gradient, in both.  The one kernel is
``kinetic_hat``: it builds the transform of K psi from psi_hat, T psi
and T A, with the derivative as the multiplier -hbar k.  One frozen
``KineticState`` per state carries these transforms, built once by
``kinetic_state``; the real-space forms, the Laplacian, the current and
every energy term read it.  A spin-up state (psi_down exactly zero) may
be carried as its (1, n, n, n) block: its stacks are (3, 1, n, n, n),
``_spin_contract`` of model "P" writes sigma . D psi from D psi_up alone
and ``_pair`` of model "S" sums the components it is given, so the
record costs 2 scalar transforms for psi and 3 for K psi with a field.
The energy terms read the record of a block for either model; the model
P current pairs T psi with both components of sigma . D psi, so a
model P solve carries the full spinor.

The Lichnerowicz identity

    (sigma . D)^2 psi = sum_a D_a D_a psi - (hbar*Q/c) sigma . B psi

is a check, through ``spin_term``, not a kernel: its two sides agree
exactly whenever psi and A are band limited to half the dealiasing
cutoff (products of three such factors stay below the grid Nyquist
band); for rougher fields they differ by the aliasing residue of the
cubic terms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .fields import PhysParams, as_array, component_array
from .grid import Grid

#: Pauli matrices, shape (3, 2, 2).
SIGMA = np.array(
    [
        [[0.0 + 0.0j, 1.0 + 0.0j], [1.0 + 0.0j, 0.0 + 0.0j]],
        [[0.0 + 0.0j, 0.0 - 1.0j], [0.0 + 1.0j, 0.0 + 0.0j]],
        [[1.0 + 0.0j, 0.0 + 0.0j], [0.0 + 0.0j, -1.0 + 0.0j]],
    ]
)


def sigma_dot(vec: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Contract a 3-vector of scalar fields with the Pauli matrices.

    ``vec`` has shape (3, ...) or (3,), ``psi`` has shape (2, ...); the
    result is sum_a vec_a (sigma^a psi), shape (2, ...).
    """
    vec = np.asarray(vec)
    psi = np.asarray(psi)
    vec = vec.reshape((3, 1) + vec.shape[1:] + (1,) * (psi.ndim - vec.ndim))
    return _spin_contract("P", vec * psi)


def _field_hat(grid: Grid, p: PhysParams, psi_low, a_low) -> np.ndarray:
    """Field part (Q/c) mask FFT(a_low_a psi_low) of the three D_a psi_hat,
    (3, 2, n, n, n): the three products take one transform, in place."""
    out = grid.fft(a_low[:, None] * psi_low, overwrite=True)
    np.multiply(grid.dealias_mask, out, out=out)
    np.multiply(p.charge / p.light_speed, out, out=out)
    return out


def _covariant_hat(grid: Grid, p: PhysParams, psi_hat, psi_low, a_low) -> np.ndarray:
    """Transforms of the three D_a psi, (3, 2, n, n, n): -hbar k_a psi_hat
    plus ``_field_hat``, a_low None for A = 0; the derivative terms are
    added one direction at a time, so no second stack is held."""
    if a_low is None:
        return (-p.hbar * grid.k)[:, None] * psi_hat
    out = _field_hat(grid, p, psi_low, a_low)
    for a in range(3):
        out[a] += (-p.hbar * grid.k[a]) * psi_hat
    return out


def kinetic_hat(grid: Grid, p: PhysParams, psi_hat, psi_low, a_low) -> np.ndarray:
    """Transform of the kinetic operator K psi of the model: sigma . D psi
    for "P", the stack D psi for "S".

    Takes psi_hat = FFT(psi), psi_low = T psi and a_low = T A (None for
    A = 0), and spends one forward transform per direction on the products
    a_low_a psi_low, in one call.  The kinetic energy of either model is
    |K psi|^2 / 2m; callers take it from this transform by Parseval.
    """
    return _spin_contract(p.model, _covariant_hat(grid, p, psi_hat, psi_low, a_low))


@dataclass(frozen=True)
class KineticState:
    """The transforms of one state (psi, A) that the kernels read:
    FFT(psi), T psi, the transform of K psi and T A (None for A = 0)."""

    psi_hat: np.ndarray
    psi_low: np.ndarray
    kpsi_hat: np.ndarray
    a_low: np.ndarray | None


def kinetic_state(grid: Grid, p: PhysParams, psi, a_low=None) -> KineticState:
    """The ``KineticState`` of psi against ``a_low`` = T A, or A = 0 when
    it is None: 4 scalar transforms for psi, and 6 for K psi with a field.
    Callers that evaluate many psi against one A band it once."""
    return _record(grid, p, *spectral.band(grid, as_array(psi)), a_low)


def _record(grid: Grid, p: PhysParams, psi_hat, psi_low, a_low) -> KineticState:
    """The ``KineticState`` of the psi whose FFT and T psi are given: the 6
    product transforms of K psi with a field, none at A = 0 (a_low None).
    A caller that holds the band of psi from an earlier record of the same
    psi rebuilds it against a new A for these alone."""
    return KineticState(psi_hat, psi_low, kinetic_hat(grid, p, psi_hat, psi_low, a_low), a_low)


def _a_band(grid: Grid, A: np.ndarray) -> tuple:
    """A_hat and T A of the real field A, from one forward FFT; (None, None)
    for an all-zero A, the field-free record's, with no transform of A."""
    return spectral.band(grid, A) if np.any(A) else (None, None)


def _state(grid: Grid, p: PhysParams, psi, A) -> KineticState:
    """``kinetic_state`` of (psi, A) for a real field A; an all-zero A
    gives the field-free record (``_a_band``).  Both are checked to be
    component-first fields on ``grid``."""
    psi = component_array(grid, psi, 2, "psi")
    return kinetic_state(grid, p, psi, _a_band(grid, component_array(grid, A, 3, "A"))[1])


def covariant_gradient(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """All three components D_a psi, stacked as (3, 2, n, n, n)."""
    psi_hat, psi_low = spectral.band(grid, component_array(grid, psi, 2, "psi"))
    a_low = spectral.dealias(grid, component_array(grid, A, 3, "A"))
    return grid.ifft(_covariant_hat(grid, p, psi_hat, psi_low, a_low), overwrite=True)


def _spin_contract(model: str, c: np.ndarray) -> np.ndarray:
    """Kinetic contraction of the model.

    ``c`` stacks one spinor per direction, shape (3, 2, ...), or one
    spin-up block, (3, 1, ...).  Model "P" contracts it with the Pauli
    matrices to sum_b sigma^b c_b, a (2, ...) spinor, summed in the order
    x, y, z; of a spin-up block that is (c_z, c_x + i c_y), the two-
    component sum with its exact zeros left out.  Model "S" keeps ``c``
    as it is.  The contraction is a constant matrix, so it commutes with
    the FFT.
    """
    if model == "S":
        return c
    out = np.empty((2,) + c.shape[2:], dtype=complex)
    if c.shape[1] == 1:
        out[0] = c[2, 0]
        out[1] = c[0, 0] + 1j * c[1, 0]
        return out
    out[0] = c[0, 1] - 1j * c[1, 1] + c[2, 0]
    out[1] = c[0, 0] + 1j * c[1, 0] - c[2, 1]
    return out


def _sigma(a: int, h: np.ndarray) -> np.ndarray:
    """sigma^a h of the (2, ...) spinor ``h``; summed over a against a
    stack, the adjoint of ``_spin_contract`` of model "P"."""
    out = np.empty_like(h)
    if a == 0:
        out[0], out[1] = h[1], h[0]
    elif a == 1:
        out[0], out[1] = -1j * h[1], 1j * h[0]
    else:
        out[0], out[1] = h[0], -h[1]
    return out


def _pair(model: str, psi_low: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pointwise Re <psi_low, g_a> (model "S") or Re <psi_low, sigma^a g>
    (model "P") for a = x, y, z, stacked as (3, n, n, n), for ``g`` as
    returned by ``_spin_contract``.  Model "S" writes its products over the
    stack ``g``, so no second stack is held, and sums the spin components
    it is given: two for a spinor, one for a spin-up block, whose sum is
    that of the spinor with its exact zeros left out."""
    if model == "S":
        t = np.multiply(np.conj(psi_low), g, out=g)
        return np.sum(t.real, axis=1)
    out = np.empty((3,) + psi_low.shape[1:])
    c01 = np.conj(psi_low[0]) * g[1]
    c10 = np.conj(psi_low[1]) * g[0]
    out[0] = c01.real + c10.real
    out[1] = c01.imag - c10.imag
    del c01, c10
    out[2] = (np.conj(psi_low[0]) * g[0]).real - (np.conj(psi_low[1]) * g[1]).real
    return out


def _laplacian_hat(grid: Grid, p: PhysParams, st: KineticState) -> np.ndarray:
    """Transform of K^dagger K psi = sum_a D_a h_a, read from the record
    ``st``: h_a is K psi_a (model "S") or sigma^a K psi (model "P"), a
    constant matrix, so h needs no forward FFT of its own, and with A = 0
    no transform at all.  The sum runs direction by direction, the
    derivative term first, then the product a_low_a T h_a, which takes one
    inverse and one forward transform of h_a alone, so no stack is held
    beside the record and the sum."""
    kpsi = st.kpsi_hat
    mask = grid.dealias_mask
    acc_hat = np.zeros(kpsi.shape[1:] if p.model == "S" else kpsi.shape, dtype=complex)
    for a in range(3):
        h_a = kpsi[a] if p.model == "S" else _sigma(a, kpsi)
        acc_hat += (-p.hbar * grid.k[a]) * h_a
        if st.a_low is not None:
            low = grid.ifft(h_a * mask, overwrite=True)
            np.multiply(st.a_low[a], low, out=low)
            prod = grid.fft(low, overwrite=True)
            np.multiply(mask, prod, out=prod)
            np.multiply(p.charge / p.light_speed, prod, out=prod)
            acc_hat += prod
    return acc_hat


def covariant_laplacian(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """K^dagger K psi = sum_a D_a h_a, with h_a = D_a psi (model "S") or
    sigma^a K psi (model "P").  Each D_a is exactly self-adjoint, so
    <phi, covariant_laplacian psi> = <K phi, K psi> to rounding on any
    grid fields."""
    return grid.ifft(_laplacian_hat(grid, p, _state(grid, p, psi, A)), overwrite=True)


def spin_term(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """-(hbar Q / c) T(sigma . B T psi), B = curl T(A): covariant_laplacian
    of model "P" minus that of model "S" on fields band limited to half
    the dealias cutoff (Lichnerowicz); a check, not a kernel."""
    a_low = spectral.dealias(grid, component_array(grid, A, 3, "A"))
    return _spin_term(grid, p, spectral.dealias(grid, component_array(grid, psi, 2, "psi")), a_low)


def _spin_term(grid: Grid, p: PhysParams, psi_low, a_low) -> np.ndarray:
    """``spin_term`` from psi_low = T psi and a_low = T A."""
    spin = sigma_dot(spectral.curl(grid, a_low), psi_low)
    return -p.hbar * p.charge / p.light_speed * spectral.dealias(grid, spin)


def _current_hat(grid: Grid, p: PhysParams, psi_low, kh) -> np.ndarray:
    """Transform of the current J = -(Q/m) T _pair(T psi, T K psi) from
    psi_low = T psi and kh = mask K psi_hat, a temporary it transforms in
    place: callers pass it unnamed, so (CPython 3.11 on, where a call takes
    over its arguments) it goes before the pair's transform."""
    g = grid.ifft(kh, overwrite=True)
    del kh
    pair = _pair(p.model, psi_low, g)
    del g
    out = grid.fft(pair)
    np.multiply(grid.dealias_mask, out, out=out)
    np.multiply(-p.charge / p.mass, out, out=out)
    return out


def current(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """Gauge current density J as a real (3, n, n, n) array.

    J_a = -(Q/m) Re <psi, D_a psi>_C2             (model "S")
    J_a = -(Q/m) Re <psi, sigma^a (sigma.D psi)>  (model "P")

    Both use dealiased pairings (every factor filtered, the product
    refiltered) so that ``current`` is exactly the A-derivative of the
    kinetic energy evaluated by ``energy_functional``.  Its transform,
    ``_current_hat``, is the one the whole A-side of the solver reads.
    """
    st = _state(grid, p, psi, A)
    j_hat = _current_hat(grid, p, st.psi_low, st.kpsi_hat * grid.dealias_mask)
    return grid.ifft(j_hat, overwrite=True).real.copy()


__all__ = [
    "SIGMA",
    "sigma_dot",
    "kinetic_hat",
    "KineticState",
    "kinetic_state",
    "covariant_gradient",
    "covariant_laplacian",
    "spin_term",
    "current",
]
