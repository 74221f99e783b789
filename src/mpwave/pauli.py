"""Covariant derivatives, Pauli algebra, and gauge currents.

Spinors are arrays of shape (n, n, n, 2) with the spin index last.  The
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
every energy term read it.

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
from .fields import PhysParams, as_array
from .grid import Grid

#: Pauli matrices, shape (3, 2, 2).
SIGMA = np.array(
    [
        [[0.0 + 0.0j, 1.0 + 0.0j], [1.0 + 0.0j, 0.0 + 0.0j]],
        [[0.0 + 0.0j, 0.0 - 1.0j], [0.0 + 1.0j, 0.0 + 0.0j]],
        [[1.0 + 0.0j, 0.0 + 0.0j], [0.0 + 0.0j, -1.0 + 0.0j]],
    ]
)


_arr = as_array


def sigma_dot(vec: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Contract a 3-vector of scalar fields with the Pauli matrices.

    ``vec`` has shape (..., 3) or (3,), ``psi`` has shape (..., 2); the
    result is sum_a vec_a (sigma^a psi).
    """
    return _spin_contract("P", np.asarray(vec)[..., :, None] * np.asarray(psi)[..., None, :])


def sigma_identity_check(f: np.ndarray, g: np.ndarray) -> float:
    """Max-norm defect of (sigma.f)(sigma.g) = (f.g) I + i sigma.(f x g).

    ``f`` and ``g`` are complex 3-vectors (or arrays broadcastable against
    SIGMA contraction).  Returns the largest absolute entry of the
    difference of the two 2x2 matrix expressions.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    mf = np.tensordot(f, SIGMA, axes=(-1, 0))
    mg = np.tensordot(g, SIGMA, axes=(-1, 0))
    lhs = mf @ mg
    dot = np.sum(f * g, axis=-1)
    crs = np.cross(f, g)
    rhs = dot[..., None, None] * np.eye(2) + 1.0j * np.tensordot(crs, SIGMA, axes=(-1, 0))
    return float(np.max(np.abs(lhs - rhs)))


def _covariant_hat(grid: Grid, p: PhysParams, psi_hat, psi_low, a_low) -> np.ndarray:
    """Transforms of the three D_a psi, stacked as (n, n, n, 3, 2):
    -hbar k_a psi_hat + (Q/c) mask FFT(a_low_a psi_low), a_low None for A = 0."""
    mask = grid.dealias_mask[..., None]
    coef = p.charge / p.light_speed
    out = np.empty(psi_hat.shape[:3] + (3, 2), dtype=complex)
    for a in range(3):
        out[..., a, :] = (-p.hbar * grid.k[a][..., None]) * psi_hat
        if a_low is not None:
            out[..., a, :] += coef * (mask * grid.fft(a_low[..., a, None] * psi_low))
    return out


def kinetic_hat(grid: Grid, p: PhysParams, psi_hat, psi_low, a_low) -> np.ndarray:
    """Transform of the kinetic operator K psi of the model: sigma . D psi
    for "P", the stack D psi for "S".

    Takes psi_hat = FFT(psi), psi_low = T psi and a_low = T A (None for
    A = 0), and spends one forward transform per direction on the products
    a_low_a psi_low.  The kinetic energy of either model is |K psi|^2 / 2m;
    callers take it from this transform by Parseval.
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
    psi_hat, psi_low = spectral.band(grid, _arr(psi))
    return KineticState(psi_hat, psi_low, kinetic_hat(grid, p, psi_hat, psi_low, a_low), a_low)


def _state(grid: Grid, p: PhysParams, psi, A) -> KineticState:
    """``kinetic_state`` of (psi, A) for a real field A; an all-zero A
    gives the field-free record, with no transform of A."""
    A = _arr(A)
    return kinetic_state(grid, p, psi, spectral.dealias(grid, A) if np.any(A) else None)


def covariant_gradient(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """All three components D_a psi, stacked as (n, n, n, 3, 2)."""
    psi_hat, psi_low = spectral.band(grid, _arr(psi))
    return grid.ifft(_covariant_hat(grid, p, psi_hat, psi_low, spectral.dealias(grid, _arr(A))))


def _spin_contract(model: str, c: np.ndarray) -> np.ndarray:
    """Kinetic contraction of the model.

    ``c`` stacks one spinor per direction, shape (..., 3, 2).  Model "P"
    contracts it with the Pauli matrices to sum_b sigma^b c_b, a (..., 2)
    spinor, summed in the order x, y, z; model "S" keeps it as it is.
    The contraction is a constant matrix, so it commutes with the FFT.
    """
    if model == "S":
        return c
    out = np.empty(c.shape[:-2] + (2,), dtype=complex)
    out[..., 0] = c[..., 0, 1] - 1j * c[..., 1, 1] + c[..., 2, 0]
    out[..., 1] = c[..., 0, 0] + 1j * c[..., 1, 0] - c[..., 2, 1]
    return out


def _spin_expand(model: str, h: np.ndarray) -> np.ndarray:
    """Adjoint of ``_spin_contract``: the stack sigma^a h over a = x, y, z
    for model "P", shape (..., 3, 2); model "S" keeps ``h``."""
    if model == "S":
        return h
    out = np.empty(h.shape[:-1] + (3, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = h[..., 1], h[..., 0]
    out[..., 1, 0], out[..., 1, 1] = -1j * h[..., 1], 1j * h[..., 0]
    out[..., 2, 0], out[..., 2, 1] = h[..., 0], -h[..., 1]
    return out


def _pair_one(psi_low: np.ndarray, g_a: np.ndarray) -> np.ndarray:
    """Pointwise Re <psi_low, g_a>, the model "S" pairing of one direction;
    the two spin terms are added directly, not by a size-2 reduction."""
    t = np.conj(psi_low) * g_a
    return t[..., 0].real + t[..., 1].real


def _pair(model: str, psi_low: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pointwise Re <psi_low, g_a> (model "S") or Re <psi_low, sigma^a g>
    (model "P") for a = x, y, z, stacked as (..., 3), for ``g`` as
    returned by ``_spin_contract``."""
    out = np.empty(psi_low.shape[:-1] + (3,))
    if model == "S":
        for a in range(3):
            out[..., a] = _pair_one(psi_low, g[..., a, :])
        return out
    c01 = np.conj(psi_low[..., 0]) * g[..., 1]
    c10 = np.conj(psi_low[..., 1]) * g[..., 0]
    out[..., 0] = c01.real + c10.real
    out[..., 1] = c01.imag - c10.imag
    del c01, c10
    out[..., 2] = (np.conj(psi_low[..., 0]) * g[..., 0]).real - (
        np.conj(psi_low[..., 1]) * g[..., 1]
    ).real
    return out


def kinetic_gradient(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """Kinetic operator K of the model: sigma . D psi for "P", D psi for "S".

    The inverse transform of ``kinetic_hat``.
    """
    return grid.ifft(_state(grid, p, psi, A).kpsi_hat)


def _laplacian_hat(grid: Grid, p: PhysParams, st: KineticState) -> np.ndarray:
    """Transform of K^dagger K psi = sum_a D_a h_a, read from the record
    ``st``: h_hat is ``_spin_expand`` of K psi_hat, a constant matrix, so
    h needs no forward FFT of its own, and with A = 0 no transform at all."""
    h_hat = _spin_expand(p.model, st.kpsi_hat)
    mask = grid.dealias_mask[..., None]
    coef = p.charge / p.light_speed
    acc_hat = np.zeros(h_hat.shape[:3] + (2,), dtype=complex)
    for a in range(3):
        comp_hat = h_hat[..., a, :]
        acc_hat += (-p.hbar * grid.k[a][..., None]) * comp_hat
        if st.a_low is not None:
            comp_low = grid.ifft(comp_hat * mask)
            acc_hat += coef * (mask * grid.fft(st.a_low[..., a, None] * comp_low))
    return acc_hat


def covariant_laplacian(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """K^dagger K psi = sum_a D_a h_a, with h_a = D_a psi (model "S") or
    sigma^a K psi (model "P").  Each D_a is exactly self-adjoint, so
    <phi, covariant_laplacian psi> = <K phi, K psi> to rounding on any
    grid fields."""
    return grid.ifft(_laplacian_hat(grid, p, _state(grid, p, psi, A)))


def spin_term(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """-(hbar Q / c) T(sigma . B T psi), B = curl T(A): covariant_laplacian
    of model "P" minus that of model "S" on fields band limited to half
    the dealias cutoff (Lichnerowicz); a check, not a kernel."""
    b_field = spectral.curl(grid, spectral.dealias(grid, _arr(A)))
    spin = sigma_dot(b_field, spectral.dealias(grid, _arr(psi)))
    return -p.hbar * p.charge / p.light_speed * spectral.dealias(grid, spin)


def _pair_hat(grid: Grid, p: PhysParams, st: KineticState) -> np.ndarray:
    """Transform of T of the pairing ``_pair`` of T psi with T K psi, read
    from the record: the current is J = -(Q/m) times its inverse."""
    mask = grid.dealias_mask[..., None]
    if p.model == "S":  # one direction at a time, so T K psi is never held whole
        low = (grid.ifft(st.kpsi_hat[..., a, :] * mask) for a in range(3))
        pair = np.stack([_pair_one(st.psi_low, g_a) for g_a in low], axis=-1)
    else:
        pair = _pair(p.model, st.psi_low, grid.ifft(st.kpsi_hat * mask))
    return mask * grid.fft(pair)


def current(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """Gauge current density J as a real (n, n, n, 3) array.

    J_a = -(Q/m) Re <psi, D_a psi>_C2             (model "S")
    J_a = -(Q/m) Re <psi, sigma^a (sigma.D psi)>  (model "P")

    Both use dealiased pairings (every factor filtered, the product
    refiltered) so that ``current`` is exactly the A-derivative of the
    kinetic energy evaluated by ``energy_functional``.
    """
    pair_hat = _pair_hat(grid, p, _state(grid, p, psi, A))
    return -(p.charge / p.mass) * grid.ifft(pair_hat).real


__all__ = [
    "SIGMA",
    "sigma_dot",
    "sigma_identity_check",
    "kinetic_hat",
    "KineticState",
    "kinetic_state",
    "covariant_gradient",
    "kinetic_gradient",
    "covariant_laplacian",
    "spin_term",
    "current",
]
