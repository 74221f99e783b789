"""Covariant derivatives, Pauli algebra, and gauge currents.

Spinors are arrays of shape (n, n, n, 2) with the spin index last.  The
magnetic covariant derivative acting on a spinor is

    D_a psi = i*hbar d_a psi + (Q/c) A_a psi,        a = 1, 2, 3,

where the product A_a psi is evaluated through the dealiased multiply
(see :mod:`mpwave.spectral`), so each D_a is exactly self-adjoint for the
grid inner product.  The kinetic operator K is D psi for the scalar
model ("S") and sigma . D psi for the spin-coupled model ("P"); the
kinetic energy is |K psi|^2 / 2m and ``covariant_laplacian`` is
K^dagger K psi, its exact psi-gradient, in both.

The Lichnerowicz identity

    (sigma . D)^2 psi = sum_a D_a D_a psi - (hbar*Q/c) sigma . B psi

is a check, through ``spin_term``, not a kernel: its two sides agree
exactly whenever psi and A are band limited to half the dealiasing
cutoff (products of three such factors stay below the grid Nyquist
band); for rougher fields they differ by the aliasing residue of the
cubic terms.
"""
from __future__ import annotations

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


def _low_pass(grid: Grid, A, a_low) -> np.ndarray:
    """Resolve the optional cached dealiased vector potential."""
    if a_low is not None:
        return _arr(a_low)
    return spectral.dealias(grid, _arr(A))


def covariant_gradient(
    grid: Grid,
    p: PhysParams,
    psi,
    A,
    a_low: np.ndarray | None = None,
) -> np.ndarray:
    """All three components D_a psi, stacked as (n, n, n, 3, 2).

    ``a_low`` may carry a precomputed dealias(A) (it is recomputed here
    otherwise); callers that apply many derivatives against one A save
    the repeated band limiting.
    """
    psi = _arr(psi)
    a_low = _low_pass(grid, A, a_low)
    mask = grid.dealias_mask[..., None]
    out = np.empty(psi.shape[:3] + (3, 2), dtype=complex)
    psi_hat = grid.fft(psi)
    psi_low = grid.ifft(psi_hat * mask)
    kvec = grid.k
    coef = p.charge / p.light_speed
    for a in range(3):
        dpsi = grid.ifft(1j * kvec[a][..., None] * psi_hat)
        prod_hat = grid.fft(a_low[..., a, None] * psi_low)
        out[..., a, :] = 1j * p.hbar * dpsi + coef * grid.ifft(prod_hat * mask)
    return out


def _spin_contract(model: str, c: np.ndarray) -> np.ndarray:
    """Kinetic contraction of the model.

    ``c`` stacks one spinor per direction, shape (..., 3, 2).  Model "P"
    contracts it with the Pauli matrices to sum_b sigma^b c_b, a (..., 2)
    spinor, summed in the order x, y, z; model "S" keeps it as it is.
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


def _pair(model: str, psi_low: np.ndarray, g: np.ndarray, a: int) -> np.ndarray:
    """Pointwise Re <psi_low, g_a> (model "S") or Re <psi_low, sigma^a g>
    (model "P"), for ``g`` as returned by ``_spin_contract``."""
    if model == "S":
        return np.real(np.sum(np.conj(psi_low) * g[..., a, :], axis=-1))
    return np.real(np.einsum("...i,ij,...j->...", np.conj(psi_low), SIGMA[a], g))


def kinetic_gradient(
    grid: Grid,
    p: PhysParams,
    psi,
    A,
    a_low: np.ndarray | None = None,
) -> np.ndarray:
    """Kinetic operator K of the model: sigma . D psi for "P", D psi for "S".

    The kinetic energy of either model is |K psi|^2 / 2m.  ``a_low`` is
    as in ``covariant_gradient``.
    """
    return _spin_contract(p.model, covariant_gradient(grid, p, psi, A, a_low=a_low))


def covariant_laplacian(
    grid: Grid,
    p: PhysParams,
    psi,
    A,
    a_low: np.ndarray | None = None,
) -> np.ndarray:
    """K^dagger K psi = sum_a D_a h_a, with h_a = D_a psi (model "S") or
    sigma^a K psi (model "P").  Each D_a is exactly self-adjoint, so
    <phi, covariant_laplacian psi> = <K phi, K psi> to rounding on any
    grid fields."""
    psi = _arr(psi)
    a_low = _low_pass(grid, A, a_low)
    mask = grid.dealias_mask[..., None]
    h = _spin_expand(p.model, kinetic_gradient(grid, p, psi, A, a_low=a_low))
    kvec = grid.k
    coef = p.charge / p.light_speed
    acc_hat = np.zeros_like(psi)
    for a in range(3):
        comp_hat = grid.fft(h[..., a, :])
        acc_hat += 1j * p.hbar * (1j * kvec[a][..., None]) * comp_hat
        comp_low = grid.ifft(comp_hat * mask)
        acc_hat += coef * mask * grid.fft(a_low[..., a, None] * comp_low)
    return grid.ifft(acc_hat)


def spin_term(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """-(hbar Q / c) T(sigma . B T psi), B = curl T(A): covariant_laplacian
    of model "P" minus that of model "S" on fields band limited to half
    the dealias cutoff (Lichnerowicz); a check, not a kernel."""
    b_field = spectral.curl(grid, spectral.dealias(grid, _arr(A)))
    spin = sigma_dot(b_field, spectral.dealias(grid, _arr(psi)))
    return -p.hbar * p.charge / p.light_speed * spectral.dealias(grid, spin)


def current(
    grid: Grid,
    p: PhysParams,
    psi,
    A,
    a_low: np.ndarray | None = None,
) -> np.ndarray:
    """Gauge current density J as a real (n, n, n, 3) array.

    J_a = -(Q/m) Re <psi, D_a psi>_C2             (model "S")
    J_a = -(Q/m) Re <psi, sigma^a (sigma.D psi)>  (model "P")

    Both use dealiased pairings (every factor filtered, the product
    refiltered) so that ``current`` is exactly the A-derivative of the
    kinetic energy evaluated by ``energy_functional``.
    """
    psi = _arr(psi)
    psi_low = spectral.dealias(grid, psi)
    g = spectral.dealias(grid, kinetic_gradient(grid, p, psi, A, a_low=a_low))
    out = np.empty(psi.shape[:3] + (3,), dtype=float)
    for a in range(3):
        out[..., a] = spectral.dealias(grid, _pair(p.model, psi_low, g, a))
    return -(p.charge / p.mass) * out


__all__ = [
    "SIGMA",
    "sigma_dot",
    "sigma_identity_check",
    "covariant_gradient",
    "kinetic_gradient",
    "covariant_laplacian",
    "spin_term",
    "current",
]
