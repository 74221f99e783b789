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
every energy term read it.

Every sum over the directions a is taken before a forward transform:
sigma is a constant matrix and the sum is linear, so both commute with
the mask and the FFT.  Model P forms (sigma . T A) T psi pointwise
(``_sigma_mul``) and transforms that one spinor, 2 scalar transforms
for K psi with a field; model S sums the products A_a T h_a of its
Laplacian in real space.  A spin-up state (psi_down exactly zero) may
be carried as its (1, n, n, n) block: ``_sigma_mul`` leaves out its
psi_down terms, model S keeps the (3, 1, n, n, n) stack, and ``_pair``
of model "S" sums the components it is given, so the record costs 2
scalar transforms for psi and 3 (S) or 2 (P) for K psi with a field.
The energy terms read the record of a block for either model; the
model P current pairs T psi with both components of sigma . D psi, so
a model P solve carries the full spinor.

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
    return _sigma_mul(vec.reshape(vec.shape + (1,) * (psi.ndim - vec.ndim)), psi)


def _sigma_mul(a, psi: np.ndarray) -> np.ndarray:
    """(sigma . a) psi, pointwise, shape (2, ...): of a (2, ...) spinor,

        ((a_x - i a_y) psi_down + a_z psi_up, (a_x + i a_y) psi_up - a_z psi_down),

    and of a (1, ...) spin-up block the same with its psi_down terms left
    out.  ``a`` is indexed by direction: a (3, ...) stack of fields, such
    as T A or the wavenumbers k, or a constant 3-vector.  Each component
    is formed in place, with one temporary of its size at a time."""
    up = psi[0]
    out = np.empty((2,) + np.broadcast_shapes(np.shape(a[0]), up.shape), dtype=complex)
    np.multiply(a[1], up, out=out[1])
    out[1] *= 1j
    out[1] += a[0] * up
    if len(psi) == 1:
        np.multiply(a[2], up, out=out[0])
        return out
    down = psi[1]
    np.multiply(a[1], down, out=out[0])
    out[0] *= -1j
    out[0] += a[0] * down
    out[0] += a[2] * up
    out[1] -= a[2] * down
    return out


def _product_hat(grid: Grid, p: PhysParams, prod: np.ndarray) -> np.ndarray:
    """(Q/c) mask FFT(prod) of a product of T A with a band-limited field:
    one transform call, in place over ``prod``, a temporary of the caller."""
    out = grid.fft(prod, overwrite=True)
    np.multiply(grid.dealias_mask, out, out=out)
    np.multiply(p.charge / p.light_speed, out, out=out)
    return out


def _field_hat(grid: Grid, p: PhysParams, psi_low, a_low) -> np.ndarray:
    """Field part of the transform of K psi from psi_low = T psi and
    a_low = T A: (Q/c) mask FFT((sigma . a_low) psi_low), (2, ...), for
    "P"; the stack (Q/c) mask FFT(a_low_a psi_low), (3, c, ...), for "S"."""
    if p.model == "P":
        return _product_hat(grid, p, _sigma_mul(a_low, psi_low))
    return _product_hat(grid, p, a_low[:, None] * psi_low)


def kinetic_hat(grid: Grid, p: PhysParams, psi_hat, psi_low, a_low) -> np.ndarray:
    """Transform of the kinetic operator K psi of the model: sigma . D psi
    for "P", the stack of the three D_a psi, (3, c, n, n, n), for "S".

    Takes psi_hat = FFT(psi), psi_low = T psi and a_low = T A (None for
    A = 0).  Model "P" reads

        K psi_hat = -hbar (sigma . k) psi_hat + (Q/c) mask FFT((sigma . T A) T psi),

    one forward transform of a spinor; model "S" spends one forward
    transform per direction on the products a_low_a psi_low, in one call,
    and adds its derivative terms one direction at a time, so no second
    stack is held.  Both read the field part from ``_field_hat`` and add
    the derivative terms into it.  The kinetic energy of either model is
    |K psi|^2 / 2m; callers take it from this transform by Parseval.
    """
    if p.model == "P":
        deriv = _sigma_mul(grid.k, psi_hat)
        deriv *= -p.hbar
        if a_low is None:
            return deriv
        out = _field_hat(grid, p, psi_low, a_low)
        out += deriv
        return out
    if a_low is None:
        return (-p.hbar * grid.k)[:, None] * psi_hat
    out = _field_hat(grid, p, psi_low, a_low)
    for a in range(3):
        out[a] += (-p.hbar * grid.k[a]) * psi_hat
    return out


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
    it is None: 4 scalar transforms for psi, and for K psi with a field 6
    (model S) or 2 (model P).
    Callers that evaluate many psi against one A band it once."""
    return _record(grid, p, *spectral.band(grid, as_array(psi)), a_low)


def _record(grid: Grid, p: PhysParams, psi_hat, psi_low, a_low) -> KineticState:
    """The ``KineticState`` of the psi whose FFT and T psi are given: the
    product transforms of K psi with a field (one per direction and
    component for model S, one per component for model P), none at A = 0.
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
    component-first fields on ``grid``.  psi is banded before A: in the
    other order the peak RSS of ``mpwave check`` at n = 32 reads about
    1 MB higher under glibc malloc, for the same traced peak."""
    psi_hat, psi_low = spectral.band(grid, component_array(grid, psi, 2, "psi"))
    return _record(grid, p, psi_hat, psi_low, _a_band(grid, component_array(grid, A, 3, "A"))[1])


def covariant_gradient(grid: Grid, p: PhysParams, psi, A) -> np.ndarray:
    """All three components D_a psi, stacked as (3, 2, n, n, n): the
    inverse transform of the model "S" K psi, for either model."""
    return grid.ifft(_state(grid, p.with_(model="S"), psi, A).kpsi_hat, overwrite=True)


def _pair(model: str, psi_low: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pointwise Re <psi_low, g_a> (model "S") or Re <psi_low, sigma^a g>
    (model "P") for a = x, y, z, stacked as (3, n, n, n), for ``g`` = T K
    psi as ``kinetic_hat`` builds it.  Model "S" writes its products over the
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
    """Transform of K^dagger K psi, read from the record ``st``, with no
    transform at A = 0.

    Model "P": sigma . D is self-adjoint, so K^dagger K psi = K h with
    h = K psi, whose transform the record holds: ``kinetic_hat`` of h_hat
    and T h, one inverse and one forward transform of a spinor.  Model
    "S": sum_a D_a h_a with h_a = (D psi)_a, that is

        -hbar sum_a k_a h_a_hat + (Q/c) mask FFT(sum_a A_a T h_a),

    whose products are summed in real space, one inverse transform per
    direction and one forward transform of the sum.  In both the product
    sum is transformed in place before the derivative terms are added,
    so no stack is held beside the record and the sum."""
    kpsi = st.kpsi_hat
    if p.model == "P":
        low = None if st.a_low is None else grid.ifft(kpsi * grid.dealias_mask, overwrite=True)
        return kinetic_hat(grid, p, kpsi, low, st.a_low)
    out = np.zeros(kpsi.shape[1:], dtype=complex)
    if st.a_low is not None:
        for a in range(3):
            low = grid.ifft(kpsi[a] * grid.dealias_mask, overwrite=True)
            np.multiply(st.a_low[a], low, out=low)
            out += low
            del low
        out = _product_hat(grid, p, out)
    for a in range(3):
        out += (-p.hbar * grid.k[a]) * kpsi[a]
    return out


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
