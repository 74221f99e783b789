"""FFT-based differential operators on the periodic box.

All functions take raw ndarrays whose trailing three axes are the grid
axes; leading component axes (spinor or vector) pass through untouched,
and an (n, n, n) symbol broadcasts over them.  Vector fields are
(3, n, n, n) stacks.  Real inputs give real outputs (the imaginary
round-off from the FFT round trip is dropped).

The only nonlinear product is the 2/3-rule product T(T(a)·T(f)), with T
the sharp band limit :func:`dealias`.  T is an orthogonal projector in
the grid inner product, so the product is self-adjoint in each factor.
The kernels inline it on the transforms they hold; every energy and
gradient is built from it, which is what makes the discrete
integration-by-parts identities exact.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


def _match_real(out: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``out`` for a complex ``like``; its real part otherwise, as an array
    of its own, since a ``.real`` view would keep all of ``out`` alive."""
    return out.real.copy() if like.dtype.kind != "c" else out


def gradient(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Scalar (n,n,n) → (3,n,n,n) gradient."""
    out = grid.ifft(1j * grid.k * grid.fft(f), overwrite=True)
    return _match_real(out, f)


def divergence(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Vector (3,n,n,n) → (n,n,n) divergence."""
    Fh = grid.fft(F)
    out = grid.ifft(sum(1j * grid.k[a] * Fh[a] for a in range(3)))
    return _match_real(out, F)


def curl(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Vector (3,n,n,n) → (3,n,n,n) curl, (∇×F)_i = ε_ijk ∂_j F_k."""
    Fh = grid.fft(F)
    kx, ky, kz = grid.k
    out = np.stack([
        1j * (ky * Fh[2] - kz * Fh[1]),
        1j * (kz * Fh[0] - kx * Fh[2]),
        1j * (kx * Fh[1] - ky * Fh[0]),
    ])
    return _match_real(grid.ifft(out, overwrite=True), F)


def directional_derivative(grid: Grid, f: np.ndarray, v) -> np.ndarray:
    """(v·∇)f for a constant vector v."""
    v = np.asarray(v, dtype=float)
    kx, ky, kz = grid.k
    sym = 1j * (v[0] * kx + v[1] * ky + v[2] * kz)
    return _match_real(grid.ifft(sym * grid.fft(f), overwrite=True), f)


def project_hat(grid: Grid, Fh: np.ndarray) -> np.ndarray:
    """Leray projection of the transform ``Fh`` of a vector field, in place.

    F̂ ↦ F̂ − k (k·F̂)/|k|²; the k = 0 mode passes through unchanged.
    Nyquist planes are dropped: the per-mode multiplier is not
    conjugate-symmetric there, so a real field cannot stay both real and
    solenoidal with that content.  Returns ``Fh``.
    """
    Fh *= grid.nyquist_mask
    kx, ky, kz = grid.k
    kdot = kx * Fh[0] + ky * Fh[1] + kz * Fh[2]
    kdot *= grid.inv_k2
    Fh -= grid.k * kdot
    return Fh


def helmholtz_project(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Leray projection onto divergence-free fields: ``project_hat`` of
    the transform of F, transformed back."""
    return _match_real(grid.ifft(project_hat(grid, grid.fft(F)), overwrite=True), F)


def poisson_solve(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Solve −Δu = f − f̄ on the torus; returns the zero-mean solution.

    û = f̂/|k|² for k ≠ 0, û(0) = 0.  This is the periodic stand-in for
    the Newtonian potential (1/4π)∫ f(y)/|x−y| dy.
    """
    out = grid.ifft(grid.inv_k2 * grid.fft(f), overwrite=True)
    return _match_real(out, f)


def band(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transform f̂ and the band limit T f, from one forward FFT."""
    fh = grid.fft(f)
    return fh, _match_real(grid.ifft(grid.dealias_mask * fh, overwrite=True), f)


def dealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Sharp 2/3-rule band limit T."""
    return band(grid, f)[1]


def zero_mean(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Remove the k=0 (mean) component of each field component."""
    return F - np.mean(F, axis=(-3, -2, -1), keepdims=True)


__all__ = [
    "gradient",
    "divergence",
    "curl",
    "directional_derivative",
    "project_hat",
    "helmholtz_project",
    "poisson_solve",
    "band",
    "dealias",
    "zero_mean",
]
