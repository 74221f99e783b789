"""FFT-based differential operators on the periodic box.

All functions take raw ndarrays whose leading three axes are the grid
axes; trailing component axes (spinor or vector) pass through untouched.
Real inputs give real outputs (the imaginary round-off from the FFT
round trip is dropped).

The only nonlinear product is the 2/3-rule product T(T(a)·T(f)) of
:func:`dealiased_mul`.  T is an orthogonal projector in the grid inner
product, so the product is self-adjoint in each factor.  The kernels
inline the same T(Ta·Tf) product rather than call :func:`dealiased_mul`;
every energy and gradient is built from it, which is what makes the
discrete integration-by-parts identities exact.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


def _match_real(out: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``out`` for a complex ``like``; its real part otherwise, as an array
    of its own, since a ``.real`` view would keep all of ``out`` alive."""
    return out.real.copy() if like.dtype.kind != "c" else out


def _expand(sym: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Broadcast a (n,n,n) spectral symbol over trailing component axes."""
    return sym.reshape(sym.shape + (1,) * (arr.ndim - 3))


def partial_deriv(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """∂f/∂x_axis, spectrally exact."""
    ik = 1j * grid.k[axis]
    out = grid.ifft(_expand(ik, f) * grid.fft(f))
    return _match_real(out, f)


def gradient(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Scalar (n,n,n) → (n,n,n,3) gradient."""
    fh = grid.fft(f)
    out = np.stack([grid.ifft(1j * grid.k[a] * fh) for a in range(3)], axis=-1)
    return _match_real(out, f)


def divergence(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Vector (n,n,n,3) → (n,n,n) divergence."""
    Fh = grid.fft(F)
    out = grid.ifft(sum(1j * grid.k[a] * Fh[..., a] for a in range(3)))
    return _match_real(out, F)


def curl(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Vector (n,n,n,3) → (n,n,n,3) curl, (∇×F)_i = ε_ijk ∂_j F_k."""
    Fh = grid.fft(F)
    kx, ky, kz = grid.k
    cx = grid.ifft(1j * (ky * Fh[..., 2] - kz * Fh[..., 1]))
    cy = grid.ifft(1j * (kz * Fh[..., 0] - kx * Fh[..., 2]))
    cz = grid.ifft(1j * (kx * Fh[..., 1] - ky * Fh[..., 0]))
    return _match_real(np.stack([cx, cy, cz], axis=-1), F)


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    out = grid.ifft(_expand(-grid.k2, f) * grid.fft(f))
    return _match_real(out, f)


def directional_derivative(grid: Grid, f: np.ndarray, v) -> np.ndarray:
    """(v·∇)f for a constant vector v."""
    v = np.asarray(v, dtype=float)
    kx, ky, kz = grid.k
    sym = 1j * (v[0] * kx + v[1] * ky + v[2] * kz)
    out = grid.ifft(_expand(sym, f) * grid.fft(f))
    return _match_real(out, f)


def project_hat(grid: Grid, Fh: np.ndarray) -> np.ndarray:
    """Leray projection of the transform ``Fh`` of a vector field, in place.

    F̂ ↦ F̂ − k (k·F̂)/|k|²; the k = 0 mode passes through unchanged.
    Nyquist planes are dropped: the per-mode multiplier is not
    conjugate-symmetric there, so a real field cannot stay both real and
    solenoidal with that content.  Returns ``Fh``.
    """
    Fh *= grid.nyquist_mask[..., None]
    kx, ky, kz = grid.k
    kdot = kx * Fh[..., 0] + ky * Fh[..., 1] + kz * Fh[..., 2]
    kdot *= grid.inv_k2
    for a, ka in enumerate(grid.k):
        Fh[..., a] -= ka * kdot
    return Fh


def helmholtz_project(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Leray projection onto divergence-free fields: ``project_hat`` of
    the transform of F, transformed back."""
    return _match_real(grid.ifft(project_hat(grid, grid.fft(F))), F)


def poisson_solve(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Solve −Δu = f − f̄ on the torus; returns the zero-mean solution.

    û = f̂/|k|² for k ≠ 0, û(0) = 0.  This is the periodic stand-in for
    the Newtonian potential (1/4π)∫ f(y)/|x−y| dy.
    """
    fh = grid.fft(f)
    out = grid.ifft(_expand(grid.inv_k2, f) * fh)
    return _match_real(out, f)


def band(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transform f̂ and the band limit T f, from one forward FFT."""
    fh = grid.fft(f)
    return fh, _match_real(grid.ifft(_expand(grid.dealias_mask, f) * fh), f)


def dealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Sharp 2/3-rule band limit T."""
    return band(grid, f)[1]


def dealiased_mul(grid: Grid, a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """2/3-rule product T(T(a)·T(f)); ``a`` is a real scalar field.

    Broadcasts over trailing component axes of ``f``.
    """
    ta = dealias(grid, a)
    tf = dealias(grid, f)
    prod = _expand(ta, tf) * tf if tf.ndim > 3 else ta * tf
    return dealias(grid, prod)


def zero_mean(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Remove the k=0 (mean) component of each field component."""
    return F - np.mean(F, axis=(0, 1, 2))


__all__ = [
    "partial_deriv",
    "gradient",
    "divergence",
    "curl",
    "laplacian",
    "directional_derivative",
    "project_hat",
    "helmholtz_project",
    "poisson_solve",
    "band",
    "dealias",
    "dealiased_mul",
    "zero_mean",
]
