"""Periodic cubic box: grid geometry, wavenumbers, FFT conventions.

Conventions fixed project-wide:

* physical arrays are C-ordered ``(ix, iy, iz)`` (z fastest), node
  coordinates ``x_i = i*h`` with ``h = box_l/n``;
* a field with components stores them first: ``(c, n, n, n)``, so each
  component is one contiguous block, an (n, n, n) table broadcasts over
  the component axes, and one transform call covers a whole stack;
* forward transforms are unnormalized, inverse transforms divide by n³
  (numpy's default "backward" norm), so Parseval reads
  ``h³ Σ|f|² = h³/n³ Σ|f̂|²``;
* the 2/3-rule dealias mask keeps integer modes ``|m| ≤ (n-1)//3`` per
  axis.  With that cutoff the product of two kept modes can never alias
  back into the kept band, so quadratic products are exactly alias-free.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as _sfft


def _workers() -> int:
    """FFT worker count from MPW_THREADS: its integer value, at least 1;
    1 when it is unset or not an integer."""
    raw = os.environ.get("MPW_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@functools.lru_cache(maxsize=4)
def _tables(n: int, box_l: float) -> dict:
    """The spectral tables of the (n, box_l) grid by attribute name, built
    once and shared, read-only, by every equal grid."""
    h = box_l / n
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    kvec = np.stack(np.meshgrid(k1, k1, k1, indexing="ij"))
    kx, ky, kz = kvec
    k2 = kx**2 + ky**2 + kz**2
    inv_k2 = np.zeros_like(k2)
    nz = k2 > 0
    inv_k2[nz] = 1.0 / k2[nz]

    m_cut = (n - 1) // 3
    modes = np.rint(k1 / (2.0 * np.pi / box_l)).astype(int)
    keep1 = np.abs(modes) <= m_cut
    mask = keep1[:, None, None] & keep1[None, :, None] & keep1[None, None, :]

    # Nyquist planes: real fields cannot carry conjugate-symmetric
    # content under odd (ik) multipliers there, so solenoidal
    # projections drop them
    nyq1 = np.arange(n) != n // 2
    nyq = nyq1[:, None, None] & nyq1[None, :, None] & nyq1[None, None, :]
    for table in (kvec, k2, inv_k2, mask, nyq):
        table.flags.writeable = False
    return {"k": kvec, "k2": k2, "inv_k2": inv_k2, "dealias_mask": mask,
            "nyquist_mask": nyq, "mode_cut": m_cut}


@dataclass(frozen=True)
class Grid:
    """Uniform n×n×n periodic grid on a cube of side ``box_l``.

    n must be even (real Nyquist pairing) and at least 8 so the dealias
    band is nonempty.  The spectral tables are built once per (n, box_l)
    and shared, read-only, by equal grids; ``workers``, the FFT worker
    count, is set per grid: MPW_THREADS is read when the grid is built,
    not on each transform.
    """

    n: int
    box_l: float

    # derived, filled in __post_init__
    spacing: float = field(init=False, repr=False)
    cell: float = field(init=False, repr=False)
    workers: int = field(init=False, repr=False, compare=False)
    # spectral tables, functions of (n, box_l): the angular wavenumbers k
    # as one (3, n, n, n) stack (kx, ky, kz); k2 = |k|^2; inv_k2 = 1/|k|^2
    # with the k = 0 entry zeroed (torus Poisson convention); the 2/3-rule
    # dealias_mask and its cutoff mode_cut; nyquist_mask, True away from
    # the Nyquist planes (index n/2 on any axis)
    k: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    inv_k2: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    nyquist_mask: np.ndarray = field(init=False, repr=False, compare=False)
    mode_cut: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n % 2 != 0 or self.n < 8:
            raise ValueError(f"grid size must be even and >= 8, got n={self.n}")
        if not (self.box_l > 0 and np.isfinite(self.box_l)):
            raise ValueError(f"box length must be positive and finite, got {self.box_l}")
        h = self.box_l / self.n
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "cell", h**3)
        object.__setattr__(self, "workers", _workers())

        for name, table in _tables(self.n, self.box_l).items():
            object.__setattr__(self, name, table)

    # -- geometry ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    def axis_coords(self) -> np.ndarray:
        """1-D node coordinates, x_i = i*h in [0, box_l)."""
        return np.arange(self.n) * self.spacing

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (X, Y, Z) coordinate arrays."""
        x = self.axis_coords()
        return np.meshgrid(x, x, x, indexing="ij")

    def open_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, Y, Z) as (n, 1, 1), (1, n, 1) and (1, 1, n) arrays: an
        element-wise formula in them broadcasts to the values it takes on
        ``coords()``, with the per-axis work done on n points."""
        x = self.axis_coords()
        return np.ix_(x, x, x)

    def center(self) -> np.ndarray:
        return np.full(3, 0.5 * self.box_l)

    # -- transforms --------------------------------------------------------

    def fft(self, f: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Forward FFT over the three trailing (grid) axes, one call for a
        whole stack of components.  With ``overwrite`` a complex ``f`` may
        be reused as the output buffer, so callers pass it only for a
        temporary they no longer read."""
        return _sfft.fftn(f, axes=(-3, -2, -1), workers=self.workers, overwrite_x=overwrite)

    def ifft(self, fh: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Inverse of ``fft``, with the same axes and ``overwrite`` rule."""
        return _sfft.ifftn(fh, axes=(-3, -2, -1), workers=self.workers, overwrite_x=overwrite)

    # -- quadrature --------------------------------------------------------

    def integrate(self, f: np.ndarray) -> complex | float:
        """∫ f dx over the box (grid quadrature, pairwise summation)."""
        return np.sum(f) * self.cell


__all__ = ["Grid"]
