"""Field containers and physical parameters.

Shapes are fixed project-wide: a spinor field is complex ``(2,n,n,n)``,
a vector field is real ``(3,n,n,n)``, a scalar field is complex
``(n,n,n)``.  The leading axis is the component axis; grid axes come
last, so FFTs run over the trailing three axes everywhere, each
component is one contiguous block and one transform call covers every
component.  ``component_array`` refuses any other shape, including the
component-last ``(n,n,n,c)`` order that state-file payloads keep (see
:mod:`mpwave.io`).

Inside the kernels a spinor whose spin-down component is exactly zero
travels as its spin-up block ``psi[:1]``, shape ``(1,n,n,n)``
(``_spin_up``), so no transform or product is spent on the zero; every
container and public return value keeps ``(2,n,n,n)`` (``_spinor``).

Reductions follow one deterministic-reduction convention.  Sums of
products, Re Σ ū·w and Σ|u|² (``_re_dot``), are BLAS dots over the
float64 views of each (n, n, n) block, with no temporary, and the block
sums are added in order; ``inner`` is ``np.vdot``.  ``l2_norm_sq`` reads
``_re_dot``, and so does ``energy._parseval``, the grid inner product on
transforms behind every norm and every inner product of the solver: a
norm weighted by a Fourier symbol s is the dot of û with s·û, so no sum
on transforms has another order.  A BLAS dot splits its sum by the CPU's
vector width and the BLAS thread count, so these bits are fixed on one
machine at one BLAS thread count but may differ across CPUs.  Adding the
blocks in order keeps a spin-up block's sum equal to its spinor's bit
for bit: the spinor adds an exact 0 per spin-down block.  Integrals of
other grid fields (``Grid.integrate``, the diagnostics' quadratures) go
through ``np.sum``, whose pairwise summation order is fixed for a given
array shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
from .errors import InputError
from .grid import Grid

MODELS = ("S", "P")


@dataclass(frozen=True)
class PhysParams:
    """Physical constants, constraint mass and boost velocity.

    ``model`` selects the covariant derivative: "S" (scalar/magnetic
    Schrödinger) or "P" (Pauli).  Defaults are the dimensionless desk
    units ħ = m = c = Q = λ = 1.
    """

    hbar: float = 1.0
    mass: float = 1.0
    light_speed: float = 1.0
    charge: float = 1.0
    lam: float = 1.0
    v: tuple[float, float, float] = (0.0, 0.0, 0.0)
    model: str = "S"

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "light_speed", "lam"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (self.charge != 0 and np.isfinite(self.charge)):
            raise ValueError(f"charge must be nonzero and finite, got {self.charge}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        v = np.asarray(self.v, dtype=float)
        if v.shape != (3,):
            raise ValueError("v must be a 3-vector")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"v must be finite, got {tuple(v)}")
        object.__setattr__(self, "v", tuple(float(c) for c in v))

    @property
    def v_arr(self) -> np.ndarray:
        return np.asarray(self.v, dtype=float)

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.v))

    def with_(self, **kw) -> "PhysParams":
        return replace(self, **kw)


def _check(grid: Grid, data: np.ndarray, shape: tuple, kinds: tuple, what: str) -> None:
    if data.shape != shape:
        raise ValueError(f"{what} data must have shape {shape}, got {data.shape}")
    if data.dtype.kind not in kinds:
        raise ValueError(f"{what} dtype must be one of kinds {kinds}, got {data.dtype}")


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    data: np.ndarray  # complex (n,n,n)

    def __post_init__(self) -> None:
        d = np.ascontiguousarray(np.asarray(self.data, dtype=np.complex128))
        _check(self.grid, d, self.grid.shape, ("c",), "ScalarField")
        object.__setattr__(self, "data", d)


@dataclass(frozen=True)
class SpinorField:
    """Two-component wave function ψ: box → ℂ²."""

    grid: Grid
    data: np.ndarray  # complex (2,n,n,n)

    def __post_init__(self) -> None:
        d = np.ascontiguousarray(np.asarray(self.data, dtype=np.complex128))
        _check(self.grid, d, (2,) + self.grid.shape, ("c",), "SpinorField")
        object.__setattr__(self, "data", d)

    def density(self) -> np.ndarray:
        """Pointwise |ψ|² = |ψ₁|² + |ψ₂|² (real (n,n,n))."""
        return np.sum(np.abs(self.data) ** 2, axis=0)


@dataclass(frozen=True)
class VectorField:
    """Real 3-vector field (the magnetic potential lives here)."""

    grid: Grid
    data: np.ndarray  # float (3,n,n,n)

    def __post_init__(self) -> None:
        d = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        _check(self.grid, d, (3,) + self.grid.shape, ("f",), "VectorField")
        object.__setattr__(self, "data", d)


AnyField = ScalarField | SpinorField | VectorField


# -- inner products ---------------------------------------------------------


def as_array(obj) -> np.ndarray:
    """Unwrap a field to its ndarray; ndarrays pass through untouched.

    (Plain ``getattr(obj, "data", obj)`` is a trap here: ndarrays expose
    a ``.data`` memoryview attribute of their own.)
    """
    if isinstance(obj, np.ndarray):
        return obj
    data = getattr(obj, "data", None)
    if isinstance(data, np.ndarray):
        return data
    return np.asarray(obj)


def component_array(grid: Grid, obj, comps: int, what: str) -> np.ndarray:
    """``as_array(obj)``, checked to hold ``comps`` components first,
    shape (comps, n, n, n) on ``grid``; InputError otherwise, so a
    component-last (n, n, n, comps) array is refused rather than
    transformed over the wrong axes."""
    arr = as_array(obj)
    if arr.shape != (comps,) + grid.shape:
        raise InputError(
            f"{what} has shape {arr.shape}; expected the component-first "
            f"shape {(comps,) + grid.shape}"
        )
    return arr


def _spin_up(psi: np.ndarray) -> np.ndarray:
    """The spin-up block ``psi[:1]`` of a spinor whose spin-down component
    is exactly zero, a view; ``psi`` itself otherwise.  A grid sum over the
    block equals that over ``psi``: the pairwise summation of the
    (2, n, n, n) array splits at the block boundary and adds an exact 0."""
    return psi if np.any(psi[1]) else psi[:1]


def _spinor(psi: np.ndarray) -> np.ndarray:
    """The (2, n, n, n) spinor of ``psi``: a spin-up block gets its zero
    spin-down component back, a full spinor is returned as it is."""
    return psi if len(psi) == 2 else np.concatenate([psi, np.zeros_like(psi)])


def _float_blocks(u) -> np.ndarray:
    """The float64 view of ``u``, one row per (n, n, n) block (per trailing
    three axes): real and imaginary parts interleave for a complex array."""
    u = np.asarray(u)
    u = np.ascontiguousarray(u, dtype=np.complex128 if u.dtype.kind == "c" else np.float64)
    return u.reshape(-1, int(np.prod(u.shape[-3:]))).view(np.float64)


def _re_dot(u, w=None) -> float:
    """Re Σ ū·w over every entry, or Σ|u|² when ``w`` is None: one BLAS dot
    per (n, n, n) block over the float64 views, with no temporary, the
    block sums added in order (the module's reduction convention).  ``u``
    and ``w`` have one shape and are both complex or both real."""
    ub = _float_blocks(u)
    wb = ub if w is None else _float_blocks(w)
    if wb.shape != ub.shape:
        raise ValueError(f"cannot pair arrays of shapes {np.shape(u)} and {np.shape(w)}")
    total = 0.0
    for a, b in zip(ub, wb):
        total += float(np.dot(a, b))
    return total


def inner(grid: Grid, f, g) -> complex:
    """Grid L² inner product ⟨f, g⟩ = h³ Σ f̄·g (all component axes summed)."""
    return complex(np.vdot(as_array(f), as_array(g)) * grid.cell)


def l2_norm_sq(grid: Grid, f) -> float:
    """Grid norm ‖f‖² = h³ Σ|f|²."""
    return _re_dot(as_array(f)) * grid.cell


def normalize_to_lambda(psi: SpinorField, lam: float) -> SpinorField:
    """Rescale ψ so that ‖ψ‖² = lam exactly in grid quadrature."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    nrm = l2_norm_sq(psi.grid, psi.data)
    if nrm == 0:
        raise ValueError("cannot normalize the zero field")
    return SpinorField(psi.grid, psi.data * np.sqrt(lam / nrm))


# -- transport ---------------------------------------------------------------


def translate(f: AnyField, shift) -> AnyField:
    """Periodic translation: (translate f)(x) = f(x - shift), spectrally exact.

    Works for each container type; component axes translate independently.
    """
    grid = f.grid
    s = np.asarray(shift, dtype=float)
    if s.shape != (3,):
        raise ValueError("shift must be a 3-vector")
    kx, ky, kz = grid.k
    phase = np.exp(-1j * (kx * s[0] + ky * s[1] + kz * s[2]))
    out = grid.ifft(grid.fft(f.data) * phase, overwrite=True)
    if isinstance(f, VectorField):
        return VectorField(grid, out.real)
    if isinstance(f, SpinorField):
        return SpinorField(grid, out)
    return ScalarField(grid, out)


# -- random ensembles ---------------------------------------------------------


def random_fields(
    grid: Grid,
    p: PhysParams,
    seed: int,
    corr_len: float = 2.0,
    *,
    max_mode: int | None = None,
    a_amp: float = 1.0,
) -> tuple[SpinorField, VectorField]:
    """Draw a smooth random constrained pair (ψ, A).

    ψ: complex Gaussian spectrum with envelope exp(-(|k| corr_len)²/2),
    normalized to ‖ψ‖² = p.lam.  A: same envelope, Helmholtz-projected
    (divergence-free), zero mean, rescaled to ‖A‖ = a_amp.

    ``max_mode`` optionally hard-truncates to integer modes |m| ≤ max_mode
    per axis (sharp band limit on top of the smooth envelope).

    Units: ``corr_len`` is an absolute length and ``a_amp`` the absolute
    grid L² norm of A, neither scaled by the physical constants of ``p``,
    so the draw is not covariant under a change of units: rescaling ħ, m,
    c, Q or L moves the start off the rescaled one by more than rounding.
    """
    psi, draw = _random_psi(grid, p, seed, corr_len, max_mode)
    a = grid.ifft(draw(3), overwrite=True).real
    a = spectral.zero_mean(grid, spectral.helmholtz_project(grid, a))
    nrm = np.sqrt(np.sum(a**2) * grid.cell)
    if nrm > 0:
        a *= a_amp / nrm
    return psi, VectorField(grid, a)


def _random_psi(
    grid: Grid, p: PhysParams, seed: int, corr_len: float = 2.0, max_mode: int | None = None
) -> tuple[SpinorField, object]:
    """The psi of ``random_fields`` and the draw that continues its stream,
    from which ``random_fields`` takes A: psi is drawn first, so a caller
    that needs psi alone stops here, two scalar transforms in."""
    rng = np.random.default_rng(seed)
    kk = np.sqrt(grid.k2)
    env = np.exp(-0.5 * (kk * corr_len) ** 2)
    if max_mode is not None:
        dk = 2.0 * np.pi / grid.box_l
        m = np.rint(grid.k / dk).astype(int)
        keep = (
            (np.abs(m[0]) <= max_mode)
            & (np.abs(m[1]) <= max_mode)
            & (np.abs(m[2]) <= max_mode)
        )
        env = env * keep

    def draw_complex(comps):
        # drawn component-last and moved, so a seed gives the same value
        # at each (ix, iy, iz, c) in either layout
        shape = grid.shape + (comps,)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return np.multiply(np.moveaxis(z, -1, 0), env, order="C")

    psi = SpinorField(grid, grid.ifft(draw_complex(2), overwrite=True))
    return normalize_to_lambda(psi, p.lam), draw_complex


__all__ = [
    "MODELS",
    "PhysParams",
    "ScalarField",
    "SpinorField",
    "VectorField",
    "component_array",
    "inner",
    "l2_norm_sq",
    "normalize_to_lambda",
    "translate",
    "random_fields",
]
