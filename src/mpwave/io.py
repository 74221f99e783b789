"""Binary state files.

A state file holds one (psi, A) pair together with the grid and the
physical parameters that produced it, in a fixed little-endian layout:

    bytes 0..3    magic "MPWF"
    u32           format version (currently 1)
    u32           grid points per axis n
    f64           box edge length
    u8            model (0 = scalar coupling, 1 = spin coupling)
    f64 x 8       hbar, mass, light_speed, charge, lam, v1, v2, v3
    c128 x n^3*2  psi, C order, spinor index fastest
    f64  x n^3*3  A, C order, component index fastest

The payload keeps the component-last order (ix, iy, iz, c) of the file
format, while fields are held component-first, (c, n, n, n): writes and
reads move the component axis, so files stay byte-identical.

Writes go through a temporary file in the target directory followed by
an atomic rename, so readers never observe a half-written state.
"""
from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import InputError
from .fields import PhysParams, SpinorField, VectorField, component_array
from .grid import Grid

MAGIC = b"MPWF"
VERSION = 1
_HEADER = struct.Struct("<4sIIdB8d")


def write_state(path: str, grid: Grid, p: PhysParams, psi, A) -> None:
    """Serialize a state atomically to ``path``."""
    psi_a = np.moveaxis(component_array(grid, psi, 2, "psi"), 0, -1)
    a_a = np.moveaxis(component_array(grid, A, 3, "A"), 0, -1)
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        grid.n,
        grid.box_l,
        0 if p.model == "S" else 1,
        p.hbar,
        p.mass,
        p.light_speed,
        p.charge,
        p.lam,
        *p.v,
    )
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            # one component-last copy at a time, written without a bytes copy
            fh.write(np.ascontiguousarray(psi_a, dtype="<c16"))
            fh.write(np.ascontiguousarray(a_a, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_state(path: str) -> tuple[Grid, PhysParams, SpinorField, VectorField]:
    """Load a state file written by :func:`write_state`.

    Raises InputError on a short or overlong file and on non-finite
    psi or A values.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read state {path}: {exc}") from None
    with fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise InputError(f"{path}: truncated header")
        magic, version, n, box_l, model_code, *params = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise InputError(f"{path}: not a state file (bad magic {magic!r})")
        if version != VERSION:
            raise InputError(f"{path}: unsupported format version {version}")
        if model_code not in (0, 1):
            raise InputError(f"{path}: unknown model code {model_code}")
        grid = Grid(n=n, box_l=box_l)
        hbar, mass, c, charge, lam, v1, v2, v3 = params
        p = PhysParams(
            hbar=hbar,
            mass=mass,
            light_speed=c,
            charge=charge,
            lam=lam,
            v=(v1, v2, v3),
            model="S" if model_code == 0 else "P",
        )
        count_psi = n ** 3 * 2
        count_a = n ** 3 * 3
        psi_raw = fh.read(count_psi * 16)
        a_raw = fh.read(count_a * 8)
        if len(psi_raw) != count_psi * 16 or len(a_raw) != count_a * 8:
            raise InputError(f"{path}: truncated payload")
        if fh.read(1):
            raise InputError(f"{path}: trailing bytes after the payload")
        psi = np.frombuffer(psi_raw, dtype="<c16").reshape(grid.shape + (2,))
        a = np.frombuffer(a_raw, dtype="<f8").reshape(grid.shape + (3,))
        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(a))):
            raise InputError(f"{path}: non-finite values in the payload")
    # the containers copy the moved views into contiguous arrays
    psi, a = np.moveaxis(psi, -1, 0), np.moveaxis(a, -1, 0)
    return grid, p, SpinorField(grid, psi), VectorField(grid, a)


__all__ = ["MAGIC", "VERSION", "read_state", "write_state"]
