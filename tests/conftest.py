"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from mpwave import Grid, PhysParams


@pytest.fixture(scope="session")
def grid16():
    return Grid(16, 40.0)


@pytest.fixture(scope="session")
def grid32():
    return Grid(32, 40.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(2026)


def params(model="S", v=(0.1, 0.0, 0.0), **kw):
    if np.isscalar(v):
        v = (float(v), 0.0, 0.0)
    return PhysParams(model=model, v=v, **kw)


def rel(a, b, floor=1e-30):
    """Relative difference |a-b| / max(|a|, |b|, floor)."""
    return abs(a - b) / max(abs(a), abs(b), floor)


def gaussian_bump(grid, center, s):
    """exp(-d^2 / 2 s^2) at the periodic distance from ``center``."""
    x, y, z = grid.coords()
    L = grid.box_l
    d2 = 0.0
    for c, w in zip(center, (x, y, z)):
        raw = np.abs(w - c) % L
        d = np.minimum(raw, L - raw)
        d2 = d2 + d * d
    return np.exp(-d2 / (2.0 * s * s))


def two_bump_state(grid, p, s=1.2, centers=((10.0, 20.0, 20.0), (30.0, 20.0, 20.0))):
    """Two equal bumps on the lattice carrier, normalized to lambda."""
    from mpwave.fields import SpinorField, normalize_to_lambda

    env = gaussian_bump(grid, centers[0], s) + gaussian_bump(grid, centers[1], s)
    x, _, _ = grid.coords()
    dk = 2.0 * np.pi / grid.box_l
    data = np.zeros((2,) + grid.shape, dtype=complex)
    data[0] = env * np.exp(1j * dk * x)
    return normalize_to_lambda(SpinorField(grid, data), p.lam)
