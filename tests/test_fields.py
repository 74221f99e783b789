"""Containers, parameters, inner products, random draws, translation."""

import numpy as np
import pytest

from mpwave import Grid, PhysParams
from mpwave import spectral
from mpwave.fields import (
    ScalarField,
    SpinorField,
    VectorField,
    as_array,
    inner,
    l2_norm_sq,
    normalize_to_lambda,
    random_fields,
    translate,
)

from conftest import rel


class TestPhysParams:
    def test_defaults(self):
        p = PhysParams()
        assert (p.hbar, p.mass, p.light_speed, p.charge, p.lam) == (1, 1, 1, 1, 1)
        assert p.model == "S" and p.v == (0.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysParams(model="X")
        with pytest.raises(ValueError):
            PhysParams(mass=0.0)
        with pytest.raises(ValueError):
            PhysParams(light_speed=-1.0)
        with pytest.raises(ValueError):
            PhysParams(charge=0.0)
        with pytest.raises(ValueError):
            PhysParams(v=(1.0, 2.0))

    def test_speed(self):
        p = PhysParams(v=(0.3, 0.4, 0.0))
        assert np.linalg.norm(p.v_arr) == pytest.approx(0.5)


class TestContainers:
    def test_shape_validation(self, grid16, rng):
        with pytest.raises(ValueError):
            SpinorField(grid16, np.zeros((3,) + grid16.shape, dtype=complex))
        with pytest.raises(ValueError):
            VectorField(grid16, np.zeros((2,) + grid16.shape))
        with pytest.raises(ValueError):
            ScalarField(grid16, np.zeros((8, 8, 8)))

    def test_density(self, grid16, rng):
        data = rng.standard_normal((2,) + grid16.shape) + 1j * rng.standard_normal(
            (2,) + grid16.shape
        )
        f = SpinorField(grid16, data)
        dens = f.density()
        assert np.max(np.abs(dens - np.sum(np.abs(data) ** 2, axis=0))) < 1e-14
        assert dens.dtype.kind == "f"

    def test_as_array(self, grid16):
        raw = np.zeros((2,) + grid16.shape, dtype=complex)
        assert as_array(raw) is raw
        wrapped = SpinorField(grid16, raw)
        assert as_array(wrapped) is wrapped.data


class TestInnerProducts:
    def test_l2_norm_is_integral(self, grid16, rng):
        data = rng.standard_normal((2,) + grid16.shape) + 1j * rng.standard_normal(
            (2,) + grid16.shape
        )
        direct = float(np.sum(np.abs(data) ** 2)) * grid16.cell
        assert rel(l2_norm_sq(grid16, data), direct) < 1e-14
        # accepts wrapped containers too
        assert rel(l2_norm_sq(grid16, SpinorField(grid16, data)), direct) < 1e-14

    def test_inner_hermitian(self, grid16, rng):
        f = rng.standard_normal((2,) + grid16.shape) + 1j * rng.standard_normal(
            (2,) + grid16.shape
        )
        g = rng.standard_normal((2,) + grid16.shape) + 1j * rng.standard_normal(
            (2,) + grid16.shape
        )
        assert rel(inner(grid16, f, g), np.conj(inner(grid16, g, f))) < 1e-13
        assert inner(grid16, f, f).real == pytest.approx(l2_norm_sq(grid16, f))

    def test_normalize_to_lambda(self, grid16, rng):
        data = rng.standard_normal((2,) + grid16.shape) + 1j * rng.standard_normal(
            (2,) + grid16.shape
        )
        f = normalize_to_lambda(SpinorField(grid16, data), 2.5)
        assert l2_norm_sq(grid16, f.data) == pytest.approx(2.5)


class TestRandomFields:
    def test_contract(self, grid16):
        p = PhysParams()
        psi, A = random_fields(grid16, p, seed=7)
        assert l2_norm_sq(grid16, psi.data) == pytest.approx(p.lam)
        div = spectral.divergence(grid16, A.data)
        assert np.max(np.abs(div)) < 1e-10 * max(np.max(np.abs(A.data)), 1e-30)
        assert np.max(np.abs(np.mean(A.data, axis=(1, 2, 3)))) < 1e-12

    def test_seed_determinism(self, grid16):
        p = PhysParams()
        psi1, A1 = random_fields(grid16, p, seed=3)
        psi2, A2 = random_fields(grid16, p, seed=3)
        psi3, _ = random_fields(grid16, p, seed=4)
        assert np.array_equal(psi1.data, psi2.data)
        assert np.array_equal(A1.data, A2.data)
        assert not np.array_equal(psi1.data, psi3.data)

    def test_max_mode_band_limit(self, grid16):
        p = PhysParams()
        psi, A = random_fields(grid16, p, seed=5, max_mode=2)
        dk = 2.0 * np.pi / grid16.box_l
        m = np.rint(np.stack(grid16.k) / dk).astype(int)
        outside = (np.abs(m[0]) > 2) | (np.abs(m[1]) > 2) | (np.abs(m[2]) > 2)
        ph = grid16.fft(psi.data)
        ah = grid16.fft(A.data)
        assert np.max(np.abs(ph[:, outside])) < 1e-10 * np.max(np.abs(ph))
        assert np.max(np.abs(ah[:, outside])) < 1e-10 * np.max(np.abs(ah))


class TestTranslate:
    def test_lattice_shift_matches_roll(self, grid16, rng):
        data = rng.standard_normal((2,) + grid16.shape) + 1j * rng.standard_normal(
            (2,) + grid16.shape
        )
        f = SpinorField(grid16, data)
        h = grid16.spacing
        out = translate(f, (2 * h, 0.0, -h))
        expect = np.roll(data, shift=(2, 0, -1), axis=(1, 2, 3))
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_fractional_shift_plane_wave(self, grid16):
        dk = 2.0 * np.pi / grid16.box_l
        x, y, z = grid16.coords()
        f = ScalarField(grid16, np.exp(1j * dk * (2 * x - y)))
        s = (0.37, 1.21, -0.5)
        out = translate(f, s)
        expect = np.exp(1j * dk * (2 * (x - s[0]) - (y - s[1])))
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_vector_stays_real(self, grid16, rng):
        A = VectorField(grid16, rng.standard_normal((3,) + grid16.shape))
        out = translate(A, (0.7, 0.0, 0.0))
        assert out.data.dtype.kind == "f"
