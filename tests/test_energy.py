"""Energy functional, closed forms, thresholds, and a-priori bounds."""

import numpy as np
import pytest
from scipy.integrate import quad

import importlib

from mpwave import Grid, PhysParams
from mpwave import pauli, spectral
from mpwave.pauli import SIGMA
from mpwave.energy import (
    apriori_bounds,
    energy_functional,
    field_energy,
    psi_l6_norm,
    sobolev_constant,
    speed_gate,
    theta_thresholds,
    travelling_energy,
)
from mpwave.errors import DomainGateError
from mpwave.fields import l2_norm_sq, random_fields
from mpwave.minimize import plane_wave_state

from conftest import params, rel

energy_mod = importlib.import_module("mpwave.energy")


class TestFormEquivalence:
    """The direct form (kinetic + field + drift) and the shifted form
    (boosted kinetic + coupling + rest + field) are the same functional;
    on the grid the identity is exact because the constant boost bypasses
    the band limit."""

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_rough_pairs(self, grid16, model):
        p = params(model, v=0.2)
        worst = 0.0
        for seed in range(10):
            psi, A = random_fields(grid16, p, seed=100 + seed)
            br = energy_functional(grid16, p, psi, A)
            scale = max(abs(br.total), abs(br.kinetic), abs(br.kinetic_shifted))
            worst = max(worst, abs(br.total - br.total_shifted) / scale)
        assert worst < 1e-8

    def test_breakdown_sums(self, grid16):
        p = params("P", v=0.15)
        psi, A = random_fields(grid16, p, seed=9)
        br = energy_functional(grid16, p, psi, A)
        assert br.total == pytest.approx(br.kinetic + br.field + br.drift, rel=1e-14)
        assert br.total_shifted == pytest.approx(
            br.kinetic_shifted + br.coupling + br.rest + br.field, rel=1e-14
        )
        assert br.mass_constraint == pytest.approx(p.lam)


def real_space_energy(grid, p, psi, A):
    """Reference: the nine terms of ``energy_functional`` with every
    derivative transformed back and every norm taken on the grid, as the
    package evaluated them before it read norms from transforms."""
    mask = grid.dealias_mask
    v = p.v_arr
    a_low = np.real(grid.ifft(grid.fft(A) * mask))
    psi_hat = grid.fft(psi)
    psi_low = grid.ifft(psi_hat * mask)
    dpsi = np.empty((3, 2) + grid.shape, dtype=complex)
    for a in range(3):
        deriv = grid.ifft(1j * grid.k[a] * psi_hat)
        prod = grid.ifft(grid.fft(a_low[a] * psi_low) * mask)
        dpsi[a] = 1j * p.hbar * deriv + p.charge / p.light_speed * prod

    def kinetic_op(c):
        return c if p.model == "S" else np.einsum("bij,bj...->i...", SIGMA, c)

    boost = p.mass * v
    kinetic = l2_norm_sq(grid, kinetic_op(dpsi)) / (2.0 * p.mass)
    kinetic_sh = l2_norm_sq(
        grid, kinetic_op(dpsi + boost[:, None, None, None, None] * psi)
    ) / (2.0 * p.mass)
    a_hat = grid.fft(A)
    grad_sq = sum(
        l2_norm_sq(grid, grid.ifft(1j * grid.k[a] * a_hat)) for a in range(3)
    )
    conv_sq = l2_norm_sq(grid, spectral.directional_derivative(grid, A, v))
    field = (grad_sq - conv_sq / p.light_speed ** 2) / (8.0 * np.pi)
    vd = spectral.directional_derivative(grid, psi, v)
    drift = float(np.real(np.sum(np.conj(psi) * 1j * p.hbar * vd)) * grid.cell)
    dens_low = np.sum(np.abs(psi_low) ** 2, axis=0)
    coupling = -(p.charge / p.light_speed) * float(
        grid.integrate(dens_low * np.tensordot(a_low, v, axes=(0, 0)))
    )
    lam = l2_norm_sq(grid, psi)
    rest = -0.5 * p.mass * float(v @ v) * lam
    return {
        "kinetic": kinetic,
        "field": field,
        "drift": drift,
        "total": kinetic + field + drift,
        "kinetic_shifted": kinetic_sh,
        "coupling": coupling,
        "rest": rest,
        "total_shifted": kinetic_sh + coupling + rest + field,
        "mass_constraint": lam,
    }


class TestParsevalNorms:
    """Every quadratic term is read from transforms by Parseval, in the
    same grid inner product as the real-space sums it replaced."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_matches_real_space_reference(self, n, model):
        grid = Grid(n, 40.0)
        p = params(model, v=(0.15, 0.05, -0.1))
        psi, A = random_fields(grid, p, seed=n, corr_len=0.5)
        plane_psi, plane_A = plane_wave_state(grid, p)
        # a raw real A keeps its Nyquist planes, where the convective
        # derivative of a real field drops the odd multiplier
        rough = np.random.default_rng(n).standard_normal((3,) + grid.shape)
        states = ((psi.data, A.data), (psi.data, rough), (plane_psi.data, plane_A.data))
        for psi, A in states:
            got = energy_functional(grid, p, psi, A).as_dict()
            ref = real_space_energy(grid, p, psi, A)
            assert set(got) == set(ref)
            for name, value in ref.items():
                assert rel(got[name], value) <= 1e-13, (name, got[name], value)


class TestSpinUpBlock:
    """A psi whose spin-down component is exactly zero is evaluated on its
    spin-up block; each term stays within 4 eps of the record of the full
    spinor, whose kinetic sum runs over the zeros in another order."""

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_terms_match_the_full_record(self, grid16, model):
        p = params(model, v=(0.15, 0.05, -0.1))
        psi, A = random_fields(grid16, p, seed=7, a_amp=0.1)
        up = psi.data.copy()
        up[1] = 0.0
        got = energy_functional(grid16, p, up, A).as_dict()
        a_hat, a_low = spectral.band(grid16, A.data)
        st = pauli.kinetic_state(grid16, p, up, a_low)
        want = energy_mod._energy(grid16, p, up, st, energy_mod._field_part(grid16, p, a_hat))
        for name, value in want.as_dict().items():
            assert rel(got[name], value) <= 4 * np.finfo(float).eps, (name, got[name], value)


class TestClosedForms:
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_plane_wave_energy(self, grid16, model):
        """E = lam (hbar^2 k^2 / 2m - hbar v.k) for e^{ik.x} at A = 0."""
        p = params(model, v=0.1, lam=1.4, mass=0.8, hbar=1.2)
        dk = 2.0 * np.pi / grid16.box_l
        x, _, _ = grid16.coords()
        vol = grid16.box_l ** 3
        psi = np.zeros((2,) + grid16.shape, dtype=complex)
        psi[0] = np.sqrt(p.lam / vol) * np.exp(2j * dk * x)
        A = np.zeros((3,) + grid16.shape)
        k = 2.0 * dk
        br = energy_functional(grid16, p, psi, A)
        expect = p.lam * (p.hbar ** 2 * k ** 2 / (2.0 * p.mass) - p.hbar * 0.1 * p.light_speed * k)
        assert rel(br.total, expect) < 1e-12
        assert rel(br.total_shifted, expect) < 1e-12
        assert br.field == 0.0
        e_trav = travelling_energy(grid16, p, psi, A)
        assert rel(e_trav, p.lam * p.hbar ** 2 * k ** 2 / (2.0 * p.mass)) < 1e-12

    def test_constant_state_zero_energy(self, grid16):
        p = params("S", v=0.1)
        vol = grid16.box_l ** 3
        psi = np.zeros((2,) + grid16.shape, dtype=complex)
        psi[0] = np.sqrt(p.lam / vol)
        A = np.zeros((3,) + grid16.shape)
        br = energy_functional(grid16, p, psi, A)
        assert abs(br.total) < 1e-15

    def test_field_energy(self, grid16, rng):
        p = PhysParams(light_speed=2.0)
        A = rng.standard_normal((3,) + grid16.shape)
        Adot = rng.standard_normal((3,) + grid16.shape)
        e = field_energy(grid16, p, A, Adot)
        direct = (
            l2_norm_sq(grid16, spectral.curl(grid16, A))
            + l2_norm_sq(grid16, Adot) / 4.0
        ) / (8.0 * np.pi)
        assert rel(e, direct) < 1e-13
        # a pure gradient carries no magnetic energy
        u = rng.standard_normal(grid16.shape)
        grad_u = spectral.gradient(grid16, spectral.dealias(grid16, u))
        zero = field_energy(grid16, p, grad_u, np.zeros_like(grad_u))
        assert zero < 1e-20 * max(e, 1.0)


class TestSobolevConstant:
    def test_matches_extremal_profile(self):
        """The embedding constant equals |U|_6 / |grad U|_2 for the
        explicit extremal profile U(r) = (1 + r^2)^{-1/2}."""
        l6, _ = quad(lambda r: r ** 2 * (1.0 + r ** 2) ** -3, 0.0, np.inf)
        g2, _ = quad(lambda r: r ** 4 * (1.0 + r ** 2) ** -3, 0.0, np.inf)
        ratio = (4.0 * np.pi * l6) ** (1.0 / 6.0) / np.sqrt(4.0 * np.pi * g2)
        assert rel(sobolev_constant(), ratio) < 1e-12

    def test_closed_form(self):
        assert rel(
            sobolev_constant(), 4.0 ** (1 / 3) / (np.sqrt(3.0) * np.pi ** (2 / 3))
        ) < 1e-15


class TestThresholds:
    def test_first_model_window_is_light_cone(self):
        p = params("S", v=0.1, light_speed=3.0)
        assert theta_thresholds(p) == (-3.0, 3.0)

    def test_second_model_window(self):
        p = params("P", v=0.01, lam=2.0, charge=1.5, hbar=0.7)
        K = sobolev_constant()
        b = 8.0 * np.pi * K ** 3 * p.charge ** 2 * p.lam / p.hbar
        lo, hi = theta_thresholds(p)
        root = np.sqrt(b * b + 1.0)
        assert rel(lo, -b - root) < 1e-14
        assert rel(hi, -b + root) < 1e-14
        # the window is asymmetric and strictly inside the light cone
        assert -lo > 1.0 > hi > 0.0
        # product of the roots recovers -c^2
        assert rel(lo * hi, -1.0) < 1e-12

    def test_gate_raises_beyond_window(self):
        with pytest.raises(DomainGateError):
            speed_gate(params("S", v=1.0))
        p = params("P", v=0.01, lam=100.0)
        with pytest.raises(DomainGateError):
            speed_gate(p)
        # same speed is fine for the spinless model
        lo, hi = speed_gate(params("S", v=0.01, lam=100.0))
        assert (lo, hi) == (-1.0, 1.0)

    def test_gate_warns_at_zero(self):
        with pytest.warns(UserWarning):
            speed_gate(PhysParams(v=(0.0, 0.0, 0.0)))


class TestAprioriBounds:
    def test_l6_norm_uniform(self, grid16):
        vol = grid16.box_l ** 3
        psi = np.zeros((2,) + grid16.shape, dtype=complex)
        psi[0] = np.sqrt(2.0 / vol)
        assert rel(psi_l6_norm(grid16, psi), (8.0 / vol ** 2) ** (1 / 6)) < 1e-13

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_hold_on_ground_plane_wave(self, grid16, model):
        """The travelling plane wave at the lattice optimum is the true
        minimizer at this box size, so every applicable bound must hold."""
        p = params(model, v=0.1)
        psi, A = plane_wave_state(grid16, p)
        rep = apriori_bounds(grid16, p, psi, A)
        assert rep.excess >= 0.0
        assert rep.field_bound.holds
        assert rep.density_bound_low.holds
        assert rep.density_bound_high.holds
        assert rep.all_hold
        # exactly one density bound is in force
        assert rep.density_bound_low.applicable != rep.density_bound_high.applicable

    def test_requires_moving_frame(self, grid16):
        p = PhysParams(v=(0.0, 0.0, 0.0))
        psi, A = plane_wave_state(grid16, params("S", v=0.1))
        with pytest.raises(DomainGateError):
            with pytest.warns(UserWarning):
                apriori_bounds(grid16, p, psi, A)
