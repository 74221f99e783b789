"""Spin algebra, covariant derivatives, and the gauge current."""

import numpy as np
import pytest

import importlib

from mpwave import Grid, PhysParams
from mpwave import spectral
from mpwave.energy import _field_part, energy_functional
from mpwave.fields import inner, l2_norm_sq, random_fields
from mpwave.minimize import el_residual
from mpwave.pauli import (
    SIGMA,
    KineticState,
    _current_hat,
    _laplacian_hat,
    _pair,
    _sigma_mul,
    _state,
    covariant_gradient,
    covariant_laplacian,
    current,
    kinetic_hat,
    kinetic_state,
    sigma_dot,
    spin_term,
)

from conftest import params, rel


def _spin_contract(model, c):
    """Kinetic contraction of a stack taken after the transform, the
    reference the kernels' contract-first forms are compared with: for
    model "P", sum_b sigma^b c_b of a (3, 2, ...) stack, summed in the
    order x, y, z, and of a spin-up block (3, 1, ...) that sum with its
    exact zeros left out; model "S" keeps ``c`` as it is."""
    if model == "S":
        return c
    out = np.empty((2,) + c.shape[2:], dtype=complex)
    if c.shape[1] == 1:
        out[0] = c[2, 0]
        out[1] = c[0, 0] + 1j * c[1, 0]
        return out
    out[0] = c[0, 1] - 1j * c[1, 1] + c[2, 0]
    out[1] = c[0, 0] + 1j * c[1, 0] - c[2, 1]
    return out


def _sigma(a, h):
    """sigma^a h of the (2, ...) spinor ``h``; summed over a against a
    stack, the adjoint of ``_spin_contract`` of model "P"."""
    out = np.empty_like(h)
    if a == 0:
        out[0], out[1] = h[1], h[0]
    elif a == 1:
        out[0], out[1] = -1j * h[1], 1j * h[0]
    else:
        out[0], out[1] = h[0], -h[1]
    return out


def kinetic_gradient(grid, p, psi, A):
    """K psi of the model, sigma . D psi for "P" and D psi for "S": the
    inverse transform of the record's K psi_hat."""
    return grid.ifft(_state(grid, p, psi, A).kpsi_hat)


def sigma_identity_check(f, g):
    """Max-norm defect of (sigma.f)(sigma.g) = (f.g) I + i sigma.(f x g)
    for complex 3-vectors ``f`` and ``g`` stacked along the last axis."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    mf = np.tensordot(f, SIGMA, axes=(-1, 0))
    mg = np.tensordot(g, SIGMA, axes=(-1, 0))
    lhs = mf @ mg
    dot = np.sum(f * g, axis=-1)
    crs = np.cross(f, g)
    rhs = dot[..., None, None] * np.eye(2) + 1.0j * np.tensordot(crs, SIGMA, axes=(-1, 0))
    return float(np.max(np.abs(lhs - rhs)))


def plane_wave(grid, mvec, spinor=(1.0, 0.0), lam=1.0):
    """sqrt(lam/V) e^{i k.x} chi with k a lattice mode, |chi| = 1."""
    dk = 2.0 * np.pi / grid.box_l
    x, y, z = grid.coords()
    phase = np.exp(1j * dk * (mvec[0] * x + mvec[1] * y + mvec[2] * z))
    chi = np.asarray(spinor, dtype=complex)
    chi = chi / np.linalg.norm(chi)
    vol = grid.box_l ** 3
    return np.sqrt(lam / vol) * phase * chi[:, None, None, None], dk * np.asarray(mvec, float)


def random_spinor(grid, rng):
    return rng.standard_normal((2,) + grid.shape) + 1j * rng.standard_normal(
        (2,) + grid.shape
    )


class TestSigmaAlgebra:
    def test_matrices(self):
        for a in range(3):
            assert np.allclose(SIGMA[a] @ SIGMA[a], np.eye(2))
            assert np.allclose(SIGMA[a], SIGMA[a].conj().T)
        assert np.allclose(SIGMA[0] @ SIGMA[1], 1j * SIGMA[2])

    def test_product_identity(self, rng):
        f = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        g = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        assert sigma_identity_check(f, g) < 1e-13

    def test_real_contraction_preserves_magnitude(self, grid16, rng):
        a = rng.standard_normal((3,) + grid16.shape)
        psi = random_spinor(grid16, rng)
        out = sigma_dot(a, psi)
        lhs = np.sum(np.abs(out) ** 2, axis=0)
        rhs = np.sum(a ** 2, axis=0) * np.sum(np.abs(psi) ** 2, axis=0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(rhs)

    def test_constant_vector_path(self, grid16, rng):
        psi = random_spinor(grid16, rng)
        vec = np.array([0.3, -1.2, 0.7])
        broad = np.broadcast_to(vec[:, None, None, None], (3,) + grid16.shape)
        assert np.max(np.abs(sigma_dot(vec, psi) - sigma_dot(broad, psi))) < 1e-14


    def test_component_contraction_matches_matrix_loop(self, grid16, rng):
        """The component forms of the spin contraction and of its adjoint,
        the stack of sigma^a h, equal the per-matrix products exactly, and
        are adjoint."""
        c = rng.standard_normal((3, 2) + grid16.shape) + 1j * rng.standard_normal(
            (3, 2) + grid16.shape
        )
        h = random_spinor(grid16, rng)
        loop = np.zeros_like(h)
        for b in range(3):
            loop += np.einsum("ij,j...->i...", SIGMA[b], c[b])
        assert np.array_equal(_spin_contract("P", c), loop)
        stack = np.stack([np.einsum("ij,j...->i...", SIGMA[a], h) for a in range(3)])
        expand = np.stack([_sigma(a, h) for a in range(3)])
        assert np.array_equal(expand, stack)
        lhs = inner(grid16, h, _spin_contract("P", c))
        rhs = inner(grid16, expand, c)
        assert rel(lhs, rhs) < 1e-14

    def test_pointwise_product_matches_matrix_loop(self, grid16, rng):
        """(sigma . a) psi of the kernels equals sum_b a_b sigma^b psi from
        the matrices to rounding, and its spin-up branch equals the spinor
        path with psi_down = 0 bit for bit."""
        a = rng.standard_normal((3,) + grid16.shape)
        psi = random_spinor(grid16, rng)
        loop = sum(a[b] * np.einsum("ij,j...->i...", SIGMA[b], psi) for b in range(3))
        assert np.max(np.abs(_sigma_mul(a, psi) - loop)) < 1e-14 * np.max(np.abs(loop))
        psi[1] = 0.0
        assert _sigma_mul(a, psi[:1]).tobytes() == _sigma_mul(a, psi).tobytes()

    def test_component_pairing_matches_matrix_loop(self, grid16, rng):
        """The component form of the model P pairing equals
        Re <psi, sigma^a g> from the matrices to rounding."""
        psi = random_spinor(grid16, rng)
        g = random_spinor(grid16, rng)
        loop = np.stack(
            [np.real(np.einsum("i...,ij,j...->...", np.conj(psi), SIGMA[a], g)) for a in range(3)]
        )
        assert np.max(np.abs(_pair("P", psi, g) - loop)) < 1e-14 * np.max(np.abs(loop))

    def test_scalar_pairing_matches_the_reduction_bit_for_bit(self, grid16, rng):
        """The model S pairing adds its two spin terms directly; that is
        the size-2 reduction it replaces, bit for bit."""
        psi = random_spinor(grid16, rng)
        g = rng.standard_normal((3, 2) + grid16.shape) + 1j * rng.standard_normal(
            (3, 2) + grid16.shape
        )
        reduced = np.real(np.sum(np.conj(psi) * g, axis=1))
        assert _pair("S", psi, g).tobytes() == reduced.tobytes()

    def test_spin_up_block_matches_the_spinor_bit_for_bit(self, grid16, rng):
        """A spin-up block (3, 1, ...) takes the one-component branches of
        the model P contraction and the model S pairing; each equals the
        two-component path with psi_down = 0, bit for bit."""
        c = rng.standard_normal((3, 2) + grid16.shape) + 1j * rng.standard_normal(
            (3, 2) + grid16.shape
        )
        psi = random_spinor(grid16, rng)
        c[:, 1] = 0.0
        psi[1] = 0.0
        assert _spin_contract("P", c[:, :1]).tobytes() == _spin_contract("P", c).tobytes()
        assert _pair("S", psi[:1], c[:, :1].copy()).tobytes() == _pair("S", psi, c.copy()).tobytes()


class TestContractFirst:
    """The kernels take every sigma contraction and every sum over the
    directions before the forward transform.  Each equals the form that
    transforms the per-direction terms and contracts or sums them after,
    to TOL times the largest of those terms: the two differ only in the
    order of the sums (at most 1.6 eps measured over seeds 0-5)."""

    TOL = 8 * np.finfo(float).eps

    @staticmethod
    def _band(grid, layout, field):
        """psi_hat, T psi and T A (None without a field) of a random state,
        as the spinor or as its spin-up block."""
        psi, A = random_fields(grid, params("P"), seed=5, a_amp=1.0)
        psi = psi.data if layout == "spinor" else psi.data[:1]
        return (*spectral.band(grid, psi), spectral.dealias(grid, A.data) if field else None)

    @classmethod
    def _assert_close(cls, new, ref, terms):
        """|new - ref| within TOL of the largest of the ``terms`` of ref."""
        scale = max(float(np.max(np.abs(t))) for t in terms)
        assert np.max(np.abs(new - ref)) <= cls.TOL * scale

    @staticmethod
    def _field_terms(grid, p, a_low, h):
        """(Q/c) mask FFT(a_low_a T h_a) for a = x, y, z of the stack h."""
        return [p.charge / p.light_speed * grid.dealias_mask
                * grid.fft(a_low[a] * grid.ifft(h[a] * grid.dealias_mask)) for a in range(3)]

    @pytest.mark.parametrize("field", [True, False])
    @pytest.mark.parametrize("layout", ["spinor", "spin-up"])
    def test_kinetic_hat(self, grid16, layout, field):
        """sigma . D psi_hat from one product transform against the
        contraction of the three transformed D_a psi."""
        p = params("P")
        psi_hat, psi_low, a_low = self._band(grid16, layout, field)
        stack = kinetic_hat(grid16, p.with_(model="S"), psi_hat, psi_low, a_low)
        new = kinetic_hat(grid16, p, psi_hat, psi_low, a_low)
        self._assert_close(new, _spin_contract("P", stack), stack)

    @pytest.mark.parametrize("field", [True, False])
    @pytest.mark.parametrize("layout", ["spinor", "spin-up"])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_laplacian_hat(self, grid16, model, layout, field):
        """K^dagger K psi_hat with the sum over a taken in real space (S)
        or as one sigma contraction (P), against sum_a D_a h_a with each
        product transformed on its own: h_a = (D psi)_a for S and
        sigma^a K psi for P."""
        p = params(model)
        psi_hat, psi_low, a_low = self._band(grid16, layout, field)
        kpsi = kinetic_hat(grid16, p, psi_hat, psi_low, a_low)
        new = _laplacian_hat(grid16, p, KineticState(psi_hat, psi_low, kpsi, a_low))
        h = kpsi if model == "S" else np.stack([_sigma(a, kpsi) for a in range(3)])
        terms = [-p.hbar * grid16.k[a] * h[a] for a in range(3)]
        if field:
            terms += self._field_terms(grid16, p, a_low, h)
        self._assert_close(new, sum(terms), terms)

    def test_a_operator(self, grid16):
        """The model P A-operator matvec from the field part of K psi taken
        as one product transform, against the contraction of the three
        transformed products T a_a T psi; model P solves carry the spinor,
        whose current pairs both components."""
        minimize_mod = importlib.import_module("mpwave.minimize")
        p = params("P")
        psi_hat, psi_low, a_low = self._band(grid16, "spinor", True)
        a_hat = spectral.project_hat(grid16, grid16.fft(a_low))
        a_hat[:, 0, 0, 0] = 0.0
        new = minimize_mod._a_operator(grid16, p, psi_low)(a_hat)
        low = grid16.ifft(a_hat * grid16.dealias_mask).real
        stack = p.charge / p.light_speed * grid16.dealias_mask * grid16.fft(low[:, None] * psi_low)
        field = -_current_hat(grid16, p, psi_low, _spin_contract("P", stack)) / p.light_speed
        wave = minimize_mod._field_symbol(grid16, p) * a_hat
        for term in (field, wave):
            spectral.project_hat(grid16, term)
            term[:, 0, 0, 0] = 0.0
        self._assert_close(new, field + wave, [field, wave])


class TestCovariantDerivative:
    def test_component_self_adjoint(self, grid16, rng):
        """Each D_a = i hbar d_a + (Q/c) T(A T .) is exactly symmetric."""
        p = PhysParams()
        phi = random_spinor(grid16, rng)
        psi = random_spinor(grid16, rng)
        A = rng.standard_normal((3,) + grid16.shape)
        dphi = covariant_gradient(grid16, p, phi, A)
        dpsi = covariant_gradient(grid16, p, psi, A)
        for a in range(3):
            lhs = inner(grid16, phi, dpsi[a])
            rhs = inner(grid16, dphi[a], psi)
            assert rel(lhs, rhs) < 1e-12

    def test_quadratic_form_identity(self, grid16, rng):
        """<phi, K^dagger K psi> = <K phi, K psi> on rough fields, both models."""
        phi = random_spinor(grid16, rng)
        psi = random_spinor(grid16, rng)
        A = rng.standard_normal((3,) + grid16.shape)
        for model in ("S", "P"):
            p = PhysParams(model=model)
            lhs = inner(grid16, phi, covariant_laplacian(grid16, p, psi, A))
            rhs = inner(
                grid16,
                kinetic_gradient(grid16, p, phi, A),
                kinetic_gradient(grid16, p, psi, A),
            )
            assert rel(lhs, rhs) < 1e-12, model

    def test_laplacian_positive_on_state(self, grid16, rng):
        psi = random_spinor(grid16, rng)
        A = rng.standard_normal((3,) + grid16.shape)
        for model in ("S", "P"):
            val = inner(grid16, psi, covariant_laplacian(grid16, PhysParams(model=model), psi, A))
            assert abs(val.imag) < 1e-12 * abs(val.real), model
            assert val.real > 0.0, model

    def test_shift_equals_constant_gauge_field(self, grid16):
        """The shifted kinetic term of ``energy_functional`` is the kinetic
        energy at A + (mc/Q) v: the constant multiplies psi directly, which
        agrees with the dealiased product on band-limited psi (a constant
        cannot alias)."""
        for model in ("S", "P"):
            p = PhysParams(model=model, v=(0.4, -0.1, 0.9))
            psi, A = random_fields(grid16, p, seed=24)
            psi = spectral.dealias(grid16, psi.data)
            s = p.mass * p.light_speed / p.charge * p.v_arr
            via_field = l2_norm_sq(
                grid16, kinetic_gradient(grid16, p, psi, A.data + s[:, None, None, None])
            ) / (2.0 * p.mass)
            br = energy_functional(grid16, p, psi, A.data)
            assert rel(br.kinetic_shifted, via_field) < 1e-13, model

    def test_gauge_covariance(self, grid16):
        """A -> A + grad u, psi -> e^{iQu/(hbar c)} psi preserves |D psi|^2
        up to the band-limit error of the multiplied phase."""
        p = PhysParams(hbar=1.0, charge=1.0, light_speed=1.0)
        dk = 2.0 * np.pi / grid16.box_l
        x, y, _ = grid16.coords()
        u = 0.05 * (np.cos(dk * x) + 0.5 * np.sin(dk * y))
        grad_u = spectral.gradient(grid16, u)
        phase = np.exp(1j * p.charge * u / (p.hbar * p.light_speed))

        def defect(max_mode):
            psi, A = random_fields(grid16, p, seed=11, max_mode=max_mode)
            psi2 = phase * psi.data
            k1 = l2_norm_sq(grid16, covariant_gradient(grid16, p, psi.data, A.data))
            k2 = l2_norm_sq(
                grid16, covariant_gradient(grid16, p, psi2, A.data + grad_u)
            )
            return rel(k1, k2)

        # well inside the band the phase harmonics stay representable
        assert defect(grid16.mode_cut - 3) < 1e-10
        # rough draws lose near-band content but only at the amplitude
        # of the pushed-out harmonics
        assert defect(None) < 1e-5


class TestLichnerowicz:
    def test_exact_on_band_limited_fields(self, grid16):
        """(sigma.D)^2 psi equals the scalar Laplacian plus the spin term
        exactly when single products of modes stay inside the band."""
        p = PhysParams(model="P")
        mm = grid16.mode_cut // 2
        psi, A = random_fields(grid16, p, seed=21, max_mode=mm)
        direct = covariant_laplacian(grid16, p, psi.data, A.data)
        split = covariant_laplacian(
            grid16, p.with_(model="S"), psi.data, A.data
        ) + spin_term(grid16, p, psi.data, A.data)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(split - direct)) < 1e-12 * scale

    def test_energy_form_on_band_limited_fields(self, grid16):
        p = PhysParams(model="P")
        mm = grid16.mode_cut // 2
        psi, A = random_fields(grid16, p, seed=22, max_mode=mm)
        lap = covariant_laplacian(
            grid16, p.with_(model="S"), psi.data, A.data
        ) + spin_term(grid16, p, psi.data, A.data)
        lhs = inner(grid16, psi.data, lap).real
        rhs = l2_norm_sq(grid16, kinetic_gradient(grid16, p, psi.data, A.data))
        assert rel(lhs, rhs) < 1e-12

    def test_rough_field_defect_is_small(self, grid16):
        """The spin-coupled Laplacian is K^dagger K, so its energy form is
        |K psi|^2 to rounding on unrestricted draws too, where the
        Lichnerowicz split into scalar Laplacian plus spin term only holds
        to the aliasing level of the cubic gauge terms."""
        p = PhysParams(model="P")
        psi, A = random_fields(grid16, p, seed=23)
        lap = covariant_laplacian(grid16, p, psi.data, A.data)
        lhs = inner(grid16, psi.data, lap).real
        rhs = l2_norm_sq(grid16, kinetic_gradient(grid16, p, psi.data, A.data))
        assert rel(lhs, rhs) < 1e-12


class TestCurrent:
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_plane_wave_free(self, grid16, model):
        p = PhysParams(model=model, lam=1.3)
        psi, k = plane_wave(grid16, (1, -2, 0), lam=p.lam)
        A = np.zeros((3,) + grid16.shape)
        J = current(grid16, p, psi, A)
        expect = (p.charge * p.hbar / p.mass) * k * (p.lam / grid16.box_l ** 3)
        for a in range(3):
            assert np.max(np.abs(J[a] - expect[a])) < 1e-12 * max(
                np.max(np.abs(expect)), 1e-15
            )

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_plane_wave_constant_gauge_field(self, grid16, model):
        """A uniform A adds the diamagnetic drift -(Q/c) A0 to the momentum."""
        p = PhysParams(model=model, lam=0.7, charge=-1.0)
        psi, k = plane_wave(grid16, (0, 1, 1), spinor=(0.6, 0.8j), lam=p.lam)
        A0 = np.array([0.5, -0.2, 0.1])
        A = np.broadcast_to(A0[:, None, None, None], (3,) + grid16.shape).copy()
        J = current(grid16, p, psi, A)
        dens = p.lam / grid16.box_l ** 3
        expect = (p.charge / p.mass) * (p.hbar * k - p.charge / p.light_speed * A0) * dens
        for a in range(3):
            assert np.max(np.abs(J[a] - expect[a])) < 1e-12

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_current_is_kinetic_a_derivative(self, grid16, rng, model):
        """-(1/c) int J . dA equals the derivative of |D psi|^2 / 2m along dA.

        The kinetic term is quadratic in A, so a central difference is
        exact to rounding.
        """
        p = PhysParams(model=model)
        psi, A = random_fields(grid16, p, seed=31)
        dA = rng.standard_normal((3,) + grid16.shape)

        def kin(field):
            g = kinetic_gradient(grid16, p, psi.data, field)
            return l2_norm_sq(grid16, g) / (2.0 * p.mass)

        eps = 1e-4
        fd = (kin(A.data + eps * dA) - kin(A.data - eps * dA)) / (2.0 * eps)
        J = current(grid16, p, psi.data, A.data)
        pairing = -float(grid16.integrate(np.sum(J * dA, axis=0))) / p.light_speed
        assert rel(fd, pairing) < 1e-9

    def test_models_differ_on_structured_state(self, grid16):
        """The spin contribution separates the two currents once the
        spinor and the gauge field are both non-trivial."""
        p_s = PhysParams(model="S")
        p_p = PhysParams(model="P")
        psi, A = random_fields(grid16, p_s, seed=41)
        js = current(grid16, p_s, psi.data, A.data)
        jp = current(grid16, p_p, psi.data, A.data)
        assert np.max(np.abs(js - jp)) > 1e-8 * np.max(np.abs(js))


class TestSpinBlindness:
    #: relative change allowed for model S: 20 eps, above the 8e-16 of the
    #: drift term measured for this rotation
    TOL = 20 * np.finfo(float).eps

    @staticmethod
    def _moves(grid, p, psi, A, U):
        """Relative change of each energy term, of the parts of the EL
        residual and of the current when psi becomes U psi at every point."""
        rot = np.einsum("ij,j...->i...", U, psi)
        e0, e1 = (energy_functional(grid, p, f, A).as_dict() for f in (psi, rot))
        r0, r1 = (el_residual(grid, p, f, A) for f in (psi, rot))
        j0, j1 = (current(grid, p, f, A) for f in (psi, rot))
        moves = {k: rel(e0[k], e1[k]) for k in e0}
        for k in ("psi_raw", "psi_scale", "a_raw", "a_scale", "current_defect", "theta"):
            moves[k] = rel(getattr(r0, k), getattr(r1, k))
        moves["J"] = np.max(np.abs(j1 - j0)) / np.max(np.abs(j0))
        return moves

    def test_model_s_does_not_see_the_spin(self):
        """Model S couples no spin: a constant SU(2) rotation of psi leaves
        its energy (``total`` and ``total_shifted`` and every term), its EL
        residual and its current unchanged to rounding.  Model P, whose
        sigma . D psi mixes the components, moves by about 2e-3, so the
        check tells the two models apart."""
        grid = Grid(16, 12.0)
        nvec = np.array([1.0, 2.0, 2.0]) / 3.0
        half = 0.35  # half the rotation angle
        U = np.cos(half) * np.eye(2) - 1j * np.sin(half) * np.einsum("a,aij->ij", nvec, SIGMA)
        for model in ("S", "P"):
            p = PhysParams(v=(0.13, -0.07, 0.05), model=model)
            psi, A = random_fields(grid, p, seed=4)
            moves = self._moves(grid, p, psi.data, A.data, U)
            if model == "S":
                assert max(moves.values()) <= self.TOL, moves
            else:
                assert moves["total"] > 1e-4 and moves["total_shifted"] > 1e-4, moves


def _banded_state(grid, p, psi, A):
    """The record through the product transforms, also for A = 0."""
    return kinetic_state(grid, p, psi, spectral.dealias(grid, A))


def _banded_field(grid, p, A):
    a_hat, a_low = spectral.band(grid, A)
    return a_hat, a_low, _field_part(grid, p, a_hat)


class TestZeroField:
    """An all-zero A takes the field-free record, which skips every
    transform of A and of its products; the results are those of the
    product path on a zero array."""

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_kernels_match_the_product_path(self, grid16, model, monkeypatch):
        energy_mod = importlib.import_module("mpwave.energy")
        minimize_mod = importlib.import_module("mpwave.minimize")
        pauli_mod = importlib.import_module("mpwave.pauli")
        p = PhysParams(model=model, v=(0.2, -0.1, 0.05))
        psi, _ = random_fields(grid16, p, seed=43)
        zero = np.zeros((3,) + grid16.shape)
        kernels = {
            "covariant_laplacian": lambda: covariant_laplacian(grid16, p, psi.data, zero),
            "current": lambda: current(grid16, p, psi.data, zero),
            "energy_functional": lambda: list(
                energy_functional(grid16, p, psi.data, zero).as_dict().values()
            ),
        }
        free = {name: f() for name, f in kernels.items()}
        monkeypatch.setattr(pauli_mod, "_state", _banded_state)
        monkeypatch.setattr(energy_mod, "_field_band", _banded_field)
        for name, f in kernels.items():
            assert np.array_equal(free[name], f()), name

        G_free = minimize_mod._gradient_hat(grid16, p, kinetic_state(grid16, p, psi.data))
        G_zero = minimize_mod._gradient_hat(grid16, p, kinetic_state(grid16, p, psi.data, zero))
        assert np.array_equal(G_free, G_zero)
