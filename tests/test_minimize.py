"""Gradients, the quadratic field subproblem, and the descent driver."""

import dataclasses
import importlib
import logging

import numpy as np
import pytest

from mpwave import Grid, PhysParams
from mpwave import spectral
from mpwave.energy import (_field_band, _wave_symbol, apriori_bounds, energy_functional,
                           field_energy, psi_l6_norm)
from mpwave.diagnostics import TrialSpec, coulomb_double_integral, trial_fields
from mpwave.errors import DomainGateError, InputError, SolverError
from mpwave.fields import SpinorField, inner, l2_norm_sq, normalize_to_lambda, random_fields
from mpwave.pauli import SIGMA, covariant_gradient, current, kinetic_state, spin_term
from mpwave.minimize import (
    MinimizeConfig,
    _a_operator,
    _a_precond,
    _a_rhs,
    _direction,
    _field_symbol,
    _gradient_hat,
    _psi_energy,
    _shift,
    _source_hat,
    _tangent,
    el_residual,
    grad_A,
    grad_psi,
    lagrange_theta,
    minimize,
    omega_from_theta,
    plane_wave_state,
    solve_vector_potential,
)

from conftest import params, rel

minimize_mod = importlib.import_module("mpwave.minimize")


def lattice_energy(grid, p):
    """Energy of the plane wave on the lattice vector nearest m v / hbar."""
    dk = 2.0 * np.pi / grid.box_l
    kstar = np.round(p.mass * p.v_arr / (p.hbar * dk)) * dk
    k2 = float(kstar @ kstar)
    return p.lam * (
        p.hbar ** 2 * k2 / (2.0 * p.mass) - p.hbar * float(p.v_arr @ kstar)
    )


def real_space_residual(grid, p, psi, A):
    """The fields of ``el_residual`` from real-space kernels: the current
    through ``pauli.current``, projected and transformed, with k = 0 the
    only mode split off the A-side."""
    G = grad_psi(grid, p, psi, A)
    lam = l2_norm_sq(grid, psi)
    theta = -inner(grid, psi, G).real / (p.hbar * lam)
    k_min = 2.0 * np.pi / grid.box_l
    psi_raw = np.sqrt(l2_norm_sq(grid, G + p.hbar * theta * psi))
    psi_scale = max(
        np.sqrt(l2_norm_sq(grid, G)) + abs(p.hbar * theta) * np.sqrt(lam),
        p.hbar ** 2 * k_min ** 2 / (2.0 * p.mass) * np.sqrt(lam),
    )
    pcur = spectral.helmholtz_project(grid, current(grid, p, psi, A))
    rhs_hat = grid.fft(pcur) * (4.0 * np.pi / p.light_speed)
    lhs_hat = grid.fft(A) * _wave_symbol(grid, p)
    mask = grid.k2 > 0
    norm = lambda fh: np.sqrt(float(np.sum(np.abs(fh) ** 2)) * grid.cell / grid.n ** 3)
    a_raw = norm((lhs_hat - rhs_hat) * mask)
    a_floor = (
        4.0 * np.pi * abs(p.charge) * p.hbar * k_min * lam
        / (p.mass * p.light_speed * grid.box_l ** 1.5)
    )
    a_scale = max(norm(lhs_hat * mask) + norm(rhs_hat), a_floor)
    return {
        "psi_raw": psi_raw,
        "psi_scale": psi_scale,
        "psi_rel": psi_raw / psi_scale,
        "a_raw": a_raw,
        "a_scale": a_scale,
        "a_rel": a_raw / a_scale,
        "current_defect": 4.0 * np.pi / p.light_speed
        * float(np.linalg.norm(np.mean(pcur, axis=(1, 2, 3)))),
        "theta": theta,
    }


def real_space_grad_A(grid, p, psi, A):
    """``grad_A`` from real-space kernels: the current through
    ``pauli.current``, the wave term transformed back, and their sum
    projected by ``helmholtz_project``."""
    cur = current(grid, p, psi, A)
    lin_hat = grid.fft(A) * _wave_symbol(grid, p)
    out = -cur / p.light_speed + np.real(grid.ifft(lin_hat)) / (4.0 * np.pi)
    return spectral.helmholtz_project(grid, out)


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def modulated_plane_wave(grid, p, depth=0.3):
    """The lattice plane wave with its amplitude modulated across the
    carrier: a spread density that carries a transverse current."""
    psi, _ = plane_wave_state(grid, p)
    _, y, _ = grid.coords()
    data = psi.data * (1.0 + depth * np.cos(2.0 * np.pi * y / grid.box_l))
    return data * np.sqrt(p.lam / l2_norm_sq(grid, data))


def unshifted_precond(grid, p, psi_low):
    """The inverse wave symbol 4 pi / symbol with k = 0 frozen: the A
    preconditioner without the diamagnetic mean field."""
    sym = _wave_symbol(grid, p)
    inv = np.zeros_like(sym)
    np.divide(4.0 * np.pi, sym, out=inv, where=sym > 0)
    return inv


class TestLayout:
    @pytest.mark.parametrize(
        "kernel, reads",
        [pytest.param(f, "psi A", id=f.__name__) for f in (
            energy_functional, el_residual, covariant_gradient, spin_term, grad_A
        )] + [
            pytest.param(lambda g, p, psi, A: apriori_bounds(g, p, psi, A, total=0.0), "psi A",
                         id="apriori_bounds"),
            pytest.param(lambda g, p, psi, A: psi_l6_norm(g, psi), "psi", id="psi_l6_norm"),
            pytest.param(lambda g, p, psi, A: coulomb_double_integral(g, psi), "psi",
                         id="coulomb_double_integral"),
            pytest.param(lambda g, p, psi, A: field_energy(g, p, A, A), "A", id="field_energy"),
            pytest.param(lambda g, p, psi, A: omega_from_theta(g, p, A, 0.25), "A",
                         id="omega_from_theta"),
            pytest.param(lambda g, p, psi, A: minimize(g, p, MinimizeConfig(init="given"), psi, A),
                         "psi A", id="minimize_given"),
        ],
    )
    def test_component_last_arrays_are_refused(self, grid16, kernel, reads):
        """An (n, n, n, c) array is refused, not transformed over the
        wrong axes."""
        p = params("S", v=0.1)
        psi, A = random_fields(grid16, p, seed=3)
        last = lambda f: np.ascontiguousarray(np.moveaxis(f.data, 0, -1))
        layouts = {"psi": (last(psi), A.data), "A": (psi.data, last(A))}
        for name in reads.split():
            with pytest.raises(InputError, match="component-first"):
                kernel(grid16, p, *layouts[name])

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_kernels_leave_inputs_and_record_unchanged(self, grid16, model):
        """Stacks are transformed in place only where they are temporaries:
        no kernel writes into its inputs or into the record it reads."""
        p = params(model, v=0.1)
        psi, A = random_fields(grid16, p, seed=3)
        psi, A = psi.data, A.data
        saved = psi.copy(), A.copy()
        energy_functional(grid16, p, psi, A)
        grad_psi(grid16, p, psi, A)
        el_residual(grid16, p, psi, A)
        current(grid16, p, psi, A)
        grad_A(grid16, p, psi, A)
        solve_vector_potential(grid16, p, psi, A0=A)
        assert np.array_equal(psi, saved[0]) and np.array_equal(A, saved[1])
        st = kinetic_state(grid16, p, psi, spectral.dealias(grid16, A))
        record = [st.psi_hat.copy(), st.psi_low.copy(), st.kpsi_hat.copy(), st.a_low.copy()]
        _gradient_hat(grid16, p, st)
        _source_hat(grid16, p, st)
        _a_operator(grid16, p, st.psi_low)(grid16.fft(A))
        for got, want in zip((st.psi_hat, st.psi_low, st.kpsi_hat, st.a_low), record):
            assert np.array_equal(got, want)


class TestGradients:
    """Both energy terms are quadratic, so a central difference matches
    the analytic gradient to rounding, not just to O(eps^2)."""

    def fd_psi(self, grid, p, psi, A, delta, eps=1e-3):
        e_plus = energy_functional(grid, p, psi + eps * delta, A).total
        e_minus = energy_functional(grid, p, psi - eps * delta, A).total
        return (e_plus - e_minus) / (2.0 * eps)

    def test_grad_psi_first_model(self, grid16, rng):
        p = params("S", v=0.2)
        psi, A = random_fields(grid16, p, seed=51)
        delta = rng.standard_normal((2,) + grid16.shape) + 1j * rng.standard_normal(
            (2,) + grid16.shape
        )
        G = grad_psi(grid16, p, psi.data, A.data)
        slope = 2.0 * float(np.real(inner(grid16, G, delta)))
        fd = self.fd_psi(grid16, p, psi.data, A.data, delta)
        assert rel(fd, slope) < 1e-9

    def test_grad_psi_second_model(self, grid16, rng):
        # grad_psi applies K^dagger K, so it is exact on band-limited and
        # on broadband states alike
        p = params("P", v=0.2)
        delta = rng.standard_normal((2,) + grid16.shape) + 1j * rng.standard_normal(
            (2,) + grid16.shape
        )
        for mm in (grid16.mode_cut // 2, None):
            psi, A = random_fields(grid16, p, seed=52, max_mode=mm)
            G = grad_psi(grid16, p, psi.data, A.data)
            slope = 2.0 * float(np.real(inner(grid16, G, delta)))
            fd = self.fd_psi(grid16, p, psi.data, A.data, delta)
            assert rel(fd, slope) < 1e-9, mm

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_grad_A(self, grid16, rng, model):
        p = params(model, v=0.2)
        psi, A = random_fields(grid16, p, seed=53)
        raw = rng.standard_normal((3,) + grid16.shape)
        delta = spectral.zero_mean(grid16, spectral.helmholtz_project(grid16, raw))
        G = grad_A(grid16, p, psi.data, A.data)
        slope = float(grid16.integrate(np.sum(G * delta, axis=0)))
        eps = 1e-3
        e_plus = energy_functional(grid16, p, psi.data, A.data + eps * delta).total
        e_minus = energy_functional(grid16, p, psi.data, A.data - eps * delta).total
        fd = (e_plus - e_minus) / (2.0 * eps)
        assert rel(fd, slope) < 1e-9

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_grad_A_matches_real_space_reference(self, grid16, grid32, model, n):
        """grad_A, summed and projected on the transform of A, is the
        real-space assembly, with a field and at A = 0."""
        grid = {16: grid16, 32: grid32}[n]
        p = params(model, v=0.2)
        psi, A = random_fields(grid, p, seed=54)
        for a in (A.data, np.zeros_like(A.data)):
            ref = real_space_grad_A(grid, p, psi.data, a)
            assert max_rel(grad_A(grid, p, psi.data, a), ref) <= 1e-13

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_multiplier_tangency(self, grid16, model):
        """<psi, G + hbar theta psi> = 0 at the measured multiplier.

        The identity rests on <psi, lap psi> = |K psi|^2, which holds to
        rounding for both models on band-limited and broadband states.
        """
        p = params(model, v=0.15)
        for mm in (grid16.mode_cut // 2, None):
            psi, A = random_fields(grid16, p, seed=54, max_mode=mm)
            theta = lagrange_theta(grid16, p, psi.data, A.data)
            G = grad_psi(grid16, p, psi.data, A.data)
            proj = inner(grid16, psi.data, G + p.hbar * theta * psi.data)
            scale = np.sqrt(l2_norm_sq(grid16, G) * l2_norm_sq(grid16, psi.data))
            assert abs(proj) < 1e-12 * scale, mm

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_workspace_gradient_is_bit_identical(self, grid16, model):
        """The solver's G, read from the KineticState of its energy
        evaluation, is a fresh grad_psi bit for bit, and that evaluation
        is energy_functional's kinetic + drift bit for bit."""
        p = params(model, v=(0.2, -0.1, 0.05))
        psi, A = random_fields(grid16, p, seed=58)
        st = kinetic_state(grid16, p, psi.data, spectral.dealias(grid16, A.data))
        e_psi = _psi_energy(grid16, p, st)
        cached = grid16.ifft(_gradient_hat(grid16, p, st), overwrite=True)
        assert np.array_equal(cached, grad_psi(grid16, p, psi.data, A.data))
        br = energy_functional(grid16, p, psi.data, A.data)
        assert e_psi == br.kinetic + br.drift

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_residual_matches_real_space_reference(self, grid16, grid32, model, n):
        """el_residual reads the current from the KineticState of (psi, A)
        and stays in spectral space; every field equals the real-space
        reference to rounding."""
        grid = {16: grid16, 32: grid32}[n]
        p = params(model, v=(0.2, -0.1, 0.05))
        psi, A = random_fields(grid, p, seed=66, a_amp=0.3)
        res = el_residual(grid, p, psi.data, A.data)
        ref = real_space_residual(grid, p, psi.data, A.data)
        for name, value in ref.items():
            assert rel(getattr(res, name), value) <= 1e-13, name

    def test_residual_keeps_low_modes_on_a_large_box(self):
        """Only k = 0 is split off the A-side residual.  On L = 1e9 the
        lowest wavenumbers are below 1e-8, so a mask built with the
        default ``np.isclose`` tolerance would drop the 26 modes next to
        k = 0 as well."""
        grid = Grid(16, 1e9)
        assert 2.0 * np.pi / grid.box_l < 1e-8
        for model in ("S", "P"):
            p = params(model, v=0.1)
            psi, A = random_fields(grid, p, seed=5, max_mode=1)
            res = el_residual(grid, p, psi.data, A.data)
            ref = real_space_residual(grid, p, psi.data, A.data)
            assert rel(res.a_raw, ref["a_raw"]) <= 1e-13, model
            assert rel(res.a_scale, ref["a_scale"]) <= 1e-13, model

    @pytest.mark.parametrize("n", [16, 32])
    def test_spin_up_residual_bands_the_block(self, grid16, grid32, n):
        """A model S residual of a psi with psi_down = 0 bands its spin-up
        block, as the solver's report does, and every field equals that of
        the banded spinor bit for bit."""
        grid = {16: grid16, 32: grid32}[n]
        p = params("S", v=(0.2, -0.1, 0.05))
        psi, A = random_fields(grid, p, seed=66, a_amp=0.3)
        up = psi.data.copy()
        up[1] = 0.0
        spinor = minimize_mod._report(grid, p, *spectral.band(grid, up),
                                      _field_band(grid, p, A.data))[0]
        res = el_residual(grid, p, up, A.data)
        bits = lambda r: [np.float64(x).tobytes() for x in dataclasses.astuple(r)]
        assert bits(res) == bits(spinor)

    def test_theta_against_energy_at_zero_field(self, grid16):
        """With A = 0 the multiplier reduces to -E / (hbar lambda)."""
        p = params("S", v=0.1, hbar=0.9, mass=1.2)
        psi, _ = random_fields(grid16, p, seed=55)
        A = np.zeros((3,) + grid16.shape)
        theta = lagrange_theta(grid16, p, psi.data, A)
        total = energy_functional(grid16, p, psi.data, A).total
        assert rel(theta, -total / (p.hbar * p.lam)) < 1e-12

    def test_theta_matches_residual_report(self, grid16):
        p = params("P", v=0.1)
        for mm in (grid16.mode_cut // 2, None):
            psi, A = random_fields(grid16, p, seed=56, max_mode=mm)
            theta = lagrange_theta(grid16, p, psi.data, A.data)
            res = el_residual(grid16, p, psi.data, A.data)
            assert rel(theta, res.theta) < 1e-12, mm

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_theta_of_the_plane_wave_at_any_mass(self, grid16, model, lam):
        """On the lattice plane wave theta = -(hbar |k*|^2 / 2m - v.k*) at
        every lambda: the residual divides by the measured |psi|^2 as well
        as by hbar."""
        p = params(model, v=(0.1, 0.05, 0.0), lam=lam)
        psi, A = plane_wave_state(grid16, p)
        dk = 2.0 * np.pi / grid16.box_l
        kstar = np.round(p.mass * p.v_arr / (p.hbar * dk)) * dk
        want = -(p.hbar * float(kstar @ kstar) / (2.0 * p.mass) - float(p.v_arr @ kstar))
        assert rel(el_residual(grid16, p, psi.data, A.data).theta, want) <= 1e-13

    def test_omega_formula(self, grid16):
        p = params("S", v=0.1)
        _, A = random_fields(grid16, p, seed=57)
        adot = spectral.directional_derivative(grid16, A.data, p.v_arr)
        expect = field_energy(grid16, p, A.data, adot) / p.hbar - 0.25
        assert rel(omega_from_theta(grid16, p, A.data, 0.25), expect) < 1e-14


class TestVectorPotentialSolve:
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_stationarity_after_solve(self, grid16, model):
        p = params(model, v=0.2)
        psi, _ = random_fields(grid16, p, seed=61)
        A, n_ops = solve_vector_potential(grid16, p, psi.data, tol=1e-12)
        assert n_ops > 0
        res = el_residual(grid16, p, psi.data, A.data)
        assert res.a_rel < 1e-8
        div = spectral.divergence(grid16, A.data)
        assert np.max(np.abs(div)) < 1e-9 * max(np.max(np.abs(A.data)), 1e-30)
        assert np.max(np.abs(np.mean(A.data, axis=(1, 2, 3)))) < 1e-14

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_operator_is_a_derivative_of_current(self, grid16, model):
        """The diamagnetic part of the A-operator is -(1/c) times the
        projected A-derivative of ``pauli.current``; the current is
        affine in A, so the difference quotient is exact."""
        p = params(model, v=0.2)
        psi, A = random_fields(grid16, p, seed=65)
        a_hat = grid16.fft(A.data)
        op = _a_operator(grid16, p, spectral.dealias(grid16, psi.data))
        lhs = op(a_hat) - _field_symbol(grid16, p) * a_hat
        dj = current(grid16, p, psi.data, A.data) - current(
            grid16, p, psi.data, np.zeros_like(A.data)
        )
        rhs = -grid16.fft(spectral.helmholtz_project(grid16, dj)) / p.light_speed
        rhs[:, 0, 0, 0] = 0.0
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_forcing_matches_real_space_reference(self, grid16, grid32, model, n):
        """The spectral forcing, read from the field-free KineticState,
        is the transform of (1/c) P J0 built in real space, k = 0 frozen."""
        grid = {16: grid16, 32: grid32}[n]
        p = params(model, v=0.2)
        psi, _ = random_fields(grid, p, seed=67)
        zero = np.zeros((3,) + grid.shape)
        cur = current(grid, p, psi.data, zero) / p.light_speed
        ref = grid.fft(spectral.zero_mean(grid, spectral.helmholtz_project(grid, cur)))
        ref[:, 0, 0, 0] = 0.0
        b, _ = _a_rhs(grid, p, kinetic_state(grid, p, psi.data))
        assert max_rel(b, ref) <= 1e-13

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_warm_start_matches_real_space_projection(self, grid16, grid32, model, n):
        """With no iteration the solve returns its warm start, projected
        on its transform: the real-space solenoidal zero-mean projection.
        A warm start farther from the solution than A = 0 is dropped."""
        grid = {16: grid16, 32: grid32}[n]
        p = params(model, v=0.2)
        psi, _ = random_fields(grid, p, seed=68)
        raw = np.random.default_rng(68).standard_normal((3,) + grid.shape)
        A_far, n_ops = solve_vector_potential(grid, p, psi.data, A0=raw, max_iter=0)
        assert n_ops == 1 and not np.any(A_far.data)
        sol, _ = solve_vector_potential(grid, p, psi.data)
        warm = sol.data + 0.001 * np.max(np.abs(sol.data)) * raw
        A, n_ops = solve_vector_potential(grid, p, psi.data, A0=warm, max_iter=0)
        ref = spectral.zero_mean(grid, spectral.helmholtz_project(grid, warm))
        assert n_ops == 1
        assert max_rel(A.data, ref) <= 1e-13

    def test_stop_reason_is_logged(self, grid16, caplog):
        """Each solve logs how it ended at DEBUG level: the stop reason,
        the operator applications and the best relative residual.  When
        max_iter runs out, the iterate of the last step is tested too, so
        one step from the cold start A = 0 is kept and lowers the best."""
        p = params("S", v=0.2)
        psi, _ = random_fields(grid16, p, seed=61)
        with caplog.at_level(logging.DEBUG, logger="mpwave.minimize"):
            A_cut, n_cut = solve_vector_potential(grid16, p, psi.data, max_iter=1)
            _, n_full = solve_vector_potential(grid16, p, psi.data)
        messages = [r.getMessage() for r in caplog.records if r.name == "mpwave.minimize"]
        assert len(messages) == 2
        assert messages[0].startswith(f"A-solve: max_iter after {n_cut} operator applications")
        assert messages[1].startswith(f"A-solve: tol after {n_full} operator applications")
        assert all("best |r|/ref = " in m for m in messages)
        assert float(messages[0].rsplit("= ", 1)[1]) < 1.0
        assert np.any(A_cut.data)

    @pytest.mark.parametrize("v", [(0.1, 0.0, 0.0), (0.2, 0.1, 0.0)])
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_plane_wave_forcing_is_at_the_floor(self, grid16, grid32, model, n, v, caplog):
        """A lattice plane wave carries only a mean current, which the
        frozen k = 0 mode takes whole: its projected forcing is rounding
        residue, and the solve returns the exact minimizer A = 0 after no
        operator application, whatever the warm start."""
        grid = {16: grid16, 32: grid32}[n]
        p = params(model, v=v)
        psi, _ = plane_wave_state(grid, p)
        warm = np.random.default_rng(70).standard_normal((3,) + grid.shape)
        with caplog.at_level(logging.DEBUG, logger="mpwave.minimize"):
            A, n_ops = solve_vector_potential(grid, p, psi.data, A0=warm)
        [msg] = [r.getMessage() for r in caplog.records if r.name == "mpwave.minimize"]
        assert msg.startswith("A-solve: floor after 0 operator applications, |b|/|J| = ")
        assert n_ops == 0
        assert not np.any(A.data)

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_random_forcing_is_above_the_floor(self, grid16, grid32, model, caplog):
        """States with a transverse current never take the floor exit.  A
        cold solve starts from r = b with no operator application, so at
        max_iter = 0 it ends on max_iter, not on the floor, after none."""
        p = params(model, v=(0.2, 0.1, 0.0))
        with caplog.at_level(logging.DEBUG, logger="mpwave.minimize"):
            for grid in (grid16, grid32):
                for seed in range(3):
                    psi, _ = random_fields(grid, p, seed=71 + seed)
                    _, n_ops = solve_vector_potential(grid, p, psi.data, max_iter=0)
                    assert n_ops == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "mpwave.minimize"]
        assert len(messages) == 6
        assert all(m.startswith("A-solve: max_iter after 0 ") for m in messages)

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_preconditioner_inverts_a_uniform_density(self, grid16, model):
        """For a constant spinor the diamagnetic sandwich is (Q^2 / m c^2)
        rho_bar on the dealias band, for both models, so the shifted
        preconditioner is the exact inverse of the operator there."""
        p = params(model, v=0.2)
        psi = np.empty((2,) + grid16.shape, dtype=complex)
        psi[0], psi[1] = 0.3 + 0.1j, 0.2 - 0.4j
        raw = np.random.default_rng(72).standard_normal((3,) + grid16.shape)
        a_hat = spectral.project_hat(grid16, grid16.fft(raw)) * grid16.dealias_mask
        a_hat[:, 0, 0, 0] = 0.0
        out = _a_precond(grid16, p, psi) * _a_operator(grid16, p, psi)(a_hat)
        assert max_rel(out, a_hat) <= 1e-13
        # the shift is what makes it exact: the bare inverse symbol is off
        bare = unshifted_precond(grid16, p, psi) * _a_operator(grid16, p, psi)(a_hat)
        assert max_rel(bare, a_hat) > 1e-3

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_shifted_preconditioner_keeps_the_answer(self, grid16, model):
        """The shift changes the path of the solve, not its end: from a
        random warm start, random states and a spread plane-wave state
        give the A of a tol = 1e-13 reference solve.  The warm start is
        the solution plus 1 % noise; on the plane-wave state that is
        farther than A = 0, and the solve starts cold."""
        p = params(model, v=0.2)
        noise = np.random.default_rng(73).standard_normal((3,) + grid16.shape)
        states = [random_fields(grid16, p, seed=74 + k)[0].data for k in range(2)]
        states.append(modulated_plane_wave(grid16, p))
        for psi in states:
            ref, _ = solve_vector_potential(grid16, p, psi, tol=1e-13)
            warm = ref.data + 0.01 * np.max(np.abs(ref.data)) * noise
            A, n_ops = solve_vector_potential(grid16, p, psi, A0=warm)
            assert n_ops > 1
            assert max_rel(A.data, ref.data) <= 1e-10

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_far_warm_start_keeps_the_tolerance(self, grid16, model):
        """A warm start farther from the solution than x = 0 is dropped, so
        the stop rule stays relative to |b|: from a unit-norm random start,
        whose residual is several |b|, the solve still lands as close to the
        tol = 1e-13 reference as a cold one (about 2e-12; measured against
        max(|b|, |r0|) it ended about 1.6e-11 away)."""
        p = params(model, v=0.2)
        noise = np.random.default_rng(73).standard_normal((3,) + grid16.shape)
        noise /= np.linalg.norm(noise)
        for seed in range(4):
            psi = random_fields(grid16, p, seed=seed)[0].data
            ref, _ = solve_vector_potential(grid16, p, psi, tol=1e-13)
            A, _ = solve_vector_potential(grid16, p, psi, A0=noise)
            assert max_rel(A.data, ref.data) <= 5e-12, seed

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_shift_saves_operator_applications(self, grid16, model, monkeypatch):
        """On a spread density whose diamagnetic mean field is about the
        lowest wave symbol / 4 pi (lambda = 100 on L = 40), the shifted
        preconditioner reaches the same A in fewer operator applications
        than the bare inverse symbol from a warm start near the solution,
        as in the solver's loop."""
        p = params(model, v=0.1, lam=100.0)
        psi = modulated_plane_wave(grid16, p)
        ref, _ = solve_vector_potential(grid16, p, psi, tol=1e-13)
        noise = np.random.default_rng(75).standard_normal((3,) + grid16.shape)
        warm = ref.data + 0.01 * np.max(np.abs(ref.data)) * noise
        A, n_shifted = solve_vector_potential(grid16, p, psi, A0=warm)
        monkeypatch.setattr(minimize_mod, "_a_precond", unshifted_precond)
        _, n_bare = solve_vector_potential(grid16, p, psi, A0=warm)
        assert n_shifted < n_bare
        assert max_rel(A.data, ref.data) <= 1e-10

    def test_warm_start_stays_put(self, grid16):
        p = params("S", v=0.2)
        psi, _ = random_fields(grid16, p, seed=61)
        A, _ = solve_vector_potential(grid16, p, psi.data, tol=1e-12)
        A2, _ = solve_vector_potential(grid16, p, psi.data, A0=A.data, tol=1e-12)
        scale = max(np.max(np.abs(A.data)), 1e-30)
        assert np.max(np.abs(A2.data - A.data)) < 1e-6 * scale

    def test_superluminal_symbol_rejected(self, grid16):
        p = params("S", v=2.0)
        psi, _ = random_fields(grid16, p, seed=62)
        with pytest.raises(SolverError):
            solve_vector_potential(grid16, p, psi.data)


class TestPlaneWaveState:
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_exactly_stationary(self, grid16, model):
        p = params(model, v=0.1)
        psi, A = plane_wave_state(grid16, p)
        res = el_residual(grid16, p, psi.data, A.data)
        assert res.max_rel < 1e-10
        br = energy_functional(grid16, p, psi.data, A.data)
        assert rel(br.total, lattice_energy(grid16, p)) < 1e-12

    def test_matches_meshgrid_form(self, grid16):
        """The sampler broadcasts 1-D coordinates; the carrier equals its
        form on the full coordinate arrays bit for bit."""
        p = params("S", v=(0.1, 0.05, -0.1))
        dk = 2.0 * np.pi / grid16.box_l
        kstar = np.round(p.mass * p.v_arr / (p.hbar * dk)) * dk
        x, y, z = grid16.coords()
        phase = np.exp(1j * (kstar[0] * x + kstar[1] * y + kstar[2] * z))
        data = np.zeros((2,) + grid16.shape, dtype=complex)
        data[0] = phase
        ref = normalize_to_lambda(SpinorField(grid16, data), p.lam)
        assert np.array_equal(plane_wave_state(grid16, p)[0].data, ref.data)

    def test_snaps_to_lattice(self, grid16):
        dk = 2.0 * np.pi / grid16.box_l
        psi, _ = plane_wave_state(grid16, params("S", v=0.12))
        ph = grid16.fft(psi.data[0])
        idx = np.unravel_index(np.argmax(np.abs(ph)), ph.shape)
        k_at = np.array([grid16.k[a][idx] for a in range(3)])
        assert np.allclose(k_at, [dk, 0.0, 0.0])
        # below half a lattice spacing the carrier drops to zero
        psi0, _ = plane_wave_state(grid16, params("S", v=0.05))
        assert np.max(np.abs(psi0.data - psi0.data[:, :1, :1, :1])) < 1e-12

    def test_out_of_band_carrier_is_refused(self):
        """On L = 400 at n = 16 the dealias band ends at 5 * 2 pi / 400
        = 0.0785, below the v = 0.1 carrier: sampling it would alias onto
        another wavenumber, so both samplers refuse."""
        g = Grid(16, 400.0)
        p = params("S", v=0.1)
        with pytest.raises(DomainGateError, match="dealias band"):
            plane_wave_state(g, p)
        with pytest.raises(DomainGateError, match="dealias band"):
            trial_fields(g, p, TrialSpec.fitted(g, amplitude=0.5))
        # a carrier inside the band still samples on the same grid
        psi, _ = plane_wave_state(g, params("S", v=0.05))
        assert l2_norm_sq(g, psi.data) == pytest.approx(p.lam)

    def test_band_edge_carrier_rounds_into_band(self, grid16):
        """At v = 0.82 on L = 40 the carrier is 5.22 lattice steps, past
        mode_cut = 5: the plane wave rounds it to the in-band lattice
        mode 5 and samples it, while the unrounded trial carrier is
        refused."""
        p = params("S", v=0.82)
        dk = 2.0 * np.pi / grid16.box_l
        psi, _ = plane_wave_state(grid16, p)
        ph = grid16.fft(psi.data[0])
        idx = np.unravel_index(np.argmax(np.abs(ph)), ph.shape)
        assert np.allclose([grid16.k[a][idx] for a in range(3)], [5 * dk, 0.0, 0.0])
        with pytest.raises(DomainGateError, match="dealias band"):
            trial_fields(grid16, p, TrialSpec.fitted(grid16, amplitude=0.5))


class TestMinimize:
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_plane_start_is_already_converged(self, grid16, model):
        p = params(model, v=0.1)
        rep = minimize(grid16, p, MinimizeConfig(init="plane"))
        assert rep.converged
        assert rep.iterations <= 20
        assert rel(rep.energy, lattice_energy(grid16, p)) < 1e-12
        # both A-solves, start and polish, end on the floor of their
        # forcing: A is exactly 0
        assert rep.a_ops == 0 and rep.a_solves == 2 and not np.any(rep.A.data)

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_trial_start_reaches_ground_state(self, grid16, model):
        p = params(model, v=0.1)
        rep = minimize(grid16, p, MinimizeConfig(init="trial"))
        assert rep.converged, rep.message
        assert rep.residual_psi < MinimizeConfig().residual_tol
        assert rel(rep.energy, lattice_energy(grid16, p)) < 1e-9
        assert rep.breakdown.mass_constraint == pytest.approx(p.lam, rel=1e-12)
        # the trace never moves uphill past line-search tolerance
        trace = np.asarray(rep.energy_trace, dtype=float)
        assert np.all(np.diff(trace) <= 1e-12)
        # report is self-consistent
        assert rel(
            rep.omega, omega_from_theta(grid16, p, rep.A.data, rep.theta)
        ) < 1e-12

    @pytest.mark.parametrize("model, v", [pytest.param(m, 0.1, id=m) for m in "SP"]
                             + [pytest.param(m, 0.0, id=f"{m}-v0") for m in "SP"])
    def test_stationary_start_ends_without_trials(self, grid16, model, v, monkeypatch):
        """At the plane wave the tangent gradient is rounding noise (exactly
        zero at v = 0, where psi is constant), so the first trial step would
        not move psi: the line search ends at once on the rounding of E
        instead of backtracking."""
        module = importlib.import_module("mpwave.minimize")
        evaluated = []
        energy_part = module._psi_energy

        def counted(*args):
            evaluated.append(args[2])
            return energy_part(*args)

        monkeypatch.setattr(module, "_psi_energy", counted)
        p = params(model, v=v)
        if v == 0.0:
            with pytest.warns(UserWarning, match="v = 0"):
                rep = minimize(grid16, p, MinimizeConfig(init="plane"))
        else:
            rep = minimize(grid16, p, MinimizeConfig(init="plane"))
        assert rep.converged and rep.iterations == 1
        assert rep.message == "stationary: no descent direction left"
        assert len(evaluated) == 1  # the start's own energy, no trial
        assert rel(rep.energy, lattice_energy(grid16, p)) < 1e-12

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_every_check_reads_an_exact_field(self, grid16, model, monkeypatch):
        """A is solved at the start, after every ``a_solve_every``-th
        accepted step and at the polish, and nowhere else: a run that ends
        on its line search accepts iterations - 1 steps.  The residual that
        judges the run reads the polished A, at the A-solve's tolerance.
        A is a function of psi, so every A-solve begins at A = 0 but the
        first of a given start, which reads A0."""
        tols, starts = [], []
        solve = minimize_mod._solve_vector_potential

        def spy(grid, p, psi_hat, psi_low, A0, **kw):
            tols.append(kw["tol"])
            starts.append(A0)
            return solve(grid, p, psi_hat, psi_low, A0, **kw)

        monkeypatch.setattr(minimize_mod, "_solve_vector_potential", spy)
        p = params(model, v=0.1)
        psi0, A0 = random_fields(grid16, p, seed=1, a_amp=0.1)
        for init, start in (("trial", {}), ("given", {"psi0": psi0, "A0": A0})):
            tols.clear()
            starts.clear()
            config = MinimizeConfig(init=init)
            rep = minimize(grid16, p, config, **start)
            assert rep.converged and rep.message == "stationary: no descent direction left"
            assert rep.iterations > 3 * config.a_solve_every
            assert rep.a_solves == len(tols) == 2 + (rep.iterations - 1) // config.a_solve_every
            assert tols == [config.a_tol] * (rep.a_solves - 1) + [1e-12]
            assert rep.residual_a <= 1e-8
            assert all(a is None for a in starts[1:]), init
            if init == "given":
                assert np.array_equal(starts[0], A0.data)
            else:
                assert starts[0] is None

    @pytest.mark.parametrize("v", [0.1, 0.2])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_restart_keeps_the_given_field(self, grid16, model, v, monkeypatch):
        """A given start passes A0 to its first A-solve as the warm start:
        restarted from a minimizer's own pair, the run stays converged at
        the same energy, and that solve keeps the start, ends after the one
        operator application that checks it and returns the minimizer's A."""
        p = params(model, v=v)
        rep = minimize(grid16, p, MinimizeConfig(init="trial"))
        assert rep.converged, rep.message
        first = []
        solve = minimize_mod._solve_vector_potential

        def spy(grid, p, psi_hat, psi_low, A0, **kw):
            out = solve(grid, p, psi_hat, psi_low, A0, **kw)
            if not first:
                first.extend([A0, *out])
            return out

        monkeypatch.setattr(minimize_mod, "_solve_vector_potential", spy)
        warm = minimize(grid16, p, MinimizeConfig(init="given"), rep.psi, rep.A)
        assert warm.converged, warm.message
        assert rel(warm.energy, rep.energy) < 1e-14
        a0, A, n_ops = first
        assert np.array_equal(a0, rep.A.data)
        assert n_ops == 1
        drift = np.max(np.abs(A.data - rep.A.data)) / np.max(np.abs(rep.A.data))
        assert drift <= 1e-15, drift

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_early_stop_is_not_converged(self, grid16, model):
        """A run cut at ``max_iter`` is judged by its polished residual like
        any other, so it is not converged and its message says where it
        stopped: two steps from the trial start leave it far from
        stationary (residual_psi about 0.45), and a given start 1e-4 off
        the plane wave, stopped before its first step, near it (about
        1.7e-3, between residual_tol and 1e3 times it)."""
        p = params(model, v=0.1)
        near = plane_wave_state(grid16, p)[0].data + 1e-4 * random_fields(grid16, p, seed=4)[0].data
        runs = [
            (2, minimize(grid16, p, MinimizeConfig(max_iter=2))),
            (0, minimize(grid16, p, MinimizeConfig(init="given", max_iter=0), near,
                         np.zeros((3,) + grid16.shape))),
        ]
        for iterations, rep in runs:
            assert rep.iterations == iterations
            assert rep.converged is False
            assert rep.residual_psi > MinimizeConfig.residual_tol
            assert rep.message == "max_iter reached"
        assert runs[1][1].residual_psi < 1e3 * MinimizeConfig.residual_tol

    @pytest.mark.parametrize("init", ["trial", "random", "given"])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_returned_psi_is_band_limited(self, grid16, model, init):
        """The loop iterates the band-limited transform of psi, so the psi
        a run returns is its own band limit T psi to rounding (8 eps of
        |psi|; up to 7e-13 when the loop ran on grid values)."""
        p = params(model, v=0.1)
        start = {}
        if init == "given":
            psi0, A0 = random_fields(grid16, p, seed=1, a_amp=0.1)
            start = {"psi0": psi0, "A0": A0}
        rep = minimize(grid16, p, MinimizeConfig(init=init, seed=2), **start)
        assert rep.converged, rep.message
        psi = rep.psi.data
        off_band = np.sqrt(l2_norm_sq(grid16, psi - spectral.dealias(grid16, psi)))
        assert off_band <= 8 * np.finfo(float).eps * np.sqrt(p.lam), off_band

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_out_of_band_start_is_dropped(self, grid16, model):
        """A given psi0 with a large out-of-band mode starts from its band
        limit: the run converges to the lattice plane wave to 1e-14 and
        returns a band-limited psi."""
        p = params(model, v=0.1)
        psi0, A0 = random_fields(grid16, p, seed=1, a_amp=0.1)
        x = grid16.open_coords()[0]
        high = 2.0 * np.pi / grid16.box_l * (grid16.mode_cut + 2)
        rough = psi0.data + np.sqrt(p.lam / grid16.box_l ** 3) * np.exp(1j * high * x)
        assert l2_norm_sq(grid16, rough - spectral.dealias(grid16, rough)) > 0.5 * p.lam
        rep = minimize(grid16, p, MinimizeConfig(init="given"), psi0=rough, A0=A0)
        assert rep.converged, rep.message
        assert rel(rep.energy, lattice_energy(grid16, p)) < 1e-14
        psi = rep.psi.data
        off_band = np.sqrt(l2_norm_sq(grid16, psi - spectral.dealias(grid16, psi)))
        assert off_band <= 8 * np.finfo(float).eps * np.sqrt(p.lam), off_band

    @pytest.mark.parametrize("init", ["trial", "plane", "given"])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_report_matches_the_public_functions(self, grid16, model, init):
        """The report reads one band of the polished A and one record of the
        polished pair, built on the band of psi the run holds; its numbers
        are those of the public functions of (rep.psi, rep.A), bit for bit."""
        p = params(model, v=0.1)
        start = {}
        if init == "given":
            psi0, A0 = random_fields(grid16, p, seed=1, a_amp=0.1)
            start = {"psi0": psi0, "A0": A0}
        rep = minimize(grid16, p, MinimizeConfig(init=init), **start)
        assert np.any(rep.A.data) == (init != "plane")
        res = el_residual(grid16, p, rep.psi, rep.A)
        got = [*rep.breakdown.as_dict().values(), rep.residual_psi, rep.residual_a,
               rep.theta, rep.current_defect, rep.omega]
        want = [*energy_functional(grid16, p, rep.psi, rep.A).as_dict().values(),
                res.psi_rel, res.a_rel, res.theta, res.current_defect,
                omega_from_theta(grid16, p, rep.A, res.theta)]
        bits = lambda xs: [np.float64(x).tobytes() for x in xs]
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("init", ["trial", "plane"])
    def test_model_s_runs_the_spin_up_block(self, grid16, init):
        """Model S couples no spin, so a spin-up start runs on its spin-up
        block and psi_down stays exactly zero.  The same start rotated by a
        constant SU(2) matrix (that of the pauli spin-blindness test) has
        psi_down != 0 and takes the two-component path from A0 = 0: the
        same iterations, A-operator applications and backtracks, and the
        energy to 4 eps of the size of its terms, which nearly cancel
        (1.5e-15 of E measured)."""
        p = params("S", v=0.1)
        rep = minimize(grid16, p, MinimizeConfig(init=init))
        assert not np.any(rep.psi.data[1])
        start = minimize_mod._initial_state(grid16, p, MinimizeConfig(init=init), None, None)[0]
        nvec, half = np.array([1.0, 2.0, 2.0]) / 3.0, 0.35
        U = np.cos(half) * np.eye(2) - 1j * np.sin(half) * np.einsum("a,aij->ij", nvec, SIGMA)
        rot = minimize(grid16, p, MinimizeConfig(init="given"),
                       psi0=np.einsum("ij,j...->i...", U, start), A0=np.zeros((3,) + grid16.shape))
        assert np.all(rot.psi.data[1] != 0)
        assert (rep.iterations, rep.a_ops, rep.backtracks) == (rot.iterations, rot.a_ops, rot.backtracks)
        br = rep.breakdown
        scale = abs(br.kinetic) + abs(br.field) + abs(br.drift)
        assert abs(rep.energy - rot.energy) <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("init", ["trial", "random"])
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_start_draws_the_samplers_psi_alone(self, grid16, model, init):
        """The trial and random starts draw psi alone, through the code that
        samples the psi of ``trial_fields`` and ``random_fields``: the same
        psi, bit for bit, and no A."""
        p = params(model, v=0.1)
        psi, A0 = minimize_mod._initial_state(
            grid16, p, MinimizeConfig(init=init, seed=3), None, None)
        if init == "random":
            sampled = random_fields(grid16, p, 3)[0]
        else:
            sampled = trial_fields(grid16, p, TrialSpec.fitted(grid16, amplitude=0.5))[0]
        assert A0 is None
        assert psi.tobytes() == normalize_to_lambda(sampled, p.lam).data.tobytes()

    def test_given_init_requires_both_fields(self, grid16):
        p = params("S", v=0.1)
        with pytest.raises(InputError):
            minimize(grid16, p, MinimizeConfig(init="given"))

    @pytest.mark.parametrize("given", ["psi0", "A0", "both"])
    def test_fields_go_with_given_init_only(self, grid16, given):
        """psi0 and A0 are the start of init="given"; another init refuses
        them rather than overwrite its own start with them."""
        p = params("S", v=0.1)
        psi, A = random_fields(grid16, p, seed=5, a_amp=0.1)
        start = {"psi0": psi, "A0": A}
        if given != "both":
            start = {given: start[given]}
        with pytest.raises(InputError, match="given"):
            minimize(grid16, p, MinimizeConfig(init="trial", max_iter=1), **start)

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_non_finite_state_is_never_converged(self, grid16, model):
        """A NaN in psi makes the residual NaN rather than 0: the ratio of a
        NaN to a NaN scale is not read as a flat state, and max_rel keeps
        the NaN of either side."""
        p = params(model, v=0.1)
        psi, A = random_fields(grid16, p, seed=1)
        bad = psi.data.copy()
        bad[0, 3, 4, 5] = np.nan
        res = el_residual(grid16, p, bad, A.data)
        assert np.isnan(res.psi_raw) and np.isnan(res.psi_rel)
        assert np.isnan(res.max_rel)
        assert not res.max_rel < MinimizeConfig.residual_tol

    @pytest.mark.parametrize("what", ["psi0 nan", "psi0 inf", "A0 nan", "psi0 zero"])
    def test_given_start_must_be_finite_and_nonzero(self, grid16, what):
        """A given pair with a non-finite entry or an all-zero psi0 has no
        state to start from: it is refused as input, not run or reported
        as converged."""
        p = params("S", v=0.1)
        psi, A = random_fields(grid16, p, seed=1)
        psi0, A0 = psi.data.copy(), A.data.copy()
        if what == "psi0 nan":
            psi0[0, 3, 4, 5] = np.nan
        elif what == "psi0 inf":
            psi0[1, 0, 0, 0] = np.inf
        elif what == "A0 nan":
            A0[2, 7, 7, 7] = np.nan
        else:
            psi0[:] = 0.0
        with pytest.raises(InputError, match="psi0"):
            minimize(grid16, p, MinimizeConfig(init="given", max_iter=1), psi0, A0)

    def test_config_validation(self):
        with pytest.raises(InputError):
            MinimizeConfig(init="nope")

    def test_negative_counts_refused(self, grid16):
        """A negative iteration cap would run no step and report "max_iter
        reached", and a negative logging stride would log every |k|-th
        step: both are refused.  A cap of 0 stays legal and polishes the
        start."""
        with pytest.raises(InputError, match="max_iter must be at least 0"):
            MinimizeConfig(max_iter=-1)
        with pytest.raises(InputError, match="log_every must be at least 0"):
            MinimizeConfig(log_every=-2)
        rep = minimize(grid16, params("S", v=0.1), MinimizeConfig(init="plane", max_iter=0))
        assert rep.iterations == 0 and rep.message == "max_iter reached"

    def test_settings_are_the_fields(self):
        """A run is set by its iteration cap, start, seed, logging and the
        speed-gate override; the numerics are constants of the class."""
        names = [f.name for f in dataclasses.fields(MinimizeConfig)]
        assert names == ["max_iter", "init", "seed", "log_every", "force"]
        assert MinimizeConfig.residual_tol == MinimizeConfig().residual_tol == 1e-5
        # the polished residual alone judges a run: no in-loop check or stall
        # counter, and none of their constants
        for gone in ("energy_tol", "patience", "confirm_stall", "check_every"):
            assert not hasattr(MinimizeConfig, gone), gone
        with pytest.raises(TypeError):
            MinimizeConfig(armijo=0.3)


class TestPreconditionedDescent:
    @pytest.mark.parametrize("model", ["S", "P"])
    def test_direction_is_tangent_and_descending(self, grid16, model):
        """d = P Gt projected on the tangent space, read as the solver's
        loop reads it, from the band-limited transforms of psi and Gt:
        Re <psi, d> vanishes to rounding and Re <Gt, d> = Re <Gt, P Gt> is
        positive, both Parseval sums."""
        p = params(model, v=0.15)
        for mm in (grid16.mode_cut // 2, None):
            psi, A = random_fields(grid16, p, seed=59, max_mode=mm)
            psi_hat = grid16.fft(psi.data) * grid16.dealias_mask
            st = minimize_mod.pauli._record(
                grid16, p, psi_hat, grid16.ifft(psi_hat), spectral.dealias(grid16, A.data))
            lam = l2_norm_sq(grid16, psi_hat) / grid16.n ** 3
            Gt, _ = _tangent(grid16, p, psi_hat, _gradient_hat(grid16, p, st), lam)
            d = _direction(grid16, p, psi_hat, Gt, _shift(grid16, p, st, lam), lam)
            d_norm = np.sqrt(l2_norm_sq(grid16, d) / grid16.n ** 3)
            tangency = inner(grid16, psi_hat, d).real / grid16.n ** 3
            assert abs(tangency) <= 1e-13 * np.sqrt(lam) * d_norm, mm
            assert inner(grid16, Gt, d).real > 0, mm

    def test_shift_is_floored_for_a_flat_state(self, grid16):
        """A constant psi has no kinetic energy; the shift falls back to
        that of the longest wave the box holds."""
        p = params("S", v=0.0, hbar=0.9, mass=1.2)
        psi = np.full((2,) + grid16.shape, 0.1 + 0.0j)
        st = kinetic_state(grid16, p, psi, np.zeros((3,) + grid16.shape))
        k_min = 2.0 * np.pi / grid16.box_l
        floor = p.hbar ** 2 * k_min ** 2 / (2.0 * p.mass)
        assert _shift(grid16, p, st, l2_norm_sq(grid16, psi)) == floor

    @pytest.mark.parametrize(
        "model, init, seed",
        [("S", "trial", 0), ("P", "trial", 0)] + [("P", "random", s) for s in range(4)],
    )
    def test_converges_in_few_iterations(self, grid16, model, init, seed):
        """The preconditioned solve reaches the lattice plane wave in tens
        of iterations; the unpreconditioned one needed several hundred."""
        p = params(model, v=0.1)
        rep = minimize(grid16, p, MinimizeConfig(init=init, seed=seed))
        assert rep.converged, rep.message
        assert rep.iterations <= 80
        assert rel(rep.energy, lattice_energy(grid16, p)) < 1e-9

    def test_progress_is_logged(self, grid16, caplog, capsys):
        """``log_every`` reports E, the step and the shift through logging,
        not on stdout."""
        p = params("S", v=0.1)
        with caplog.at_level(logging.INFO, logger="mpwave.minimize"):
            minimize(grid16, p, MinimizeConfig(init="trial", max_iter=4, log_every=2))
        messages = [r.getMessage() for r in caplog.records if r.name == "mpwave.minimize"]
        assert len(messages) == 2
        assert all("E = " in m and "step = " in m and "alpha = " in m for m in messages)
        assert capsys.readouterr().out == ""
