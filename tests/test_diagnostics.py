"""Trial family, witness scan, concentration, splitting, Coulomb, sweep."""

import dataclasses
import importlib

import numpy as np
import pytest

from mpwave import Grid, PhysParams
from mpwave import spectral
from mpwave.diagnostics import (
    BaseQuadratures,
    SplitSpec,
    TrialSpec,
    base_quadratures,
    centering,
    concentration_function,
    coulomb_double_integral,
    coulomb_lower_bound,
    effective_dilation,
    mass_sweep,
    negativity_witness,
    split_energy_check,
    split_fields,
    trial_energy_terms,
    trial_fields,
)
from mpwave.energy import energy_functional
from mpwave.errors import DomainGateError, InputError
from mpwave.fields import SpinorField, l2_norm_sq, normalize_to_lambda, random_fields
from mpwave.minimize import MinimizeConfig, plane_wave_state, solve_vector_potential

from conftest import gaussian_bump, params, rel, two_bump_state

diagnostics_mod = importlib.import_module("mpwave.diagnostics")


class TestTrialSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            TrialSpec(amplitude=0.0, dilation=1.0)
        with pytest.raises(InputError):
            TrialSpec(amplitude=1.0, dilation=-2.0)
        with pytest.raises(InputError):
            # bump pokes out of the base ball
            TrialSpec(amplitude=1.0, dilation=1.0, psi_offset=0.7, psi_radius=0.4)
        with pytest.raises(InputError):
            # bump crosses the symmetry plane
            TrialSpec(amplitude=1.0, dilation=1.0, psi_offset=0.2, psi_radius=0.4)

    def test_fit_gate(self, grid16):
        spec = TrialSpec(amplitude=1.0, dilation=25.0)
        with pytest.raises(DomainGateError):
            trial_fields(grid16, params("S", v=0.1), spec)

    def test_fitted_uses_margin(self, grid16):
        spec = TrialSpec.fitted(grid16, amplitude=1.0)
        assert spec.dilation == pytest.approx(0.4 * grid16.box_l)

    def test_settings_are_the_fields(self):
        """A trial state is set by its scan parameters and its shape; the
        fit margin is a constant of the class and the dilation is the
        support radius."""
        names = [f.name for f in dataclasses.fields(TrialSpec)]
        assert names == ["amplitude", "dilation", "psi_offset", "psi_radius"]
        assert TrialSpec.margin == TrialSpec(1.0, 1.0).margin == 0.1
        assert not hasattr(TrialSpec, "support_radius")
        with pytest.raises(TypeError):
            TrialSpec(1.0, 1.0, margin=0.2)


class TestSamplers:
    """The samplers broadcast 1-D coordinates; each equals its form on the
    full coordinate arrays of ``Grid.coords`` bit for bit."""

    def test_trial_raw_matches_meshgrid_form(self, grid16):
        p = params("P", v=0.2)
        spec = TrialSpec.fitted(grid16, amplitude=0.7)
        x, y, z = grid16.coords()
        cx, cy, cz = grid16.center()
        R = spec.dilation
        xs, ys, zs = (x - cx) / R, (y - cy) / R, (z - cz) / R
        r = np.sqrt(xs * xs + ys * ys + zs * zs)
        with np.errstate(invalid="ignore", divide="ignore"):
            radial = np.where(r > 0, diagnostics_mod._bump_prime(r) / r, 0.0)
        a_ref = np.zeros((3,) + grid16.shape)
        a_ref[0] = radial * ys
        a_ref[1] = -radial * xs
        a_ref *= spec.amplitude * p.light_speed / p.charge
        rb = np.sqrt(xs * xs + (ys + spec.psi_offset) ** 2 + zs * zs)
        env_ref = diagnostics_mod._bump(rb / spec.psi_radius) * R ** (-1.5)
        env_ref *= np.sqrt(p.lam) / np.sqrt(float(np.sum(env_ref ** 2)) * grid16.cell)
        env, a_data = diagnostics_mod._trial_raw(grid16, p, spec)
        assert np.array_equal(env, env_ref)
        assert np.array_equal(a_data, a_ref)

    def test_carrier_matches_meshgrid_form(self, grid16):
        p = params("S", v=(0.1, -0.05, 0.08))
        x, y, z = grid16.coords()
        v = p.v_arr
        ref = np.exp(1j * (p.mass / p.hbar) * (v[0] * x + v[1] * y + v[2] * z))
        assert np.array_equal(diagnostics_mod._carrier(grid16, p), ref)

    def test_periodic_dist_matches_meshgrid_form(self, grid16):
        center = (3.0, 37.5, 21.2)
        L = grid16.box_l
        d = []
        for c, w in zip(center, grid16.coords()):
            raw = np.abs(w - c) % L
            d.append(np.minimum(raw, L - raw))
        ref = np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        assert np.array_equal(diagnostics_mod._periodic_dist(grid16, center), ref)


class TestTrialFields:
    def test_contract(self, grid32):
        p = params("S", v=0.1)
        spec = TrialSpec.fitted(grid32, amplitude=0.8)
        psi, A = trial_fields(grid32, p, spec)
        assert l2_norm_sq(grid32, psi.data) == pytest.approx(p.lam)
        assert np.max(np.abs(psi.data[1])) == 0.0
        div = spectral.divergence(grid32, A.data)
        assert np.max(np.abs(div)) < 1e-12 * np.max(np.abs(A.data))
        assert np.max(np.abs(np.mean(A.data, axis=(1, 2, 3)))) < 1e-14

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_energy_law_matches_grid_energy(self, model):
        """The analytic term-by-term law agrees with the measured energy
        up to quadrature residue, and tightens with resolution."""
        p = params(model, v=0.2)
        defects = []
        for n in (32, 48):
            g = Grid(n, 40.0)
            spec = TrialSpec.fitted(g, amplitude=0.8)
            terms = trial_energy_terms(g, p, spec)
            psi, A = trial_fields(g, p, spec)
            e = energy_functional(g, p, psi, A).total
            defects.append(abs(terms.total - e) / max(abs(e), 1e-30))
        assert defects[0] < 5e-2
        assert defects[1] < defects[0]

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_energy_law_reads_the_base_integrals(self, grid16, model):
        """At the fitted dilation each term of the law is the closed form
        of the integrals ``base_quadratures`` measures, the ones R_a reads."""
        p = params(model, v=(0.13, -0.07, 0.05))
        spec = TrialSpec.fitted(grid16, amplitude=0.8)
        t = trial_energy_terms(grid16, p, spec)
        b = base_quadratures(grid16, p)
        a, R, c, v = spec.amplitude, spec.dilation, p.light_speed, p.speed
        law = {
            "envelope_kinetic": p.hbar ** 2 * b.n2 / (2.0 * p.mass * R ** 2),
            "diamagnetic": a ** 2 * b.m2 / (2.0 * p.mass),
            "coupling": -a * v * b.overlap,
            "rest": -0.5 * p.mass * v ** 2 * p.lam,
            "field": a ** 2 * R * (c ** 2 * b.g2 - v ** 2 * b.g1v2) / (8.0 * np.pi * p.charge ** 2),
            "spin": -(p.hbar * a / (2.0 * p.mass)) * b.spin / R if model == "P" else 0.0,
        }
        for name, value in law.items():
            assert rel(getattr(t, name), value) < 1e-14, name
        assert rel(t.total, sum(law.values())) < 1e-14

    def test_spin_term_only_in_second_model(self, grid32):
        spec = TrialSpec.fitted(grid32, amplitude=0.8)
        t_s = trial_energy_terms(grid32, params("S", v=0.1), spec)
        t_p = trial_energy_terms(grid32, params("P", v=0.1), spec)
        assert t_s.spin == 0.0
        assert t_p.spin != 0.0
        # all other terms agree
        assert rel(t_s.envelope_kinetic, t_p.envelope_kinetic) < 1e-14
        assert rel(t_s.field, t_p.field) < 1e-14
        assert rel(t_s.coupling, t_p.coupling) < 1e-14


class TestShapeStudy:
    def test_default_shape_beats_neighbours(self, grid16):
        """The default (offset, radius) pair achieves the lowest witness
        margin among admissible variants; this is the study behind the
        default documented on TrialSpec."""
        p = params("S", v=0.1)
        variants = [
            (0.50, 0.50),
            (0.55, 0.40),
            (0.45, 0.45),
            (0.52, 0.48),
            (0.50, 0.45),
            (0.60, 0.35),
            (0.35, 0.35),
        ]
        margins = {}
        for off, rad in variants:
            spec = TrialSpec.fitted(
                grid16, amplitude=1.0, psi_offset=off, psi_radius=rad
            )
            margins[(off, rad)] = negativity_witness(
                grid16, p, spec=spec, num=12
            ).best_margin
        default = (TrialSpec.fitted(grid16, 1.0).psi_offset,
                   TrialSpec.fitted(grid16, 1.0).psi_radius)
        assert default in margins
        assert margins[default] == min(margins.values())


class TestEffectiveDilation:
    def test_formula(self, grid16):
        p = params("S", v=0.1)
        base = base_quadratures(grid16, p)
        a = 0.3
        w = p.light_speed ** 2 * base.g2 - p.speed ** 2 * base.g1v2
        num = (2.0 * p.hbar * abs(p.charge) / a) * np.sqrt(np.pi / p.mass) * np.sqrt(
            base.n2
        )
        assert rel(effective_dilation(p, base, a), num ** (2 / 3) * w ** (-1 / 3)) < 1e-13
        # larger amplitude balances at a smaller dilation
        assert effective_dilation(p, base, 0.6) < effective_dilation(p, base, 0.3)

    def test_gate_on_nonpositive_form(self):
        p = params("S", v=0.9)
        base = BaseQuadratures(n2=1.0, g2=1.0, g1v2=2.0, m2=1.0, overlap=1.0, spin=0.0)
        with pytest.raises(DomainGateError):
            effective_dilation(p, base, 0.3)


class TestWitness:
    def test_honest_report_on_small_box(self, grid16):
        """This box cannot hold the balancing dilation at any amplitude
        whose coupling gain beats the threshold, and the report says so
        rather than fabricating a hit."""
        p = params("S", v=0.1)
        w = negativity_witness(grid16, p, num=16)
        assert not w.found
        assert w.amplitude is None and w.energy is None
        assert w.threshold == pytest.approx(-0.5 * p.mass * p.speed ** 2 * p.lam)
        assert w.best_margin == pytest.approx(min(r.margin for r in w.rows))
        assert w.best_margin > 0.0
        # the analytic slope at a = 0 still certifies the construction
        assert w.slope_at_zero < 0.0
        assert "no witness" in w.message and "enlarge the box" in w.message
        amps = [r.amplitude for r in w.rows]
        assert amps == sorted(amps)
        dils = [r.dilation for r in w.rows]
        assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(dils, dils[1:]))

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_scan_starts_where_the_cap_balances(self, grid16, model):
        """The scan reads its amplitude range from ``effective_dilation``:
        its first amplitude is the one whose balancing dilation is the
        largest that fits the box."""
        p = params(model, v=0.2)
        w = negativity_witness(grid16, p, num=4)
        base = base_quadratures(grid16, p)
        r_cap = TrialSpec.fitted(grid16, 1.0).dilation
        assert rel(effective_dilation(p, base, w.rows[0].amplitude), r_cap) < 1e-14
        assert rel(w.rows[0].dilation, r_cap) < 1e-14

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_rows_are_the_energy_of_the_trial_fields(self, grid16, model):
        """Each row reads its energy from the transforms the sampler holds;
        it is the total of ``energy_functional(*trial_fields(...))`` of the
        same state within 4 eps."""
        p = params(model, v=0.2)
        w = negativity_witness(grid16, p, num=6)
        spec = TrialSpec.fitted(grid16, amplitude=1.0)
        for row in w.rows:
            spec_a = dataclasses.replace(spec, amplitude=row.amplitude, dilation=row.dilation)
            e = energy_functional(grid16, p, *trial_fields(grid16, p, spec_a)).total
            assert rel(row.energy, e) <= 4 * np.finfo(float).eps, (row, e)

    @pytest.mark.parametrize("num", [0, -3])
    def test_empty_scan_refused(self, grid16, num):
        """A scan of no points has no best row to report."""
        with pytest.raises(InputError, match="at least one point"):
            negativity_witness(grid16, params("S", v=0.1), num=num)


class TestConcentration:
    def test_two_bump_profile(self, grid32):
        p = params("S", v=0.1)
        psi = two_bump_state(grid32, p)
        radii = [1.0, 2.5, 5.0, 8.0, 12.0, 18.0, 35.0]
        C = concentration_function(psi, radii)
        assert np.all(np.diff(C) >= -1e-12)
        # a small ball sees a fraction of one bump
        assert C[0] < 0.2
        # the plateau holds exactly half the mass: one bump of two
        assert C[2] == pytest.approx(0.5, abs=1e-3)
        assert C[3] == pytest.approx(0.5, abs=1e-3)
        # and every ball reaching both bumps sees everything
        assert C[-1] == pytest.approx(p.lam, rel=1e-12)

    def test_centering_finds_bump(self, grid32):
        p = params("S", v=0.1)
        data = np.zeros((2,) + grid32.shape, dtype=complex)
        data[0] = gaussian_bump(grid32, (10.0, 20.0, 20.0), 1.5)
        psi = normalize_to_lambda(SpinorField(grid32, data), p.lam)
        assert np.allclose(centering(psi, 5.0), [10.0, 20.0, 20.0])

    def test_centering_wraps_over_boundary(self, grid32):
        p = params("S", v=0.1)
        data = np.zeros((2,) + grid32.shape, dtype=complex)
        data[0] = gaussian_bump(grid32, (38.75, 1.25, 0.0), 1.5)
        psi = normalize_to_lambda(SpinorField(grid32, data), p.lam)
        assert np.allclose(centering(psi, 5.0), [38.75, 1.25, 0.0])


class TestSplitting:
    def test_spec_validation(self):
        with pytest.raises(InputError):
            SplitSpec(center=(0, 0, 0), radius=0.0)
        with pytest.raises(InputError):
            SplitSpec(center=(0, 0, 0), radius=1.0, doublings=1)

    def test_box_gate(self, grid32):
        p = params("S", v=0.1)
        psi = two_bump_state(grid32, p)
        A = np.zeros((3,) + grid32.shape)
        with pytest.raises(DomainGateError):
            split_fields(grid32, p, psi.data, A, SplitSpec(center=(10, 20, 20), radius=6.0, doublings=3))

    def test_two_bump_split(self, grid32):
        """Far-separated bumps split with sub-permille energy defect."""
        p = params("S", v=0.1)
        psi = two_bump_state(grid32, p)
        A, _ = solve_vector_potential(grid32, p, psi.data, tol=1e-12)
        spl = SplitSpec(center=(10.0, 20.0, 20.0), radius=4.0, doublings=2)
        rep = split_energy_check(grid32, p, psi.data, A.data, spl)
        assert rep.rel_defect < 1e-3
        assert abs(rep.mass_defect) < 1e-4
        assert rep.mass_in == pytest.approx(0.5, abs=1e-3)
        assert rep.mass_out == pytest.approx(0.5, abs=1e-3)
        pieces = split_fields(grid32, p, psi.data, A.data, spl)
        for part in (pieces.A_in.data, pieces.A_out.data):
            div = spectral.divergence(grid32, part)
            scale = max(np.max(np.abs(part)), 1e-30)
            assert np.max(np.abs(div)) < 1e-12 * scale
        assert pieces.gauge_level == 1

    def test_auto_gauge_level_in_documented_range(self, grid32):
        p = params("S", v=0.1)
        psi = two_bump_state(grid32, p)
        A, _ = solve_vector_potential(grid32, p, psi.data, tol=1e-10)
        rep = split_energy_check(
            grid32, p, psi.data, A.data,
            SplitSpec(center=(10.0, 20.0, 20.0), radius=1.2, doublings=4),
        )
        assert rep.gauge_level == 2  # the only interior level for 4 doublings


class TestCoulomb:
    def test_uniform_density_has_no_self_interaction(self, grid16):
        data = np.full((2,) + grid16.shape, 0.5 + 0.0j)
        assert abs(coulomb_double_integral(grid16, data)) < 1e-12

    def test_matches_direct_double_sum(self, grid16, rng):
        """The spectral evaluation equals the O(n^6) real-space double sum
        against the explicitly summed periodic kernel."""
        data = rng.standard_normal((2,) + grid16.shape) + 1j * rng.standard_normal(
            (2,) + grid16.shape
        )
        I_pkg = coulomb_double_integral(grid16, data)

        n, L = grid16.n, grid16.box_l
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
        ax = np.arange(n) * (L / n)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        G = np.zeros((n, n, n))
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    k2 = k1[i] ** 2 + k1[j] ** 2 + k1[l] ** 2
                    if k2 == 0.0:
                        continue
                    G += np.cos(k1[i] * X + k1[j] * Y + k1[l] * Z) / k2
        G *= 4.0 * np.pi / L ** 3

        dens = np.sum(np.abs(data) ** 2, axis=0)
        cell = (L / n) ** 3
        I_direct = 0.0
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    I_direct += G[i, j, l] * np.sum(
                        dens * np.roll(dens, (-i, -j, -l), axis=(0, 1, 2))
                    )
        I_direct *= cell * cell
        assert rel(I_pkg, I_direct) < 1e-3  # observed: rounding level

    def test_gaussian_closed_form_with_lattice_correction(self):
        """For a narrow Gaussian the torus self-interaction is the free
        integral sqrt(2) pi^(5/2) s^5 corrected by the simple-cubic
        lattice constant xi M^2 / L and the background term
        2 pi M^2 s^2 / L^3."""
        g = Grid(48, 40.0)
        s, L = 3.0, g.box_l
        data = np.zeros((2,) + g.shape, dtype=complex)
        data[0] = np.sqrt(gaussian_bump(g, (20.0, 20.0, 20.0), s / np.sqrt(2.0)))
        I_pkg = coulomb_double_integral(g, data)
        M = np.pi ** 1.5 * s ** 3
        xi = -2.8372974794806  # point-lattice constant of the cubic torus
        I_expect = (
            np.sqrt(2.0) * np.pi ** 2.5 * s ** 5
            + xi * M * M / L
            + 2.0 * np.pi * M * M * s * s / L ** 3
        )
        assert rel(I_pkg, I_expect) < 1e-9

    @pytest.mark.parametrize("model", ["S", "P"])
    def test_lower_bound_holds_on_states(self, grid16, model):
        p = params(model, v=0.2)
        psi, A = plane_wave_state(grid16, p)
        repo = coulomb_lower_bound(grid16, p, psi, A)
        assert repo.holds and repo.slack >= 0.0
        psi2, _ = random_fields(grid16, p, seed=77)
        A2, _ = solve_vector_potential(grid16, p, psi2.data, tol=1e-10)
        rep2 = coulomb_lower_bound(grid16, p, psi2.data, A2.data)
        assert rep2.holds
        assert rep2.double_integral > 0.0
        assert rep2.bound < 0.0

    def test_total_can_be_supplied(self, grid16):
        p = params("S", v=0.2)
        psi, A = plane_wave_state(grid16, p)
        rep = coulomb_lower_bound(grid16, p, psi, A, total=123.0)
        assert rep.energy == 123.0


class TestMassSweep:
    @pytest.mark.parametrize("direction, speeds", [
        ((0.0, 0.0, 0.0), (0.1,)),
        ((np.nan, 0.0, 0.0), (0.1,)),
        ((1.0, np.inf, 0.0), (0.1,)),
        ((1.0, 0.0), (0.1,)),
        ((1.0, 0.0, 0.0), (0.1, np.inf)),
        ((1.0, 0.0, 0.0), (np.nan,)),
    ], ids=["zero", "nan", "inf", "two-vector", "inf-speed", "nan-speed"])
    def test_bad_input_refused(self, grid16, direction, speeds, monkeypatch):
        """A direction that cannot be normalized, or a speed that is not
        finite, is an input error raised before any solve."""
        monkeypatch.setattr(diagnostics_mod, "minimize", None)
        with pytest.raises(InputError, match="direction|speeds"):
            mass_sweep(grid16, params("S", v=0.1), speeds, direction=direction)

    @pytest.mark.filterwarnings("ignore:v = 0")
    @pytest.mark.parametrize("speeds", [(), (0.1,), (0.1, 0.1), (0.1, -0.1), (0.0, 0.1)],
                             ids=["none", "one", "repeat", "opposite", "zero"])
    def test_undetermined_fit_is_nan(self, grid16, speeds):
        """Fewer than two nonzero speeds of distinct magnitude leave the
        fit's design of rank < 2, where any alpha fits exactly: alpha,
        beta and the residual are NaN, and the points are kept."""
        res = mass_sweep(grid16, params("S", v=0.1), speeds, config=MinimizeConfig(init="plane"))
        assert len(res.points) == len(speeds)
        assert np.isnan(res.alpha) and np.isnan(res.beta) and np.isnan(res.fit_residual)

    def test_fit_is_least_squares_on_its_points(self, grid16):
        """alpha and beta are the least-squares fit of alpha v^2 + beta |v|^3
        to the sweep's own travelling energies."""
        res = mass_sweep(grid16, params("S", v=0.1), (0.05, 0.1, 0.15, 0.2),
                         config=MinimizeConfig(init="plane"))
        v = np.array([pt.speed for pt in res.points])
        e = np.array([pt.energy_trav for pt in res.points])
        coef = np.linalg.lstsq(np.stack([v ** 2, np.abs(v) ** 3], axis=1), e, rcond=None)[0]
        assert rel(res.alpha, coef[0]) <= 1e-12, (res.alpha, coef[0])
        assert rel(res.beta, coef[1]) <= 1e-12, (res.beta, coef[1])

    def test_staircase_points(self, grid16):
        """Speeds rounding to the same lattice carrier share one
        travelling energy; the sweep records everything it measured."""
        p = params("S", v=0.1)
        res = mass_sweep(
            grid16, p, (0.1, 0.15), config=MinimizeConfig(init="plane")
        )
        assert res.alpha_target == pytest.approx(0.5 * p.mass * p.lam)
        assert len(res.points) == 2
        for pt in res.points:
            assert pt.converged
            assert pt.residual_psi < 1e-4 and pt.residual_a < 1e-4
            assert pt.excess == pytest.approx(
                pt.energy_var + 0.5 * p.mass * pt.speed ** 2 * p.lam
            )
        dk = 2.0 * np.pi / grid16.box_l
        e_star = p.lam * p.hbar ** 2 * dk ** 2 / (2.0 * p.mass)
        assert rel(res.points[0].energy_trav, e_star) < 1e-10
        assert rel(res.points[1].energy_trav, e_star) < 1e-10
        assert np.isfinite(res.alpha) and np.isfinite(res.beta)
