"""Spectral core: transforms, derivatives, projections, dealiasing."""

import numpy as np
import pytest

import scipy.fft

from mpwave import Grid
from mpwave import spectral

from conftest import rel


def laplacian(grid, f):
    """Spectral Laplacian of a real scalar field, the -|k|^2 multiplier."""
    return np.real(grid.ifft(-grid.k2 * grid.fft(f)))


def lattice_mode(grid, m):
    """exp(i k_m . x) for integer mode triple m."""
    x, y, z = grid.coords()
    dk = 2.0 * np.pi / grid.box_l
    return np.exp(1j * dk * (m[0] * x + m[1] * y + m[2] * z))


def product(grid, a, f):
    """The 2/3-rule product T(T(a) T(f)) the kernels inline."""
    T = lambda g: spectral.dealias(grid, g)
    return T(T(a) * T(f))


class TestGridBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(15, 40.0)
        with pytest.raises(ValueError):
            Grid(6, 40.0)
        with pytest.raises(ValueError):
            Grid(16, 0.0)
        with pytest.raises(ValueError):
            Grid(16, -1.0)

    @pytest.mark.parametrize("box", [np.inf, np.nan])
    def test_box_must_be_finite(self, box):
        """An infinite box would pass a positivity test and give NaN
        spacings and fields; it is refused with the other bad boxes."""
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(16, box)

    def test_geometry_tables(self, grid16):
        g = grid16
        assert g.spacing == pytest.approx(2.5)
        assert g.cell == pytest.approx(2.5**3)
        assert g.shape == (16, 16, 16)
        assert g.mode_cut == 5
        x = g.axis_coords()
        assert x[0] == 0.0 and x[-1] == pytest.approx(40.0 - 2.5)
        # wavenumbers: fft ordering, spacing 2 pi / L
        kx, _, _ = g.k
        assert kx[1, 0, 0] == pytest.approx(2.0 * np.pi / 40.0)
        assert kx[8, 0, 0] == pytest.approx(-16.0 * np.pi / 40.0)

    def test_equal_grids_share_read_only_tables(self):
        """The spectral tables are built once per (n, box_l) and shared by
        equal grids; a write into one raises, so no grid can change the
        tables of another."""
        a, b, other = Grid(16, 40.0), Grid(16, 40.0), Grid(16, 30.0)
        assert a.k is b.k and a.dealias_mask is b.dealias_mask
        assert other.k is not a.k
        assert not np.array_equal(other.k, a.k)
        for name in ("k", "k2", "inv_k2", "dealias_mask", "nyquist_mask"):
            table = getattr(a, name)
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1

    def test_open_coords_broadcast_to_coords(self, grid16):
        x, y, z = grid16.open_coords()
        assert (x.shape, y.shape, z.shape) == ((16, 1, 1), (1, 16, 1), (1, 1, 16))
        for full, part in zip(grid16.coords(), (x, y, z)):
            assert np.array_equal(full, np.broadcast_to(part, grid16.shape))

    def test_parseval(self, grid16, rng):
        f = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
        direct = float(np.sum(np.abs(f) ** 2)) * grid16.cell
        fh = grid16.fft(f)
        viak = float(np.sum(np.abs(fh) ** 2)) * grid16.cell / grid16.n**3
        assert rel(direct, viak) < 1e-13

    @pytest.mark.parametrize("raw", [None, "", "abc", "1.5", "0", "-3"])
    def test_workers_default_to_one(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("MPW_THREADS", raising=False)
        else:
            monkeypatch.setenv("MPW_THREADS", raw)
        assert Grid(8, 1.0).workers == 1

    def test_workers_read_once_per_grid(self, monkeypatch):
        """A grid built under MPW_THREADS=2 passes 2 workers to its
        transforms, also after the variable changes."""
        monkeypatch.setenv("MPW_THREADS", "2")
        g = Grid(8, 1.0)
        monkeypatch.setenv("MPW_THREADS", "1")
        seen = []
        for name in ("fftn", "ifftn"):
            real = getattr(scipy.fft, name)

            def spy(*args, _real=real, **kw):
                seen.append(kw["workers"])
                return _real(*args, **kw)

            monkeypatch.setattr(scipy.fft, name, spy)
        g.ifft(g.fft(np.ones((2,) + g.shape)))
        assert seen == [2, 2]
        assert Grid(8, 1.0).workers == 1

    def test_integrate_plane_wave(self, grid16):
        f = lattice_mode(grid16, (3, -2, 1))
        # nonzero lattice mode integrates to exactly zero on its period
        assert abs(grid16.integrate(f)) < 1e-10
        assert grid16.integrate(np.ones(grid16.shape)) == pytest.approx(40.0**3)


class TestDerivatives:
    def test_partial_deriv_exact_on_modes(self, grid16):
        dk = 2.0 * np.pi / grid16.box_l
        for m, axis in (((3, 0, 0), 0), ((1, -4, 2), 1), ((0, 5, -5), 2)):
            f = lattice_mode(grid16, m)
            df = spectral.gradient(grid16, f)[axis]
            expect = 1j * dk * m[axis] * f
            assert np.max(np.abs(df - expect)) < 1e-12

    def test_gradient_and_directional(self, grid16):
        f = lattice_mode(grid16, (2, -1, 3)).real
        g = spectral.gradient(grid16, f)
        assert g.shape == (3,) + grid16.shape
        v = np.array([0.3, -1.2, 0.5])
        dv = spectral.directional_derivative(grid16, f, v)
        manual = g[0] * v[0] + g[1] * v[1] + g[2] * v[2]
        assert np.max(np.abs(dv - manual)) < 1e-12

    def test_vector_calculus_identities(self, grid16, rng):
        # band-limit so products/curls stay clean of Nyquist artifacts
        u = spectral.dealias(grid16, rng.standard_normal(grid16.shape))
        F = spectral.dealias(grid16, rng.standard_normal((3,) + grid16.shape))
        scale = np.max(np.abs(F)) / grid16.spacing
        assert np.max(np.abs(spectral.curl(grid16, spectral.gradient(grid16, u)))) < 1e-12 * scale
        assert np.max(np.abs(spectral.divergence(grid16, spectral.curl(grid16, F)))) < 1e-12 * scale

    def test_laplacian_is_div_grad(self, grid16, rng):
        # real-part truncation makes odd (ik) multipliers lossy on the
        # Nyquist planes, so the identity is claimed on band-limited input
        u = spectral.dealias(grid16, rng.standard_normal(grid16.shape))
        lap = laplacian(grid16, u)
        divgrad = spectral.divergence(grid16, spectral.gradient(grid16, u))
        assert np.max(np.abs(lap - divgrad)) < 1e-10 * max(np.max(np.abs(lap)), 1.0)


class TestHelmholtz:
    def test_output_divergence_free(self, grid16, rng):
        F = rng.standard_normal((3,) + grid16.shape)
        P = spectral.helmholtz_project(grid16, F)
        assert P.dtype.kind == "f"
        Ph = grid16.fft(P)
        kx, ky, kz = grid16.k
        kdot = kx * Ph[0] + ky * Ph[1] + kz * Ph[2]
        assert np.max(np.abs(kdot)) < 1e-10 * np.max(np.abs(Ph))

    def test_idempotent(self, grid16, rng):
        F = rng.standard_normal((3,) + grid16.shape)
        P1 = spectral.helmholtz_project(grid16, F)
        P2 = spectral.helmholtz_project(grid16, P1)
        assert np.max(np.abs(P1 - P2)) < 1e-12 * max(np.max(np.abs(P1)), 1.0)

    def test_kills_gradients_keeps_curls(self, grid16, rng):
        u = spectral.dealias(grid16, rng.standard_normal(grid16.shape))
        gradu = spectral.gradient(grid16, u)
        assert np.max(np.abs(spectral.helmholtz_project(grid16, gradu))) < 1e-12 * max(
            np.max(np.abs(gradu)), 1.0
        )
        W = spectral.curl(grid16, spectral.dealias(grid16, rng.standard_normal((3,) + grid16.shape)))
        PW = spectral.helmholtz_project(grid16, W)
        assert np.max(np.abs(PW - W)) < 1e-12 * np.max(np.abs(W))

    def test_mean_passes_through(self, grid16):
        F = np.ones((3,) + grid16.shape) * np.array([1.0, -2.0, 0.5])[:, None, None, None]
        P = spectral.helmholtz_project(grid16, F)
        assert np.max(np.abs(P - F)) < 1e-13

    def test_nyquist_planes_dropped(self, grid16):
        # a pure Nyquist-plane field cannot be represented solenoidally as
        # a real field; the projection removes it entirely
        x, _, _ = grid16.coords()
        F = np.zeros((3,) + grid16.shape)
        F[1] = np.cos(np.pi * x / grid16.spacing)
        P = spectral.helmholtz_project(grid16, F)
        assert np.max(np.abs(P)) < 1e-12


class TestPoisson:
    def test_exact_inverse_identity(self, grid16, rng):
        f = rng.standard_normal(grid16.shape)
        u = spectral.poisson_solve(grid16, f)
        assert abs(np.mean(u)) < 1e-12 * np.max(np.abs(u))
        back = -laplacian(grid16, u)
        assert np.max(np.abs(back - (f - np.mean(f)))) < 1e-10

    def test_gaussian_potential_oracle(self):
        # independent physics oracle: on the torus the zero-mean solution of
        # -lap u = f - mean(f) for a centered Gaussian f = exp(-r^2/s^2) is,
        # near the source, the free-space Newtonian potential plus the
        # uniform-background term fbar r^2 / 6 plus O((r/L)^4) lattice tides
        grid = Grid(32, 40.0)
        s = 2.5
        x, y, z = grid.coords()
        c = grid.center()
        r2 = (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2
        f = np.exp(-r2 / s**2)
        u = spectral.poisson_solve(grid, f)

        from scipy.special import erf

        M = np.pi**1.5 * s**3
        fbar = M / grid.box_l**3

        def oracle(r):
            return M * erf(r / s) / (4.0 * np.pi * r) + fbar * r**2 / 6.0

        i0 = grid.n // 2
        hits = []
        for dr in (1, 2, 3):  # offsets along the x axis: r = dr * spacing
            r = dr * grid.spacing
            hits.append((r, u[i0 + dr, i0, i0]))
        (r1, u1), (r2_, u2), (r3, u3) = hits
        got = u1 - u3
        want = oracle(r1) - oracle(r3)
        assert rel(got, want) < 1e-3
        got = u2 - u3
        want = oracle(r2_) - oracle(r3)
        assert rel(got, want) < 1e-3


class TestDealias:
    def test_band_logic(self, grid16):
        cut = grid16.mode_cut
        keep = lattice_mode(grid16, (cut, -cut, 0))
        kill = lattice_mode(grid16, (cut + 1, 0, 0))
        assert np.max(np.abs(spectral.dealias(grid16, keep) - keep)) < 1e-12
        assert np.max(np.abs(spectral.dealias(grid16, kill))) < 1e-12

    def test_real_input_real_output(self, grid16, rng):
        f = rng.standard_normal(grid16.shape)
        out = spectral.dealias(grid16, f)
        assert out.dtype.kind == "f"

    def test_real_output_owns_its_data(self, grid16, rng):
        """The band limit of a real field is an array of its own, not a
        ``.real`` view that would keep the complex transform alive, and
        holds the same values as that view."""
        f = rng.standard_normal((3,) + grid16.shape)
        out = spectral.dealias(grid16, f)
        assert out.base is None and out.flags.c_contiguous
        view = grid16.ifft(grid16.fft(f) * grid16.dealias_mask).real
        assert np.array_equal(out, view)

    def test_product_no_aliasing(self, grid16):
        # kept-band modes can never alias back into the kept band: the sum
        # of two cut modes wraps to |mode| > cut, which the mask removes
        cut = grid16.mode_cut
        a = lattice_mode(grid16, (cut, 0, 0))
        f = lattice_mode(grid16, (cut, 0, 0))
        prod = product(grid16, a, f)
        assert np.max(np.abs(prod)) < 1e-12

    def test_product_exact_in_band(self, grid16):
        a = lattice_mode(grid16, (2, -1, 0))
        f = lattice_mode(grid16, (1, 1, 3))
        prod = product(grid16, a, f)
        expect = lattice_mode(grid16, (3, 0, 3))
        assert np.max(np.abs(prod - expect)) < 1e-12

    def test_multiplication_operator_self_adjoint(self, grid16, rng):
        # <g, T(a T f)> = <T(a T g), f> for real a: the quadratic-form
        # property behind the exact energy identities
        a = rng.standard_normal(grid16.shape)
        f = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
        g = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
        left = np.sum(np.conj(g) * product(grid16, a, f))
        right = np.sum(np.conj(product(grid16, a, g)) * f)
        assert rel(left, right) < 1e-12


class TestZeroMean:
    def test_zero_mean(self, grid16, rng):
        F = rng.standard_normal((3,) + grid16.shape) + 0.7
        Z = spectral.zero_mean(grid16, F)
        assert np.max(np.abs(np.mean(Z, axis=(1, 2, 3)))) < 1e-14
        # non-mean content untouched
        assert np.max(np.abs((F - np.mean(F, axis=(1, 2, 3), keepdims=True)) - Z)) < 1e-13
