"""Acceptance suite: one test per shipped guarantee, at desk scale.

Everything runs on the default working box (n = 32, L = 40, units
hbar = m = c = Q = lambda = 1), apart from the second half of test 05.
Each test measures the advertised property and asserts it with the
advertised tolerance; a failure here means the property itself does not
hold at this scale, not that the code crashed.  Two guarantees are
continuum statements that a 40-unit lab-frame box cannot represent:

* the negativity witness (test 05): the balancing dilation R_a of the
  trial family grows like 1/v^2, is of order 1e4 to 1e5 at the speeds
  tested and does not fit into L = 40, so every trial state sampled
  there keeps a positive margin.  The L = 40 scan still runs and is
  compared with the minimizer; the strict inequality is measured as the
  sign of the closed-form trial law at (a, R_a), on boxes sized from
  R_a at two resolutions.  The law never samples the boost carrier,
  whose wavenumber m v / hbar lies far outside the dealias band of such
  a box, so no sampled state is evaluated there;
* the quadratic energy law (test 08): the admissible wavenumbers are
  quantized in steps of 2 pi / L, so the minimizer energy is a staircase
  in |v| rather than the continuum law alpha v^2 + beta |v|^3, and the
  fitted alpha has nothing to do with m lambda / 2 until the box is far
  larger.  This test fails honestly with the measured fit until a
  co-moving frame strips the carrier.

The module-level fixtures cache the minimizers; with the preconditioned
solver the whole suite runs in about 20 s on a 2-core VM.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from mpwave import cli, pauli
from mpwave.diagnostics import (
    SplitSpec,
    TrialSpec,
    base_quadratures,
    coulomb_double_integral,
    coulomb_lower_bound,
    effective_dilation,
    mass_sweep,
    negativity_witness,
    split_energy_check,
    trial_energy_terms,
)
from mpwave.energy import apriori_bounds, energy_functional
from mpwave.fields import random_fields
from mpwave.grid import Grid
from mpwave.io import read_state, write_state
from mpwave.minimize import MinimizeConfig, el_residual, grad_A, grad_psi, minimize

from conftest import params, rel, two_bump_state

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def grid():
    return Grid(32, 40.0)


@pytest.fixture(scope="module")
def pipeline_minimizers(grid):
    """Full-pipeline minimizers (localized trial start) at v = 0.1 and 0.2."""
    out = {}
    for v in (0.1, 0.2):
        p = params("S", v=v)
        out[v] = (p, minimize(grid, p, config=MinimizeConfig(init="trial", seed=0)))
    return out


@pytest.fixture(scope="module")
def ground_states(grid, pipeline_minimizers):
    """Best-found converged states over (model, speed, lambda) settings.

    The plane-wave start lands on the lattice ground state directly; the
    trial start reaches the same state after spreading out (verified for
    lambda in {1, 2} by taking the lower of the two runs).
    """
    states = {("S", v, 1.0): pr for v, pr in pipeline_minimizers.items()}
    plane = MinimizeConfig(init="plane", seed=0)
    for model, v, lam in [("S", 0.3, 1.0), ("S", 0.1, 0.5), ("S", 0.1, 2.0)]:
        p = params(model, v=v, lam=lam)
        states[(model, v, lam)] = (p, minimize(grid, p, config=plane))
    # strong coupling is where a localized competitor would show up first:
    # spend one full trial-start run on lambda = 2 and keep the lower state
    p2, rep2 = states[("S", 0.1, 2.0)]
    rep2b = minimize(grid, p2, config=MinimizeConfig(init="trial", seed=0))
    if rep2b.converged and rep2b.energy < rep2.energy:
        states[("S", 0.1, 2.0)] = (p2, rep2b)
    return states


def test_01_energy_form_equivalence(grid):
    """The direct and shifted-frame quadrature of the energy agree to
    1e-8 relative on 100 random constrained pairs, both models."""
    worst = 0.0
    for model in ("S", "P"):
        p = params(model, v=0.1)
        for seed in range(50):
            psi, A = random_fields(grid, p, seed=seed)
            br = energy_functional(grid, p, psi, A)
            worst = max(worst, rel(br.total, br.total_shifted))
    print(f"[01] form equivalence on 100 pairs: worst rel defect {worst:.3e}")
    assert worst < 1e-8


def test_02_spin_laplacian_identity(grid):
    """The spin-coupled Laplacian (sigma . D)^2 equals the scalar
    Laplacian plus the spin term -(hbar Q / c) sigma . B (Lichnerowicz)
    to 1e-8 relative on 50 random band-limited pairs.

    Band limitation (occupied modes <= half the dealias cut) keeps every
    operator product inside the band, which is where the identity is an
    exact statement about the discretization; broadband states would
    measure the truncation tail instead of the algebra.
    """
    p = params("P", v=0.1)
    ps = params("S", v=0.1)
    cap = grid.mode_cut // 2
    worst = 0.0
    for seed in range(50):
        psi, A = random_fields(grid, p, seed=seed, max_mode=cap)
        psi_a, a_a = psi.data, A.data
        lap = pauli.covariant_laplacian(grid, p, psi_a, a_a)
        split = pauli.covariant_laplacian(grid, ps, psi_a, a_a) + pauli.spin_term(
            grid, p, psi_a, a_a
        )
        num = float(np.max(np.abs(lap - split)))
        den = max(float(np.max(np.abs(lap))), 1e-300)
        worst = max(worst, num / den)
    print(f"[02] spin-Laplacian identity on 50 pairs: worst rel defect {worst:.3e}")
    assert worst < 1e-8


def test_03_gradients_match_finite_differences(grid):
    """grad_psi and grad_A match central finite differences of the energy
    along 20 random directions to 1e-6 relative."""
    h = 1e-3
    worst = 0.0
    for model in ("S", "P"):
        p = params(model, v=0.1)
        cap = grid.mode_cut // 2 if model == "P" else None
        psi, A = random_fields(grid, p, seed=1, max_mode=cap)
        psi_a, a_a = psi.data, A.data
        for seed in range(5):
            dpsi = random_fields(grid, p, seed=100 + seed, max_mode=cap)[0].data
            g = grad_psi(grid, p, psi_a, a_a)
            pred = 2.0 * float(np.real(np.sum(np.conj(g) * dpsi)) * grid.cell)
            ep = energy_functional(grid, p, psi_a + h * dpsi, a_a).total
            em = energy_functional(grid, p, psi_a - h * dpsi, a_a).total
            worst = max(worst, rel((ep - em) / (2.0 * h), pred))
        for seed in range(5):
            da = random_fields(grid, p, seed=200 + seed)[1].data
            g = grad_A(grid, p, psi_a, a_a)
            pred = float(np.sum(g * da) * grid.cell)
            ep = energy_functional(grid, p, psi_a, a_a + h * da).total
            em = energy_functional(grid, p, psi_a, a_a - h * da).total
            worst = max(worst, rel((ep - em) / (2.0 * h), pred))
    print(f"[03] gradient vs central differences, 20 directions: worst rel {worst:.3e}")
    assert worst < 1e-6


def test_04_euler_lagrange_exit(grid, pipeline_minimizers):
    """Full-pipeline minimizers at v = 0.1 and 0.2 converge with
    dimensionless stationarity residuals below 1e-4, and the reported
    multiplier matches the variational formula for theta."""
    lines = []
    for v, (p, rep) in pipeline_minimizers.items():
        assert rep.converged, rep.message
        res = el_residual(grid, p, rep.psi, rep.A)
        lines.append(f"v={v}: psi_rel={res.psi_rel:.3e} a_rel={res.a_rel:.3e} "
                     f"theta={rep.theta:.9g}")
        assert res.max_rel < 1e-4
        assert rel(rep.theta, res.theta) < 1e-6
        # with the vector potential relaxed away, theta reduces to -E/(hbar lam)
        assert rel(rep.theta, -rep.energy / (p.hbar * p.lam)) < 1e-6
    print("[04] stationarity at convergence: " + "; ".join(lines))


def test_05_negativity_witness(grid, ground_states):
    """The explicit trial family reaches energies strictly below
    -m v^2 lambda / 2 for v in {0.1, 0.2, 0.3}, and the minimizer is at
    or below every trial state on the working box.

    On L = 40 the scan finds no witness: the balancing dilation R_a
    grows like 1/v^2 and is capped at 0.4 L, so the rows keep a positive
    margin, and the minimizer must beat all of them.  On those rows the
    closed-form law ``trial_energy_terms`` must agree with
    ``energy_functional`` of the sampled states to 5e-2 of each row's
    margin, the law-to-grid tolerance of the diagnostics tests, so the
    law is tied to the functional where both can be evaluated.

    The strict inequality is the sign of that law at (a, R_a), not the
    energy of a sampled state: for each amplitude a the law is evaluated
    on boxes of side R_a / (0.5 - margin) at n = 16 and n = 32, with R_a
    from the base quadratures of the working box.  The best n = 32
    margin must be negative, negative at n = 16 as well, and larger in
    size than its change between the two resolutions.  The law never
    samples the boost carrier, so the dealias band of those boxes, far
    below m v / hbar, does not limit it.
    """
    amplitudes = np.geomspace(1e-9, 1e-5, 24)
    ref = TrialSpec.fitted(grid, amplitude=1.0)
    lines = []
    for v in (0.1, 0.2, 0.3):
        p = params("S", v=v)
        w = negativity_witness(grid, p, num=24)
        e_min = ground_states[("S", v, 1.0)][1].energy
        if w.found:
            assert e_min <= w.energy + 1e-12
        else:
            assert e_min < w.threshold + w.best_margin  # minimizer beats every trial
        law_gap = 0.0  # |law - sampled energy| / |margin|, worst row
        for r in w.rows:
            law = trial_energy_terms(grid, p, replace(ref, amplitude=r.amplitude, dilation=r.dilation))
            law_gap = max(law_gap, abs(law.total - r.energy) / abs(r.margin))

        base = base_quadratures(grid, p)
        dilations = [effective_dilation(p, base, float(a)) for a in amplitudes]
        margins = {16: [], 32: []}
        for a, r_a in zip(amplitudes, dilations):
            for n, row in margins.items():
                g_a = Grid(n, r_a / (0.5 - TrialSpec.margin))
                spec = TrialSpec.fitted(g_a, amplitude=float(a))
                row.append(trial_energy_terms(g_a, p, spec).total - w.threshold)
        best = int(np.argmin(margins[32]))
        m32, m16 = margins[32][best], margins[16][best]
        lines.append(
            f"v={v}: L=40 found={w.found} best_margin={w.best_margin:.4g} "
            f"threshold={w.threshold:.4g} slope0={w.slope_at_zero:.4g} "
            f"E_min={e_min:.6g} law_gap/margin={law_gap:.3g} | law at R_a: "
            f"best_margin={m32:.4g} (n=16: {m16:.4g}) at a={amplitudes[best]:.3g} "
            f"R_a={dilations[best]:.4g}, "
            f"{sum(m < 0.0 for m in margins[32])}/{len(amplitudes)} negative"
        )
        assert law_gap < 5e-2, "law and sampled energy disagree on L = 40: " + lines[-1]
        assert m32 < 0.0 and m16 < 0.0, "no trial state went below the threshold: " + lines[-1]
        assert abs(m32 - m16) < abs(m32), "margin within the resolution spread: " + lines[-1]
    print("[05] negativity witness: " + "; ".join(lines))


def test_06_apriori_bounds_at_minimizers(grid, ground_states):
    """The moving-frame a priori bounds hold at every converged minimizer."""
    checked = []
    for (model, v, lam), (p, rep) in ground_states.items():
        if not rep.converged:
            continue
        br = energy_functional(grid, p, rep.psi, rep.A)
        bounds = apriori_bounds(grid, p, rep.psi, rep.A, total=br.total)
        checked.append(f"{model} v={v} lam={lam}: all_hold={bounds.all_hold}")
        assert bounds.all_hold, checked[-1]
        assert bounds.excess >= -1e-12
    assert checked, "no converged minimizers to check"
    print(f"[06] a priori bounds at {len(checked)} minimizers: " + "; ".join(checked))


def test_07_coulomb_bound_and_brute_force(grid, ground_states):
    """The repulsion lower bound holds for every tested pair, and the
    convolution-based double integral matches an O(n^6) brute-force
    lattice sum at n = 16 to 1e-3 relative."""
    tested = 0
    for model in ("S", "P"):
        p = params(model, v=0.1)
        for seed in range(5):
            psi, A = random_fields(grid, p, seed=seed)
            assert coulomb_lower_bound(grid, p, psi, A).holds
            tested += 1
    for (model, v, lam), (p, rep) in ground_states.items():
        assert coulomb_lower_bound(grid, p, rep.psi, rep.A).holds
        tested += 1

    # brute force: explicit mode-sum kernel followed by a real-space
    # double sum over all pairs of cells (shift-correlation form)
    g16 = Grid(16, 40.0)
    p = params("S", v=0.1)
    psi, _ = random_fields(g16, p, seed=3)
    dens = np.sum(np.abs(psi.data) ** 2, axis=0)
    n, L = g16.n, g16.box_l
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
    x1 = np.arange(n) * (L / n)
    kernel = np.zeros((n, n, n))
    for a in k1:
        for b in k1:
            for c in k1:
                k2 = a * a + b * b + c * c
                if k2 == 0.0:
                    continue
                kernel += np.cos(
                    a * x1[:, None, None] + b * x1[None, :, None] + c * x1[None, None, :]
                ) / k2
    kernel *= 4.0 * np.pi / L ** 3
    direct = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                direct += kernel[i, j, k] * np.sum(
                    dens * np.roll(dens, shift=(i, j, k), axis=(0, 1, 2))
                )
    direct *= g16.cell ** 2
    conv = coulomb_double_integral(g16, psi)
    print(f"[07] bound held on {tested} pairs; brute force rel defect {rel(conv, direct):.3e}")
    assert rel(conv, direct) < 1e-3


def test_08_effective_mass_law(grid):
    """A five-point sweep over |v| in [0.05, 0.25] should fit
    E_trav = alpha v^2 + beta |v|^3 with alpha within 15% of m lambda / 2
    and |E_trav - m v^2 lambda / 2| / |v|^3 non-increasing to a plateau.
    On this box the admissible wavenumbers step by 2 pi / L = 0.157, so
    E_trav(|v|) is a staircase and the continuum law cannot emerge; the
    sweep runs faithfully and this test fails with the measured fit.
    """
    p = params("S", v=0.1)
    res = mass_sweep(
        grid, p, np.linspace(0.05, 0.25, 5), config=MinimizeConfig(init="plane", seed=0)
    )
    assert all(pt.converged for pt in res.points)
    assert all(max(pt.residual_psi, pt.residual_a) < 1e-4 for pt in res.points)
    ratios = [
        abs(pt.energy_trav - 0.5 * p.mass * pt.speed ** 2 * p.lam) / pt.speed ** 3
        for pt in res.points
    ]
    alpha, target = res.alpha, res.alpha_target
    print(
        f"[08] sweep fit: alpha={alpha:.6g} (target {target}), "
        f"beta={res.beta:.6g}, ratios=" + ",".join(f"{r:.4g}" for r in ratios)
    )
    assert abs(alpha - target) <= 0.15 * abs(target), (
        f"fitted alpha {alpha:.6g} vs target {target} "
        f"(staircase spectrum; ratios {[round(r, 4) for r in ratios]})"
    )
    slack = 1e-9 * max(ratios)
    assert all(b <= a + slack for a, b in zip(ratios, ratios[1:])), (
        f"ratio sequence not non-increasing: {[round(r, 4) for r in ratios]}"
    )


def test_09_splitting_defect(grid):
    """For a two-bump state with bump separation >= L/3, cutting the state
    into inner and outer pieces changes the energy by at most 1e-3 |E|."""
    from mpwave.minimize import solve_vector_potential

    p = params("S", v=0.1)
    psi = two_bump_state(grid, p)
    A, _ = solve_vector_potential(grid, p, psi, tol=1e-12)
    centers = ((10.0, 20.0, 20.0), (30.0, 20.0, 20.0))
    separation = min(
        abs(centers[1][0] - centers[0][0]), grid.box_l - abs(centers[1][0] - centers[0][0])
    )
    assert separation >= grid.box_l / 3.0
    report = split_energy_check(
        grid, p, psi, A, SplitSpec(center=centers[0], radius=4.0, doublings=2)
    )
    print(
        f"[09] splitting: E={report.energy:.6g} defect={report.defect:.3e} "
        f"rel={report.rel_defect:.3e} masses={report.mass_in:.4f}/{report.mass_out:.4f}"
    )
    assert report.rel_defect <= 1e-3
    assert abs(report.mass_defect) <= 1e-4 * report.mass


def test_10_mass_scaling_of_ground_energy(grid, ground_states):
    """The best-found ground energy I(lambda) is non-increasing over
    lambda in {0.5, 1, 2} and strictly subadditive within 1e-4 slack:
    I(2 nu) < 2 I(nu) + 1e-4."""
    e = {lam: ground_states[("S", 0.1, lam)][1].energy for lam in (0.5, 1.0, 2.0)}
    for lam in (0.5, 1.0, 2.0):
        assert ground_states[("S", 0.1, lam)][1].converged
    print(f"[10] I(0.5)={e[0.5]:.9g} I(1)={e[1.0]:.9g} I(2)={e[2.0]:.9g}")
    assert e[0.5] >= e[1.0] >= e[2.0]
    assert e[1.0] < 2.0 * e[0.5] + 1e-4
    assert e[2.0] < 2.0 * e[1.0] + 1e-4


def test_11_persistence(grid, pipeline_minimizers, tmp_path):
    """States round-trip bit-exactly through the binary format, and a
    repeated run with the same configuration produces byte-identical
    artifacts (the timestamped run.log aside)."""
    p, rep = pipeline_minimizers[0.1]
    path = str(tmp_path / "state.mpwf")
    write_state(path, grid, p, rep.psi, rep.A)
    grid2, p2, psi2, A2 = read_state(path)
    assert p2 == p and grid2.n == grid.n and grid2.box_l == grid.box_l
    assert np.array_equal(psi2.data, rep.psi.data)
    assert np.array_equal(A2.data, rep.A.data)

    cfg = tmp_path / "run.cfg"
    cfg.write_text("minimize.init = plane\nseed = 1\n")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = cli.main(["solve", "--config", str(cfg), "--grid", "16",
                       "--out", str(out), "--v", "0.1,0,0"])
        assert rc == 0
        outs.append(out)
    for name in ("state.mpwf", "report.txt", "trace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    print("[11] persistence: bit-exact round trip; reruns byte-identical")
