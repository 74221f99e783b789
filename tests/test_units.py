"""Exact unit covariance.

A change of units by powers of two is exact in floating point, so the
discrete problem maps to itself bit for bit: every quantity computed in
the new units is the old one times a power of two.  The suite otherwise
runs at hbar = m = c = Q = lambda = 1, where a dropped factor of hbar, m,
c or Q does not show; here it does.  No comparison has a tolerance.
"""

import dataclasses

import numpy as np
import pytest

from mpwave import Grid
from mpwave.diagnostics import TrialSpec, trial_fields
from mpwave.energy import energy_functional
from mpwave.fields import random_fields
from mpwave.minimize import (
    MinimizeConfig,
    el_residual,
    grad_psi,
    minimize,
    solve_vector_potential,
)
from mpwave.pauli import current

from conftest import params

#: unit families: the factors of the box length, hbar, m, c, Q and v, and
#: those they give psi (|psi|^2 L^3 and so lambda fixed), A, the energy E
#: and the multiplier theta.  U1 keeps c and v, U2 keeps m.
FAMILIES = {
    "U1": dict(box=4, hbar=16, mass=4, light_speed=1, charge=4, v=1,
               psi=1 / 8, A=1, E=4, theta=1 / 4),
    "U2": dict(box=4, hbar=16, mass=1, light_speed=4, charge=8, v=4,
               psi=1 / 8, A=2, E=16, theta=1),
}

N, BOX_L = 16, 40.0


def family(name):
    """The family's factors plus the ones they imply:
    G, the psi-gradient, from dE = 2 Re <G, dpsi> over the volume L^3;
    J, the current, from the coupling -(1/c) <J, A>;
    a_res, the A-side residual norm of the wave equation, (4 pi / c) J
    in the L^2 norm over L^3."""
    f = dict(FAMILIES[name])
    vol = f["box"] ** 3
    f["G"] = f["E"] / (f["psi"] * vol)
    f["J"] = f["light_speed"] * f["E"] / (f["A"] * vol)
    f["a_res"] = f["J"] / f["light_speed"] * f["box"] ** 1.5
    return f


def units(model, f):
    """(grid, params) at desk units and in the units of family ``f``."""
    p = params(model, v=0.1)
    q = dataclasses.replace(
        p,
        hbar=p.hbar * f["hbar"],
        mass=p.mass * f["mass"],
        light_speed=p.light_speed * f["light_speed"],
        charge=p.charge * f["charge"],
        v=tuple(c * f["v"] for c in p.v),
    )
    return (Grid(N, BOX_L), p), (Grid(N, BOX_L * f["box"]), q)


def same(scaled, base, factor):
    assert np.array_equal(scaled, np.asarray(base) * factor)


@pytest.fixture(params=["S", "P"])
def model(request):
    return request.param


@pytest.fixture(params=list(FAMILIES))
def fam(request):
    return family(request.param)


def state(model, f):
    """A random state at desk units and the same state in the units of ``f``."""
    (g, p), (h, q) = units(model, f)
    psi, A = random_fields(g, p, seed=3, a_amp=0.1)
    return (g, p, psi.data, A.data), (h, q, psi.data * f["psi"], A.data * f["A"])


def test_energy_terms(model, fam):
    base, scaled = state(model, fam)
    br, bs = energy_functional(*base), energy_functional(*scaled)
    for key, val in br.as_dict().items():
        same(getattr(bs, key), val, 1 if key == "mass_constraint" else fam["E"])


def test_gradient_and_current(model, fam):
    base, scaled = state(model, fam)
    same(grad_psi(*scaled), grad_psi(*base), fam["G"])
    same(current(*scaled), current(*base), fam["J"])


def test_residual(model, fam):
    base, scaled = state(model, fam)
    rb, rs = el_residual(*base), el_residual(*scaled)
    factors = dict(psi_raw=fam["E"], psi_scale=fam["E"], psi_rel=1,
                   a_raw=fam["a_res"], a_scale=fam["a_res"], a_rel=1,
                   current_defect=fam["J"] / fam["light_speed"], theta=fam["theta"])
    assert set(factors) == {f.name for f in dataclasses.fields(rb)}
    for key, factor in factors.items():
        same(getattr(rs, key), getattr(rb, key), factor)


def test_cold_a_solve(model, fam):
    (g, p, psi, _), (h, q, psi_q, _) = state(model, fam)
    A, n_ops = solve_vector_potential(g, p, psi)
    A_q, n_ops_q = solve_vector_potential(h, q, psi_q)
    assert n_ops_q == n_ops > 1
    same(A_q.data, A.data, fam["A"])


def same_run(rs, rb, fam):
    """The run ``rs`` in the units of ``fam`` is the desk-unit run ``rb``:
    every count is equal and every number scales."""
    for key in ("converged", "iterations", "message", "a_ops", "a_solves", "backtracks"):
        assert getattr(rs, key) == getattr(rb, key), key
    for key in ("energy", "energy_trace"):
        same(getattr(rs, key), getattr(rb, key), fam["E"])
    for key in ("theta", "omega"):
        same(getattr(rs, key), getattr(rb, key), fam["theta"])
    for key in ("residual_psi", "residual_a"):
        same(getattr(rs, key), getattr(rb, key), 1)
    same(rs.current_defect, rb.current_defect, fam["J"] / fam["light_speed"])
    for key, val in rb.breakdown.as_dict().items():
        same(getattr(rs.breakdown, key), val, 1 if key == "mass_constraint" else fam["E"])
    same(rs.psi.data, rb.psi.data, fam["psi"])
    same(rs.A.data, rb.A.data, fam["A"])


def test_whole_minimize_from_a_given_start(model, fam):
    """The trial pair of desk units, scaled, starts the same run."""
    (g, p), (h, q) = units(model, fam)
    psi0, A0 = trial_fields(g, p, TrialSpec.fitted(g, amplitude=0.5))
    cfg = MinimizeConfig(init="given")
    rb = minimize(g, p, cfg, psi0=psi0.data, A0=A0.data)
    rs = minimize(h, q, cfg, psi0=psi0.data * fam["psi"], A0=A0.data * fam["A"])
    assert rb.converged and rb.iterations > 1
    same_run(rs, rb, fam)


@pytest.mark.parametrize("start", ["trial", "plane"])
def test_whole_minimize_from_a_built_start(model, fam, start):
    """The trial and plane starts, built in each unit, start the same run."""
    (g, p), (h, q) = units(model, fam)
    cfg = MinimizeConfig(init=start)
    rb, rs = minimize(g, p, cfg), minimize(h, q, cfg)
    assert rb.converged
    same_run(rs, rb, fam)
