"""Transform budget of the evaluation kernels.

FFTs are the cost unit of every kernel, so the per-call counts are pinned
here.  A call of ``Grid.fft`` or ``Grid.ifft`` on a (c, n, n, n) stack
counts c scalar (n, n, n) transforms.
"""

import importlib

import numpy as np
import pytest

from mpwave import Grid, spectral
from mpwave.diagnostics import TrialSpec
from mpwave.energy import energy_functional
from mpwave.fields import random_fields
from mpwave.minimize import MinimizeConfig, el_residual, grad_psi, minimize, solve_vector_potential
from mpwave.pauli import current, kinetic_state

from conftest import params

minimize_mod = importlib.import_module("mpwave.minimize")
diagnostics_mod = importlib.import_module("mpwave.diagnostics")

#: scalar transforms per call, (model S, model P), at v = (0.1, 0, 0)
BUDGET = {
    # A: forward 3 + band limit 3; psi: forward 2 + band limit 2;
    # K psi_hat: one forward transform of a_low_a * T psi per direction
    "energy_functional": (16, 16),
    # psi_down = 0: A 6, the spin-up block forward 1 + band limit 1, and one
    # product transform per direction
    "energy_functional, spin-up": (11, 11),
    # one row of the witness scan: the trial A projected on its transform 3,
    # T A 3 inverse, the spin-up block 2 and its products 3
    "witness row": (11, 11),
    # the KineticState 16, K^dagger K 12, one inverse 2
    "grad_psi": (30, 30),
    # the solver's call, reading the KineticState of its energy evaluation
    "grad_psi from the record": (14, 14),
    # the KineticState 16, G from it 14, the current pairing: T K psi 6 / 2
    # inverse and the pair 3 forward; A_hat comes from the band limit of A
    "el_residual": (39, 35),
    # one Armijo trial energy: psi_hat, T psi and K psi_hat
    "trial energy": (10, 10),
    # the KineticState 16, the pairing 9 / 5, one inverse 3
    "current": (28, 24),
    # T a 3 inverse, its products with T psi 6 forward; the current of that
    # field part, contracted on its transform: 6 / 2 inverse, the pair 3
    "A-operator matvec": (18, 14),
    # one warm A-solve less its matvecs: psi_hat and T psi 4, the forcing
    # at A = 0 (no product transforms) 6 / 2 + 3, the warm start 3 forward,
    # the result 3 inverse
    "A-solve, fixed": (19, 15),
    # the solver's A-solve, reading psi_hat and T psi from the record
    "A-solve from the band, fixed": (15, 11),
    # the solver's report from the band of psi: A_hat and T A 6, K psi 6,
    # the residual's current 6 / 2 + 3 and gradient 14; the energy and
    # omega read the same record and A_hat
    "report": (35, 31),
}

#: scalar transforms per call at A = 0, which reads the field-free record:
#: no transform of A and none of a product
ZERO_FIELD_BUDGET = {
    # psi: forward 2 + band limit 2
    "energy_functional": (4, 4),
    # the spin-up block: forward 1 + band limit 1
    "energy_functional, spin-up": (2, 2),
    # psi 4, G 2 inverse, the current pairing 9 / 5; no A_hat
    "el_residual": (15, 11),
    # the solver's report from the band of psi: G 2, the current 9 / 5
    "report": (11, 7),
}

#: scalar transforms of the start psi of each init at n = 16: the samplers
#: draw psi alone, and the random one takes its two inverse transforms
START_BUDGET = {"trial": 0, "random": 2, "plane": 0}

#: scalar transforms of a whole trial-start solve at n = 16, v = 0.1: A is
#: solved at the start, after every fifth accepted step and at the polish,
#: each from A = 0 with no operator application.  Model S runs the spin-up
#: block of its spin-up start, so no transform of the zero psi_down is made
#: (776 / 1337 measured for S / P, S 1351 on the full spinor; the bounds
#: leave room above both, and the S one below the full spinor's count)
SOLVE_BUDGET = {"S": 1000, "P": 1900}

#: scalar transforms of a whole plane-start solve at n = 16, v = 0.1: psi is
#: banded once (2 / 4) and both A-solves and every record read that band;
#: both A-solves end on the rounding floor of their forcing (6 / 5 each), so
#: no A-operator matvec is made, every state is read from the field-free
#: record and the all-zero A itself is never transformed; the start's G
#: 1 / 2, the one direction 2 / 4 and the report 7 / 7 make up the rest.
#: Model S runs the spin-up block of the spin-up plane wave, P the spinor
PLANE_BUDGET = {"S": 24, "P": 27}


@pytest.fixture()
def count_ffts(monkeypatch):
    tally = [0]
    for name in ("fft", "ifft"):
        transform = getattr(Grid, name)

        def counted(self, f, overwrite=False, transform=transform):
            out = transform(self, f, overwrite)
            tally[0] += out.size // self.n ** 3
            return out

        monkeypatch.setattr(Grid, name, counted)

    def count(call):
        tally[0] = 0
        call()
        return tally[0]

    return count


@pytest.mark.parametrize("model", ["S", "P"])
def test_transforms_per_call(grid16, model, count_ffts):
    p = params(model, v=0.1)
    psi, A = random_fields(grid16, p, seed=3)
    psi, A = psi.data, A.data
    a_low = spectral.dealias(grid16, A)
    st = kinetic_state(grid16, p, psi, a_low)
    op = minimize_mod._a_operator(grid16, p, st.psi_low)
    a_hat = grid16.fft(A)
    psi_hat, psi_low = spectral.band(grid16, psi)
    up = psi.copy()
    up[1] = 0.0
    spec = TrialSpec.fitted(grid16, amplitude=1.0)
    carrier = diagnostics_mod._carrier(grid16, p)
    n_ops = []
    counts = {
        "energy_functional": count_ffts(lambda: energy_functional(grid16, p, psi, A)),
        "energy_functional, spin-up": count_ffts(lambda: energy_functional(grid16, p, up, A)),
        "witness row": count_ffts(
            lambda: diagnostics_mod._witness_energy(grid16, p, spec, carrier)
        ),
        "grad_psi": count_ffts(lambda: grad_psi(grid16, p, psi, A)),
        "grad_psi from the record": count_ffts(lambda: minimize_mod._gradient(grid16, p, st)),
        "el_residual": count_ffts(lambda: el_residual(grid16, p, psi, A)),
        "trial energy": count_ffts(
            lambda: minimize_mod._psi_energy(grid16, p, kinetic_state(grid16, p, psi, a_low))
        ),
        "current": count_ffts(lambda: current(grid16, p, psi, A)),
        "A-operator matvec": count_ffts(lambda: op(a_hat)),
        "A-solve, fixed": count_ffts(
            lambda: n_ops.append(solve_vector_potential(grid16, p, psi, A0=A)[1])
        ),
        "A-solve from the band, fixed": count_ffts(lambda: n_ops.append(
            minimize_mod._solve_vector_potential(grid16, p, psi_hat, psi_low, A, tol=1e-11)[1]
        )),
        "report": count_ffts(lambda: minimize_mod._report(grid16, p, psi, psi_hat, psi_low, A)),
    }
    counts["A-solve, fixed"] -= n_ops[0] * counts["A-operator matvec"]
    counts["A-solve from the band, fixed"] -= n_ops[1] * counts["A-operator matvec"]
    column = "SP".index(model)
    assert counts == {name: pair[column] for name, pair in BUDGET.items()}


@pytest.mark.parametrize("model", ["S", "P"])
def test_transforms_per_call_at_zero_field(grid16, model, count_ffts):
    p = params(model, v=0.1)
    psi, A = random_fields(grid16, p, seed=3)
    psi, zero = psi.data, np.zeros_like(A.data)
    psi_hat, psi_low = spectral.band(grid16, psi)
    up = psi.copy()
    up[1] = 0.0
    counts = {
        "energy_functional": count_ffts(lambda: energy_functional(grid16, p, psi, zero)),
        "energy_functional, spin-up": count_ffts(lambda: energy_functional(grid16, p, up, zero)),
        "el_residual": count_ffts(lambda: el_residual(grid16, p, psi, zero)),
        "report": count_ffts(
            lambda: minimize_mod._report(grid16, p, psi, psi_hat, psi_low, zero)
        ),
    }
    column = "SP".index(model)
    assert counts == {name: pair[column] for name, pair in ZERO_FIELD_BUDGET.items()}


@pytest.mark.parametrize("model", ["S", "P"])
def test_transforms_per_start(grid16, model, count_ffts):
    p = params(model, v=0.1)
    counts = {
        init: count_ffts(
            lambda: minimize_mod._initial_state(grid16, p, MinimizeConfig(init=init), None, None)
        )
        for init in START_BUDGET
    }
    assert counts == START_BUDGET


@pytest.mark.parametrize("model", ["S", "P"])
def test_transforms_per_plane_start_solve(grid16, model, count_ffts):
    p = params(model, v=0.1)
    reports = []
    used = count_ffts(lambda: reports.append(minimize(grid16, p, MinimizeConfig(init="plane"))))
    assert reports[0].converged
    assert used <= PLANE_BUDGET[model]


@pytest.mark.parametrize("model", ["S", "P"])
def test_transforms_per_solve(grid16, model, count_ffts):
    """A whole trial-start solve, A-solves and the polished residual
    included."""
    p = params(model, v=0.1)
    reports = []
    used = count_ffts(lambda: reports.append(minimize(grid16, p, MinimizeConfig(init="trial"))))
    assert reports[0].converged
    assert used <= SOLVE_BUDGET[model]
