"""Transform budget of the evaluation kernels.

FFTs are the cost unit of every kernel, so the per-call counts are pinned
here.  A call of ``Grid.fft`` or ``Grid.ifft`` on a (c, n, n, n) stack
counts c scalar (n, n, n) transforms.
"""

import importlib

import numpy as np
import pytest

from mpwave import Grid, spectral
from mpwave.energy import energy_functional
from mpwave.fields import random_fields
from mpwave.minimize import MinimizeConfig, el_residual, grad_psi, minimize, solve_vector_potential
from mpwave.pauli import current, kinetic_state

from conftest import params

minimize_mod = importlib.import_module("mpwave.minimize")

#: scalar transforms per call, (model S, model P), at v = (0.1, 0, 0)
BUDGET = {
    # A: forward 3 + band limit 3; psi: forward 2 + band limit 2;
    # K psi_hat: one forward transform of a_low_a * T psi per direction
    "energy_functional": (16, 16),
    # the KineticState 16, K^dagger K 12, one inverse 2
    "grad_psi": (30, 30),
    # the solver's call, reading the KineticState of its energy evaluation
    "grad_psi from the record": (14, 14),
    # the KineticState 16, G from it 14, the current pairing: T K psi 6 / 2
    # inverse and the pair 3 forward, A_hat 3
    "el_residual": (42, 38),
    # one Armijo trial energy: psi_hat, T psi and K psi_hat
    "trial energy": (10, 10),
    # the KineticState 16, the pairing 9 / 5, one inverse 3
    "current": (28, 24),
    "A-operator matvec": (18, 18),
    # one warm A-solve less its matvecs: psi_hat and T psi 4, the forcing
    # at A = 0 (no product transforms) 6 / 2 + 3, the warm start 3 forward,
    # the result 3 inverse
    "A-solve, fixed": (19, 15),
}

#: scalar transforms per call at A = 0, which reads the field-free record:
#: no transform of A and none of a product
ZERO_FIELD_BUDGET = {
    # psi: forward 2 + band limit 2
    "energy_functional": (4, 4),
    # psi 4, G 2 inverse, the current pairing 9 / 5; no A_hat
    "el_residual": (15, 11),
}

#: scalar transforms of a whole trial-start solve at n = 16, v = 0.1: A is
#: solved at the start, before each stationarity check and at the polish
#: (1675 / 1729 measured, with about 10 % headroom)
SOLVE_BUDGET = {"S": 1850, "P": 1900}

#: scalar transforms of a whole plane-start solve at n = 16, v = 0.1: both
#: A-solves end on the rounding floor of their forcing, so no A-operator
#: matvec is made, every state is read from the field-free record and the
#: all-zero A itself is never transformed
PLANE_BUDGET = {"S": 68, "P": 52}


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
    n_ops = []
    counts = {
        "energy_functional": count_ffts(lambda: energy_functional(grid16, p, psi, A)),
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
    }
    counts["A-solve, fixed"] -= n_ops[0] * counts["A-operator matvec"]
    column = "SP".index(model)
    assert counts == {name: pair[column] for name, pair in BUDGET.items()}


@pytest.mark.parametrize("model", ["S", "P"])
def test_transforms_per_call_at_zero_field(grid16, model, count_ffts):
    p = params(model, v=0.1)
    psi, A = random_fields(grid16, p, seed=3)
    psi, zero = psi.data, np.zeros_like(A.data)
    counts = {
        "energy_functional": count_ffts(lambda: energy_functional(grid16, p, psi, zero)),
        "el_residual": count_ffts(lambda: el_residual(grid16, p, psi, zero)),
    }
    column = "SP".index(model)
    assert counts == {name: pair[column] for name, pair in ZERO_FIELD_BUDGET.items()}


@pytest.mark.parametrize("model", ["S", "P"])
def test_transforms_per_plane_start_solve(grid16, model, count_ffts):
    p = params(model, v=0.1)
    reports = []
    used = count_ffts(lambda: reports.append(minimize(grid16, p, MinimizeConfig(init="plane"))))
    assert reports[0].converged
    assert used <= PLANE_BUDGET[model]


@pytest.mark.parametrize("model", ["S", "P"])
def test_transforms_per_solve(grid16, model, count_ffts):
    """A whole trial-start solve, A-solves and residual checks included."""
    p = params(model, v=0.1)
    reports = []
    used = count_ffts(lambda: reports.append(minimize(grid16, p, MinimizeConfig(init="trial"))))
    assert reports[0].converged
    assert used <= SOLVE_BUDGET[model]
