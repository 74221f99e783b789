"""Transform budget of the evaluation kernels.

FFTs are the cost unit of every kernel, so the per-call counts are pinned
here.  A call of ``Grid.fft`` or ``Grid.ifft`` on an (n, n, n, c) array
counts c scalar (n, n, n) transforms.
"""

import importlib

import pytest

from mpwave import Grid, spectral
from mpwave.energy import energy_functional
from mpwave.fields import random_fields
from mpwave.minimize import el_residual, grad_psi

from conftest import params

minimize_mod = importlib.import_module("mpwave.minimize")

#: scalar transforms per call, (model S, model P), at v = (0.1, 0, 0)
BUDGET = {
    # A: forward 3 + band limit 3; psi: forward 2 + band limit 2;
    # K psi_hat: one forward transform of a_low_a * T psi per direction
    "energy_functional": (16, 16),
    # T(A) 6, psi_hat and K psi_hat 10, K^dagger K 12, one inverse 2
    "grad_psi": (30, 30),
    # the solver's call, reading the workspace of its energy evaluation
    "grad_psi from the workspace": (14, 14),
    # T(A) 6, grad_psi 24, current 22 / 18, projection and transforms 12
    "el_residual": (64, 60),
    # one Armijo trial energy: psi_hat, T psi and K psi_hat
    "trial energy": (10, 10),
}


@pytest.fixture()
def count_ffts(monkeypatch):
    tally = [0]
    for name in ("fft", "ifft"):
        transform = getattr(Grid, name)

        def counted(self, f, transform=transform):
            out = transform(self, f)
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
    _, ws = minimize_mod._psi_energy_part(grid16, p, psi, a_low)
    counts = {
        "energy_functional": count_ffts(lambda: energy_functional(grid16, p, psi, A)),
        "grad_psi": count_ffts(lambda: grad_psi(grid16, p, psi, A)),
        "grad_psi from the workspace": count_ffts(
            lambda: grad_psi(grid16, p, psi, A, a_low=a_low, ws=ws)
        ),
        "el_residual": count_ffts(lambda: el_residual(grid16, p, psi, A)),
        "trial energy": count_ffts(
            lambda: minimize_mod._psi_energy_part(grid16, p, psi, a_low)
        ),
    }
    column = "SP".index(model)
    assert counts == {name: pair[column] for name, pair in BUDGET.items()}
