"""Transform budget of the evaluation kernels.

FFTs are the cost unit of every kernel, so the per-call counts are pinned
here.  A call of ``Grid.fft`` or ``Grid.ifft`` on a (c, n, n, n) stack
counts c scalar (n, n, n) transforms.
"""

import importlib

import numpy as np
import pytest

from mpwave import Grid, cli, spectral
from mpwave.diagnostics import TrialSpec
from mpwave.energy import energy_functional
from mpwave.fields import random_fields
from mpwave.minimize import MinimizeConfig, el_residual, grad_psi, minimize, solve_vector_potential
from mpwave.pauli import current, kinetic_state

from conftest import params

minimize_mod = importlib.import_module("mpwave.minimize")
diagnostics_mod = importlib.import_module("mpwave.diagnostics")
energy_mod = importlib.import_module("mpwave.energy")

#: scalar transforms per call, (model S, model P), at v = (0.1, 0, 0).
#: Every sum over directions and every sigma contraction is taken before
#: its forward transform: model P's K psi_hat takes 2 product transforms
#: (6 at the parent commit) and model S's K^dagger K 3c inverse + c
#: forward (6c), so the parent's counts, given after each entry where
#: they differ, fell wherever a K psi with a field or a Laplacian is made
BUDGET = {
    # A: forward 3 + band limit 3; psi: forward 2 + band limit 2;
    # K psi_hat: one forward transform of a_low_a * T psi per direction (S),
    # of (sigma . T A) T psi (P); parent 16 / 16
    "energy_functional": (16, 12),
    # psi_down = 0: A 6, the spin-up block forward 1 + band limit 1, and the
    # product transforms 3 / 2; parent 11 / 11
    "energy_functional, spin-up": (11, 10),
    # one row of the witness scan: the trial A projected on its transform 3,
    # T A 3 inverse, the spin-up block 2 and its products 3 / 2; parent 11 / 11
    "witness row": (11, 10),
    # the KineticState 16 / 12, K^dagger K 8 / 4, one inverse 2; parent 30 / 30
    "grad_psi": (26, 18),
    # the transform of G as the solver and the residual read it from the
    # KineticState, K^dagger K alone; 10 / 6 with the inverse transform the
    # residual took, 14 / 14 before the sums over directions came first
    "G_hat from the record": (8, 4),
    # the KineticState 16 / 12, G_hat from it 8 / 4, the current pairing: T K
    # psi 6 / 2 inverse and the pair 3 forward; A_hat comes from the band
    # limit of A, and theta, |Gt|, |G| and |psi|^2 are Parseval sums of
    # G_hat and psi_hat; 35 / 23 while it inverted G, 39 / 35 before that
    "el_residual": (33, 21),
    # one Armijo trial energy: psi_hat, T psi and K psi_hat; parent 10 / 10
    "trial energy": (10, 6),
    # the KineticState 16 / 12, the pairing 9 / 5, one inverse 3; parent 28 / 24
    "current": (28, 20),
    # T a 3 inverse, the field part of K psi at A = a 6 / 2 forward; the
    # current of that field part: 6 / 2 inverse, the pair 3; parent 18 / 14
    "A-operator matvec": (18, 10),
    # one warm A-solve less its matvecs: psi_hat and T psi 4, the forcing
    # at A = 0 (no product transforms) 6 / 2 + 3, the warm start 3 forward,
    # the result 3 inverse
    "A-solve, fixed": (19, 15),
    # the solver's A-solve, reading psi_hat and T psi from the record
    "A-solve from the band, fixed": (15, 11),
    # the solver's report from the band of psi and of A: A_hat and T A 6
    # (``energy._field_band``), K psi 6 / 2, the residual's current 6 / 2 + 3
    # and G_hat 8 / 4; the energy and omega read the same record and A_hat;
    # 31 / 19 while the residual inverted G, 35 / 31 before that
    "report": (29, 17),
}

#: scalar transforms per call at A = 0, which reads the field-free record:
#: no transform of A and none of a product
ZERO_FIELD_BUDGET = {
    # psi: forward 2 + band limit 2
    "energy_functional": (4, 4),
    # the spin-up block: forward 1 + band limit 1
    "energy_functional, spin-up": (2, 2),
    # psi 4, the current pairing 9 / 5; G_hat takes none; no A_hat; 15 / 11
    # while the residual inverted G
    "el_residual": (13, 9),
    # the solver's report from the band of psi: the current 9 / 5; 11 / 7
    # while the residual inverted G
    "report": (9, 5),
}

#: scalar transforms of the start psi of each init at n = 16: the samplers
#: draw psi alone, and the random one takes its two inverse transforms
START_BUDGET = {"trial": 0, "random": 2, "plane": 0}

#: scalar transforms of a whole trial-start solve at n = 16, v = 0.1: A is
#: solved at the start, after every fifth accepted step and at the polish,
#: each from A = 0 with no operator application.  Model S runs the spin-up
#: block of its spin-up start, so no transform of the zero psi_down is made.
#: The psi-loop iterates the band-limited psi_hat: a trial's record takes
#: one inverse transform of psi and the gradient and the direction none
#: (604 / 591 measured for S / P, whose polished residual reads G_hat by
#: Parseval; 605 / 593 when it inverted G, 718 / 835 when the loop ran on
#: grid values, and 776 / 1337 before the sums over directions moved
#: ahead of the transforms; each bound leaves room for about two iterations
#: above the count and sits below 718 / 835)
SOLVE_BUDGET = {"S": 650, "P": 640}

#: scalar transforms of a whole plane-start solve at n = 16, v = 0.1: the
#: start is banded once (2 / 4) and both A-solves and every record read that
#: band; both A-solves end on the rounding floor of their forcing (6 / 5
#: each), so no A-operator matvec is made, every state is read from the
#: field-free record and the all-zero A itself is never transformed; the
#: start's G and the one direction take no transform, and the returned psi
#: is banded again (2 / 4) for the polish and the report 6 / 5, the
#: residual's current alone.  Model S runs the spin-up block of the spin-up
#: plane wave, P the spinor (23 / 25 while the report inverted G, 1 / 2;
#: 24 / 27 while the loop's G took 1 / 2 and its direction 2 / 4)
PLANE_BUDGET = {"S": 22, "P": 23}

#: scalar transforms of one check (``cli._check_lines``) at v = (0.1, 0, 0),
#: (model S, model P): one record of the state (random: A 6, psi 4, K psi
#: 6 / 2; the spin-up plane wave at A = 0: the block 2 for S, the spinor 4
#: for P) with the residual's current and G_hat read from it by
#: ``minimize._report``, G_hat with no inverse transform, the
#: Coulomb potential 2, the half-band pair cut from psi_hat and A_hat
#: (3 / 2 + 3), one band of each half-band field with one stack of the D_a
#: psi transforms (4 + 6 + 6), the model S Laplacian read from that stack
#: (10, 2 at A = 0), the model P one from the sigma . D psi of
#: ``kinetic_hat`` (2 + 6, 2 at A = 0), the spin term 10 (none at A = 0)
#: and the gauge line 33, whose right side is the inverse of the stack.
#: Before the residual read G_hat by Parseval a check took 119 / 107
#: (random) and 53 / 56 (plane); with the sums over directions taken after
#: the transforms 133 / 129 and 53 / 56; with each check on its own
#: transforms 199 / 195 and 113 / 109
CHECK_BUDGET = {"random": (117, 105), "plane": (52, 54)}


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
        "G_hat from the record": count_ffts(lambda: minimize_mod._gradient_hat(grid16, p, st)),
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
        "report": count_ffts(lambda: minimize_mod._report(
            grid16, p, psi_hat, psi_low, energy_mod._field_band(grid16, p, A))),
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
            lambda: minimize_mod._report(
                grid16, p, psi_hat, psi_low, energy_mod._field_band(grid16, p, zero))
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


@pytest.mark.parametrize("model", ["S", "P"])
def test_transforms_per_check(grid16, model, count_ffts):
    p = params(model, v=0.1)
    states = {
        "random": random_fields(grid16, p, seed=3, a_amp=0.1),
        "plane": minimize_mod.plane_wave_state(grid16, p),
    }
    counts = {
        name: count_ffts(lambda: cli._check_lines(grid16, p, *state))
        for name, state in states.items()
    }
    column = "SP".index(model)
    assert counts == {name: pair[column] for name, pair in CHECK_BUDGET.items()}
