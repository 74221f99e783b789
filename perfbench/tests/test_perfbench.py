"""Self-tests of the benchmark: FFT accounting, tracer wiring, workloads.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _traced_ffts(n, call):
    with tracer.Tracer(n) as tr:
        call()
    return tracer._aggregate(tr.spans)


# exact scalar (n, n, n) transform counts per call at n = 32,
# v = (0.1, 0, 0), on a random_fields state
PER_CALL = {
    ("energy.energy_functional", "S"): 88, ("energy.energy_functional", "P"): 88,
    ("minimize.grad_psi", "S"): 52, ("minimize.grad_psi", "P"): 68,
    ("minimize.el_residual", "S"): 114, ("minimize.el_residual", "P"): 122,
}


@pytest.mark.parametrize("name,model", sorted(PER_CALL))
def test_fft_count_per_call(name, model):
    lib = workloads.Lib()
    grid = lib.grid.Grid(32, 40.0)
    p = lib.fields.PhysParams(v=(0.1, 0.0, 0.0), model=model)
    psi, a = lib.fields.random_fields(grid, p, 3)
    module, fn = name.split(".")
    agg = _traced_ffts(32, lambda: getattr(getattr(lib, module), fn)(grid, p, psi, a))
    assert agg[name]["calls"] == 1
    assert agg[name]["ffts"] == PER_CALL[(name, model)]
    assert agg["grid.fft"]["ffts"] == PER_CALL[(name, model)]


def test_fft_equivalents_by_transform_kind():
    n = 8
    real = np.ones((n, n, n))
    spinor = np.ones((n, n, n, 2), dtype=complex)

    def calls():
        scipy.fft.fftn(spinor, axes=(0, 1, 2))
        np.fft.ifftn(spinor, axes=(0, 1, 2))
        half = scipy.fft.rfftn(real)
        scipy.fft.irfftn(half, s=real.shape)
        np.fft.fft(real, axis=0)

    agg = _traced_ffts(n, calls)
    # c2c over the grid axes counts one per component, r2c and c2r count
    # one half, a 1-D transform over one of three axes counts one third
    assert agg["grid.fft"]["calls"] == 5
    assert agg["grid.fft"]["ffts"] == pytest.approx(2 + 2 + 0.5 + 0.5 + 1 / 3, abs=1e-15)


def test_every_binding_is_wrapped_and_restored():
    import mpwave

    mods = {m: importlib.import_module(f"mpwave.{m}")
            for m in ("energy", "minimize", "cli", "pauli")}
    original = mods["energy"].energy_functional
    fft = scipy.fft.fftn
    with tracer.Tracer(8):
        for owner in (mods["energy"], mods["minimize"], mods["cli"], mpwave):
            assert owner.energy_functional is not original
            assert owner.energy_functional.__wrapped__ is original
        assert mods["pauli"].covariant_gradient.__wrapped__
        assert scipy.fft.fftn is not fft
    for owner in (mods["energy"], mods["minimize"], mods["cli"], mpwave):
        assert owner.energy_functional is original
    assert scipy.fft.fftn is fft


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(tracer.summarize([], 1.0, 1.0)) | {"iterations", "iter_ms"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_readme_maps_every_per_layer_metric():
    """Every per-layer metric has a row in the README's map to the
    end-to-end metric it should move."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = [line.split("|")[1] for line in
            (ROOT / "perfbench" / "README.md").read_text().splitlines()
            if line.startswith("| `")]
    mapped = set()
    for cell in rows:
        for pattern in re.findall(r"`([^`]+)`", cell):
            parts = [group.split(",") for group in re.split(r"[{}]", pattern)]
            mapped.update("".join(p) for p in itertools.product(*parts))
    assert {m["name"] for m in spec["per_layer"]} <= mapped


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_n8(name, tmp_path):
    lib = workloads.Lib()
    work = workloads.WORKLOADS[name]
    with tracer.Tracer(8) as tr:
        inp = work.setup(lib, seed=1, n=8)
        tally = work.run(lib, inp, str(tmp_path))
    assert tally.attempted > 0
    # at n = 8 the gauge-covariance line of ``mpwave check`` exceeds its
    # 1e-6 tolerance on every state (defects 3e-4 to 7e-4): the gauge
    # phase is not band-limited on so coarse a grid.  Nothing else may fail.
    for failure in tally.failures:
        assert failure.startswith("check "), failure
        assert failure.count("FAIL ") == 1 and "FAIL gauge-covariance" in failure, failure
    layer = tracer.summarize(tr.spans, 1.0, 1.0)
    assert layer["grid.ffts"] > 0
    assert layer["minimize.minimize.self_s"] > 0 or name == "audit-n32"
    assert list(tmp_path.iterdir()) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plane-n32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
