"""In-memory span tracer and FFT counter, installed from outside the package.

``Tracer.install`` replaces, for the life of a traced pass:

* every binding of every public function of the nine ``mpwave`` modules
  with a wrapper that records a span.  A function imported by name into
  another module (``from .energy import energy_functional``) has a second
  binding there, and calls inside a module resolve through its globals,
  so every ``mpwave`` module and the package namespace are searched for
  the same function object;
* ``Grid.__init__``, recorded as the span ``grid.Grid``;
* the transform entry points of ``scipy.fft`` and ``numpy.fft``, each
  call recorded as a leaf span in the ``grid`` layer with its size in
  scalar (n, n, n) transform equivalents and its computed bytes.

FFT equivalents: a complex-to-complex transform over ``d`` axes of an
array of ``N`` elements counts ``N / n**3 * d / 3``, so ``fftn`` of an
(n, n, n, c) array over the grid axes counts ``c``.  A real-to-complex or
complex-to-real transform counts half of the complex transform of the
same real shape.  Bytes are input plus output array sizes, computed from
the arrays and not measured.

Spans are kept in memory as ``[name, parent, t0, t1, extra]`` with the
parent given by list index (-1 for the root) and are written out only
when the run ends.  ``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
import time

import numpy as np

#: The modules whose public functions are traced, in layer order.
MODULES = ("grid", "spectral", "fields", "pauli", "energy", "minimize",
           "diagnostics", "io", "cli")

_C2C = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
_R2C = ("rfft", "rfft2", "rfftn", "ihfft", "ihfft2", "ihfftn")
_C2R = ("irfft", "irfft2", "irfftn", "hfft", "hfft2", "hfftn")


def _transformed_axes(fname: str, x, args, kwargs) -> int:
    """Number of axes a transform call runs over."""
    if fname.endswith("2"):
        return 2
    if not fname.endswith("n"):
        return 1
    axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
    if axes is not None:
        return len(axes)
    s = kwargs.get("s", args[0] if args else None)
    if s is not None:
        return len(s)
    return np.ndim(x)


def fft_equivalents(fname: str, x, out, args, kwargs, n: int) -> float:
    """Size of one transform call in scalar (n, n, n) c2c equivalents."""
    d = _transformed_axes(fname, x, args, kwargs)
    if fname in _R2C:
        return 0.5 * np.size(x) / n**3 * d / 3
    if fname in _C2R:
        return 0.5 * np.size(out) / n**3 * d / 3
    return np.size(out) / n**3 * d / 3


def public_functions(module) -> dict:
    """Public functions defined in ``module`` (its ``__all__`` when present)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [k for k in vars(module) if not k.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def _file_size(args, kwargs, out) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


class Tracer:
    """Records spans for one traced pass; ``n`` sets the FFT equivalent unit."""

    def __init__(self, n: int):
        self.n = n
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_return is not None:
                rec[4] = on_return(args, kwargs, out)
            return out

        return traced

    def _fft_hook(self, fname: str):
        n = self.n

        def extra(args, kwargs, out):
            x = args[0] if args else kwargs.get("x", kwargs.get("a"))
            eq = fft_equivalents(fname, x, out, args[1:], kwargs, n)
            return (eq, np.asarray(x).nbytes + out.nbytes)

        return extra

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / remove ------------------------------------------------------

    def install(self) -> None:
        import scipy.fft

        pkg = importlib.import_module("mpwave")
        mods = {m: importlib.import_module(f"mpwave.{m}") for m in MODULES}
        bindings = [pkg] + [mod for key, mod in sorted(sys.modules.items())
                            if key.startswith("mpwave.") and mod is not None]
        hooks = {("minimize", "solve_vector_potential"): lambda a, k, out: out[1],
                 ("minimize", "minimize"): lambda a, k, out: out.iterations,
                 ("io", "write_state"): _file_size,
                 ("io", "read_state"): _file_size}
        for layer, mod in mods.items():
            for fname, fn in public_functions(mod).items():
                wrapped = self._wrap(f"{layer}.{fname}", fn, hooks.get((layer, fname)))
                for owner in bindings:
                    for attr, val in list(vars(owner).items()):
                        if val is fn:
                            self._patch(owner, attr, wrapped)
        grid_cls = mods["grid"].Grid
        self._patch(grid_cls, "__init__", self._wrap("grid.Grid", grid_cls.__init__))
        for lib, libname in ((scipy.fft, "scipy"), (np.fft, "numpy")):
            for fname in _C2C + _R2C + _C2R:
                if hasattr(lib, fname):
                    fn = getattr(lib, fname)
                    self._patch(lib, fname, self._wrap(
                        f"grid.fft:{libname}.{fname}", fn, self._fft_hook(fname)))

    def remove(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV: id, parent, name, t0, t1, extra."""
        base = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,t0_s,t1_s,extra\n")
            for i, (name, parent, t0, t1, extra) in enumerate(self.spans):
                if isinstance(extra, tuple):
                    extra = ";".join(repr(e) for e in extra)
                fh.write(f"{i},{parent},{name},{t0 - base:.9f},{t1 - base:.9f},"
                         f"{'' if extra is None else extra}\n")


def _aggregate(spans: list) -> dict:
    """Per-name calls, inclusive and self time, inclusive FFTs and bytes."""
    m = len(spans)
    child_t = [0.0] * m
    ffts = [0.0] * m
    nbytes = [0] * m
    for i in range(m - 1, -1, -1):  # children always follow their parent
        name, parent, t0, t1, extra = spans[i]
        if name.startswith("grid.fft:"):
            ffts[i] += extra[0]
            nbytes[i] += extra[1]
        if parent >= 0:
            child_t[parent] += t1 - t0
            ffts[parent] += ffts[i]
            nbytes[parent] += nbytes[i]
    agg: dict = {}
    for i, (name, parent, t0, t1, extra) in enumerate(spans):
        key = "grid.fft" if name.startswith("grid.fft:") else name
        a = agg.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "ffts": 0.0, "bytes": 0, "ret": 0})
        a["calls"] += 1
        a["total_s"] += t1 - t0
        a["self_s"] += (t1 - t0) - child_t[i]
        a["ffts"] += ffts[i]
        a["bytes"] += nbytes[i]
        if isinstance(extra, (int, np.integer)):
            a["ret"] += int(extra)
    return agg


def summarize(spans: list, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, as ``{name: value}``.

    The two wall times are those of the same pass run untraced and traced;
    they give ``trace.overhead``.
    """
    agg = _aggregate(spans)
    get = lambda name, key: agg.get(name, {}).get(key, 0)
    iterations = get("minimize.minimize", "ret")
    per_call = lambda name: get(name, "ffts") / get(name, "calls") if get(name, "calls") else 0.0

    kinetic_evals = sum(
        1 for name, parent, *_ in spans
        if name.startswith("pauli.") and parent >= 0 and spans[parent][0] == "minimize.minimize")
    fft_in_solves = get("minimize.minimize", "ffts")

    out = {
        "grid.ffts": get("grid.fft", "ffts"),
        "grid.ffts_per_iter": fft_in_solves / iterations if iterations else 0.0,
        "grid.fft_self_s": get("grid.fft", "self_s"),
        "grid.fft_gb_computed": get("grid.fft", "bytes") / 1e9,
        "grid.init_s": get("grid.Grid", "total_s"),
    }
    for fn in ("dealias", "helmholtz_project", "directional_derivative", "curl"):
        out[f"spectral.{fn}.calls"] = get(f"spectral.{fn}", "calls")
        out[f"spectral.{fn}.self_s"] = get(f"spectral.{fn}", "self_s")
    out["fields.l2_norm_sq.calls"] = get("fields.l2_norm_sq", "calls")
    out["fields.l2_norm_sq.self_s"] = get("fields.l2_norm_sq", "self_s")
    out["fields.random_fields.total_s"] = get("fields.random_fields", "total_s")
    for fn in ("covariant_gradient", "pauli_gradient", "covariant_laplacian", "current"):
        out[f"pauli.{fn}.calls"] = get(f"pauli.{fn}", "calls")
        out[f"pauli.{fn}.self_s"] = get(f"pauli.{fn}", "self_s")
        out[f"pauli.{fn}.ffts"] = get(f"pauli.{fn}", "ffts")
    out["energy.energy_functional.calls"] = get("energy.energy_functional", "calls")
    out["energy.energy_functional.total_s"] = get("energy.energy_functional", "total_s")
    out["energy.energy_functional.ffts_per_call"] = per_call("energy.energy_functional")
    out["energy.apriori_bounds.total_s"] = get("energy.apriori_bounds", "total_s")
    svp = "minimize.solve_vector_potential"
    out[f"{svp}.calls"] = get(svp, "calls")
    out[f"{svp}.total_s"] = get(svp, "total_s")
    out[f"{svp}.a_ops"] = get(svp, "ret")
    out[f"{svp}.ffts_per_call"] = per_call(svp)
    for fn in ("grad_psi", "el_residual"):
        out[f"minimize.{fn}.calls"] = get(f"minimize.{fn}", "calls")
        out[f"minimize.{fn}.total_s"] = get(f"minimize.{fn}", "total_s")
        out[f"minimize.{fn}.ffts_per_call"] = per_call(f"minimize.{fn}")
    out["minimize.kinetic_evals"] = kinetic_evals
    out["minimize.ls_accept_ratio"] = iterations / kinetic_evals if kinetic_evals else 0.0
    out["minimize.minimize.self_s"] = get("minimize.minimize", "self_s")
    for fn in ("negativity_witness", "trial_fields", "coulomb_lower_bound"):
        out[f"diagnostics.{fn}.calls"] = get(f"diagnostics.{fn}", "calls")
        out[f"diagnostics.{fn}.total_s"] = get(f"diagnostics.{fn}", "total_s")
    out["io.write_state.total_s"] = get("io.write_state", "total_s")
    out["io.read_state.total_s"] = get("io.read_state", "total_s")
    out["io.bytes"] = get("io.write_state", "ret") + get("io.read_state", "ret")
    out["cli.main.self_s"] = get("cli.main", "self_s")
    out["trace.overhead"] = traced_wall_s / untraced_wall_s - 1.0
    return out
