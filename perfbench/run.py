#!/usr/bin/env python3
"""Solver benchmark for mpwave.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve-n16 --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of that checkout, builds the
workload's inputs from ``--seed``, runs timed passes of the workload for
about ``--seconds`` seconds (at least one), checks every result and prints
as its last stdout line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass wall
time), ``setup_s`` (median of five set-ups, each in a fresh interpreter:
imports, grid and parameter construction, input generation) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the first traced pass, ``iterations`` and
``iter_ms`` from the untraced passes, and ``trace.overhead`` from the
medians of both.  The line before the result records the pinned
thread variables, ``nproc``, the Python, numpy and scipy versions and the
seed.  Spans and a copy of the result go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: One process uses one thread for FFTs and BLAS.
PINNED = {
    "MPW_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 5
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def _load(root: Path):
    """Import the package from ``root/src`` and the benchmark's modules."""
    src = root / "src"
    if not (src / "mpwave" / "__init__.py").is_file():
        raise SystemExit(f"error: no mpwave sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import mpwave

    if Path(mpwave.__file__).resolve().parent != (src / "mpwave").resolve():
        raise SystemExit(f"error: mpwave imported from {mpwave.__file__}, not {src}")
    import workloads

    return workloads


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: time imports plus input generation."""
    t0 = time.perf_counter()
    wl = _load(ROOT)
    wl.WORKLOADS[workload].setup(wl.Lib(), seed)
    print(repr(time.perf_counter() - t0))


def _setup_seconds(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "pinned": {k: os.environ.get(k) for k in PINNED},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def _timed_pass(lib, work, inp, workdir):
    t0 = time.perf_counter()
    tally = work.run(lib, inp, workdir)
    return time.perf_counter() - t0, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.environ.update(PINNED)  # before numpy loads its BLAS
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    wl = _load(ROOT)
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    import tracer

    work = wl.WORKLOADS[args.workload]
    env = _environment(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    lib = wl.Lib()
    tallies = []
    try:
        if args.trace == 0:
            setup_s = _setup_seconds(args.workload, args.seed)
            inp = work.setup(lib, args.seed)
            walls = []
            start = time.perf_counter()
            while True:
                dt, tally = _timed_pass(lib, work, inp, str(workdir))
                walls.append(dt)
                tallies.append(tally)
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(walls) > args.seconds:
                    break
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            detail = {"pass_wall_s": walls}
        else:
            # untraced and traced passes alternate so that both see the
            # same machine; the spans of the first traced pass are reported
            inp = work.setup(lib, args.seed)
            walls_u, walls_t, first = [], [], None
            start = time.perf_counter()
            while True:
                wall_u, tally = _timed_pass(lib, work, inp, str(workdir))
                tallies.append(tally)
                with tracer.Tracer(work.n) as tr:
                    traced_inp = work.setup(lib, args.seed)
                    wall_t, tally = _timed_pass(lib, work, traced_inp, str(workdir))
                tallies.append(tally)
                walls_u.append(wall_u)
                walls_t.append(wall_t)
                if first is None:
                    first = tr
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(walls_u) > args.seconds:
                    break
            layer = tracer.summarize(first.spans, statistics.median(walls_u),
                                     statistics.median(walls_t))
            iterations = tallies[0].iterations
            layer["iterations"] = iterations
            layer["iter_ms"] = 1e3 * statistics.median(walls_u) / iterations if iterations else 0.0
            units = {m["name"]: m["unit"] for m in
                     json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
            metrics = {k: (v, units[k]) for k, v in layer.items()}
            first.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"))
            detail = {"untraced_wall_s": walls_u, "traced_wall_s": walls_t,
                      "spans": len(first.spans)}
    finally:
        for leftover in workdir.iterdir():
            leftover.unlink()
        workdir.rmdir()

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "fail_frac": failed / attempted, "failures": failures,
              "iterations": tallies[0].iterations, **detail, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"env": env, "fail_frac": failed / attempted,
                      "iterations": tallies[0].iterations}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
