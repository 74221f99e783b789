"""Mutation harness: plant one-line mutants in a copy of the tree and
report which ones the test suite kills.

    python tools/mutants.py [ID ...]

The script copies ``src/``, ``tests/`` and ``pyproject.toml`` of the
working tree to a temporary directory and runs the suite there once
unmutated, the fast layer (``-m "not acceptance"``) and then the
acceptance layer, to learn which tests already fail; those are
deselected from every later run, so a failure the tree already has
kills no mutant.  An unmutated run that fails without naming its
failing tests (a timeout, a collection or usage error) stops the
script, since every mutant would then count as killed.  Each mutant of the list (``tools/mutants.txt``; the
format is described at its top), or each one named by ID, is then
planted alone and the fast layer is run with ``-x``; a mutant it does
not kill goes on to the acceptance layer.  One line per mutant reads
``killed (fast: <test>)``, ``killed (acceptance: <test>)``, ``survived``
or ``not planted`` (its line no longer occurs exactly once), followed by
the counts.  A mutant whose run exceeds ``TIMEOUT`` seconds (one that
makes a loop spin, say) counts as killed.

The full list takes about 10 minutes on a 2-core machine, so this is not
part of the test suite: pytest collects ``tests/`` only.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "tools" / "mutants.txt"
LAYERS = (("fast", "not acceptance"), ("acceptance", "acceptance"))
TIMEOUT = 900.0  # seconds allowed for one layer of one run


def read_list(path: Path) -> list[dict]:
    """The mutants of the list file, each a dict of id, path, old and new."""
    mutants = []
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        if raw.startswith("["):
            mutants.append({"id": raw[1:].partition("]")[0]})
        elif mutants and raw.startswith("path:"):
            mutants[-1]["path"] = raw[len("path:"):].strip()
        elif mutants and raw[0] in "-+":
            mutants[-1]["old" if raw[0] == "-" else "new"] = raw[1:].strip()
        else:
            sys.exit(f"{path}:{number}: cannot read {raw!r}")
    for m in mutants:
        missing = {"path", "old", "new"} - set(m)
        if missing:
            sys.exit(f"{path}: mutant {m['id']} has no {', '.join(sorted(missing))}")
    return mutants


def plant(text: str, old: str, new: str) -> str | None:
    """``text`` with its one line whose stripped text is ``old`` replaced by
    ``new`` at that line's indent; None unless exactly one line matches."""
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        return None
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + new
    return "\n".join(lines)


def run_layer(copy: Path, marker: str, deselect: list[str],
              stop_first: bool) -> tuple[bool, list[str]]:
    """Run one layer of the suite in ``copy``: (passed, failing test ids).
    A run past ``TIMEOUT``, or one that fails naming no test, fails with
    a single id that says why and holds no "::"."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "-m", marker]
    if stop_first:
        cmd.append("-x")
    for test in deselect:
        cmd += ["--deselect", test]
    # no bytecode is written, so a module is always read from its mutated source
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, [f"timeout after {TIMEOUT:g} s"]
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1]
    # exit code 5: every test of the layer was deselected
    passed = proc.returncode in (0, 5)
    if not passed and not failed:
        failed = [f"pytest exit {proc.returncode}"]
    return passed, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ids", nargs="*", help="run only these mutants")
    args = ap.parse_args(argv)

    mutants = read_list(LIST)
    unknown = set(args.ids) - {m["id"] for m in mutants}
    if unknown:
        ap.error(f"no such mutant: {', '.join(sorted(unknown))}")
    if args.ids:
        mutants = [m for m in mutants if m["id"] in args.ids]

    copy = Path(tempfile.mkdtemp(prefix="mpwave-mutants-"))
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
    try:
        baseline = []
        for layer, marker in LAYERS:
            _, failed = run_layer(copy, marker, [], stop_first=False)
            broken = [t for t in failed if "::" not in t]
            if broken:
                sys.exit(f"the unmutated {layer} layer failed: {', '.join(broken)}")
            baseline += failed
        print(f"unmutated tree: {len(baseline)} failing test(s) deselected"
              + "".join(f"\n  {t}" for t in baseline), flush=True)

        tally = {"killed": 0, "survived": 0, "not planted": 0}
        width = max(len(m["id"]) for m in mutants)
        for m in mutants:
            target = copy / m["path"]
            original = target.read_text(encoding="utf-8")
            mutated = plant(original, m["old"], m["new"])
            if mutated is None:
                verdict = "not planted"
            else:
                target.write_text(mutated, encoding="utf-8")
                try:
                    verdict = "survived"
                    for layer, marker in LAYERS:
                        passed, failed = run_layer(copy, marker, baseline, stop_first=True)
                        if not passed:
                            verdict = f"killed ({layer}: {failed[0]})"
                            break
                finally:
                    target.write_text(original, encoding="utf-8")
            tally[verdict.split(" (")[0]] += 1
            print(f"{m['id']:<{width}}  {verdict}", flush=True)
        print(", ".join(f"{n} {k}" for k, n in tally.items()) + f" of {len(mutants)}")
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
