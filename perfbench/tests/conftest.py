"""Import paths for the benchmark's own tests: the package from ``src/`` and
the benchmark modules from ``perfbench/``."""

import os
import sys

os.environ.setdefault("MPW_THREADS", "1")
_HERE = os.path.dirname(os.path.abspath(__file__))
_BENCH = os.path.dirname(_HERE)
for path in (os.path.join(os.path.dirname(_BENCH), "src"), _BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
