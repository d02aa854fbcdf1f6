"""Set-up time of a fresh process: import iterint and build a job's basis.

Usage: python3 perfbench/setup_probe.py BASIS_JSON

Prints the wall seconds from before ``import iterint`` to a constructed
basis.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import iterint  # noqa: E402
import iterint.cli  # noqa: E402,F401

iterint.basis_from_json(json.loads(sys.argv[1]))
print(time.perf_counter() - t0)
