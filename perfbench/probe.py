"""Set-up probe: import hdmarc from a checkout, run one op, report.

Usage: ``python3 perfbench/probe.py <checkout root> <calls.json>``.  Prints
``done`` once the op has finished; the parent times process start to that
line.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(sys.argv[1], "src"))

from workloads import run_calls  # noqa: E402  (needs the path above)

with open(sys.argv[2], encoding="utf-8") as handle:
    run_calls(json.load(handle))
print("done", flush=True)
