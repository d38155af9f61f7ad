"""``kmf`` with the outside-in tracer, for traced runs of the cli workload.

Usage: ``python3 perfbench/kmf_traced.py <kmf arguments>`` with ``src`` on
``PYTHONPATH``.  Stdout and the exit code are those of ``kmf``.  One extra
line on stderr, ``KMFTRACE {...}``, holds the time spent in ``main`` and
the per-layer summary.
"""

import json
import os
import sys
import time

import kmfactor.cli

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.paused = False
code = 1
main_start = time.perf_counter()
try:
    code = kmfactor.cli.main(sys.argv[1:])
finally:
    main_s = time.perf_counter() - main_start
    tracer.paused = True
    sys.stdout.flush()
    doc = {"main_s": main_s, "layers": tracer.summary()}
    sys.stderr.write("KMFTRACE " + json.dumps(doc) + "\n")
sys.exit(code)
