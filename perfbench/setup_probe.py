"""Set-up probe, run in a fresh interpreter by run.py.

Imports hquat.cli from the checkout's ``src`` and generates the first
operations of a workload, which is what every benchmark run (and, for the
import, every ``python -m hquat`` call) pays before its first operation.
Prints, as JSON, the import time and two calibration times taken in this
process (see calibration.py): the process may run on another CPU, in
another speed phase, than the one that launched it.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import itertools
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

_start = time.perf_counter()
import hquat.cli  # noqa: E402,F401

import_s = time.perf_counter() - _start

from calibration import calibration_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIRST_OPS = 64

if __name__ == "__main__":
    before = calibration_time(5)
    ops = list(itertools.islice(WORKLOADS[sys.argv[1]](int(sys.argv[2])), FIRST_OPS))
    after = calibration_time(5)
    print(json.dumps({"import_s": import_s, "calibration_s": [before, after]}))
