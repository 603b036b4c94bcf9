"""Time the benchmark's set-up in a fresh interpreter.

Prints the seconds at reference speed and the raw seconds (see speed.py);
run.py starts this script several times and reports the median as setup_s.
"""

from pathlib import Path

import speed
import workloads

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    _, scaled, raw = speed.timed(lambda: workloads.setup(workloads.import_algwaves(root)))
    print(scaled, raw)
