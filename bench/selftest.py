"""Fast self-test of the benchmark harness.

Usage (from the repository root):

    python3 bench/selftest.py

Runs every workload once at the tiny size, untraced and traced, and fails
unless each run exits cleanly, passes its correctness gate and emits every
metric of ``BENCHMARK.json`` for its mode with the unit given there.  It
takes about a minute and is kept out of the pytest suite on purpose.
"""

import sys

from report import main

if __name__ == "__main__":
    untraced = main(["--size", "tiny", "--seconds", "1", "--trace", "0"])
    traced = main(["--size", "tiny", "--seconds", "1", "--trace", "1"])
    sys.exit(untraced or traced)
