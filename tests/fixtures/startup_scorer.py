"""Test scorer that reads its model when it starts.

Usage: startup_scorer.py VALUE_FILE PID_FILE
Reads a number from VALUE_FILE as soon as it starts, then appends its
process id and a newline to PID_FILE. Then reads its payload from stdin and
prints the number once per row after the header.
"""

import os
import sys

if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        value = float(fh.read())
    with open(sys.argv[2], "a") as fh:
        fh.write(f"{os.getpid()}\n")
    rows = sys.stdin.read().splitlines()[1:]
    sys.stdout.write(f"{value!r}\n" * len(rows))
