"""Test scorer: closes its stderr, waits, then echoes the first feature
column as the score, one line per write. A caller that stopped reading at
the end of stderr would miss every score."""

import os
import sys
import time

if __name__ == "__main__":
    rows = sys.stdin.read().splitlines()[1:]  # header first
    os.close(2)
    time.sleep(0.2)
    for row in rows:
        print(float(row.split(",")[0]), flush=True)
