"""Test scorer that records what it is sent.

Usage: recording_scorer.py PAYLOAD_FILE [PID_FILE]
Appends its process id and a newline to PID_FILE, if given, as soon as it
starts. Then copies its stdin byte for byte to PAYLOAD_FILE and prints one
0 per CSV record after the header, as `csv.reader` splits them.
"""

import csv
import io
import os
import sys

if __name__ == "__main__":
    if len(sys.argv) > 2:
        with open(sys.argv[2], "a") as fh:
            fh.write(f"{os.getpid()}\n")
    payload = sys.stdin.buffer.read()
    with open(sys.argv[1], "wb") as fh:
        fh.write(payload)
    records = list(csv.reader(io.StringIO(payload.decode("utf-8"), newline="")))
    sys.stdout.write("0\n" * (len(records) - 1))
