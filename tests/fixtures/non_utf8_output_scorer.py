"""Test scorer: answers every row with bytes that are not UTF-8, exits 0."""

import sys

if __name__ == "__main__":
    sys.stdin.read()
    sys.stdout.buffer.write(b"\xff\xfe1.0\n")
