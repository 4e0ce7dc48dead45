"""Test scorer: writes a byte that is not UTF-8 to stderr, exits 3."""

import sys

if __name__ == "__main__":
    sys.stdin.read()
    sys.stderr.buffer.write(b"bad byte \xff\n")
    sys.exit(3)
