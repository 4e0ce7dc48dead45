"""External scorer for the external-breakdown workload: mu + beta . x.

Usage: linear_scorer.py MU BETA1 [BETA2 ...]
Speaks the explainkit external scorer protocol: reads a header line and one
CSV row per observation on stdin, prints one score per row on stdout.
"""

import csv
import sys


def main():
    mu = float(sys.argv[1])
    betas = [float(b) for b in sys.argv[2:]]
    reader = csv.reader(sys.stdin)
    next(reader)  # header
    for row in reader:
        if not row:
            continue
        cells = [float(c) for c in row]
        if len(cells) != len(betas):
            print(f"expected {len(betas)} features, got {len(cells)}", file=sys.stderr)
            sys.exit(3)
        print(repr(mu + sum(b * c for b, c in zip(betas, cells))))


if __name__ == "__main__":
    main()
