"""One fresh-process set-up: import explainkit, load the workload's table
and set up its scorer, then print "ready" and exit.

Usage: setup_probe.py WORKLOAD TABLE_CSV WORKDIR
run.py times this process from its start to the "ready" line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports explainkit)


def main():
    name, table, workdir = sys.argv[1:4]
    WORKLOADS[name].setup(Path(table), Path(workdir))
    print("ready", flush=True)


if __name__ == "__main__":
    main()
