"""Test scorer that hangs: appends its process id and a newline to the file
named by its first argument, then sleeps for a minute without reading stdin
or printing."""

import os
import sys
import time

if __name__ == "__main__":
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\n")
    time.sleep(60)
