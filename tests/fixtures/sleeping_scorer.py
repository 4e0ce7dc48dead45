"""Test scorer that hangs: writes its process id to the file named by its
first argument, then sleeps for a minute without reading stdin or printing."""

import os
import sys
import time

if __name__ == "__main__":
    with open(sys.argv[1], "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(60)
