"""Run one command and report its wall time and peak RSS as a JSON line.

    python launch.py <log file> <timeout s> <command> [args...]

run.py starts every measured process through this small interpreter. On
Linux a child's `ru_maxrss` also counts the memory its parent held when it
was spawned, so a child of run.py, which holds the generated corpus, would
report at least run.py's size. Spawned from here, it reports its own peak.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    log_path, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall": wall, "t_spawn": t_spawn,
                      "peak_rss_mb": usage.ru_maxrss / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
