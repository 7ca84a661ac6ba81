"""Starts psispec children one at a time for run.py and reports what each cost.

The first line on standard input is the children's environment as JSON; each
further line is a request ``{"argv", "cwd", "stdout"}``.  For each, one line
``{"wall_s", "maxrss_kb", "code"}`` is written back.

This runs as a process of its own because Linux carries the spawning
process's resident high-water mark across exec into the child's
``ru_maxrss``: spawned from the benchmark process, which holds large
reference arrays, every child would report at least that process's peak.
This process stays small, so the peak it reports is the child's own.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> None:
    # SystemExit unwinds through the finally below, which stops the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    env = json.loads(sys.stdin.readline())
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], env=env, cwd=request["cwd"], stdout=out)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
