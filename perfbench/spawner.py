"""Starts the CLI commands of run.py from a small process of its own.

The peak RSS that os.wait4 reports for a child includes the memory of the
process it was forked from, up to its exec.  run.py holds the library, the
inputs and the checker's caches; forking the commands from this script,
which loads none of them, keeps that memory out of peak_rss_mb.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "cwd": "...", "timeout": seconds}
and one JSON reply per line on stdout,
    {"status": wait status, "seconds": wall time, "maxrss_kb": peak RSS}.
The command writes its stdout and stderr to .stdout and .stderr in cwd and
inherits this process's environment.  The loop ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, cwd, timeout):
    with open(os.path.join(cwd, ".stdout"), "wb") as out, \
            open(os.path.join(cwd, ".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"status": status, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["cwd"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
