"""Starts the benchmark's CLI processes from a small process of its own.

Linux folds the resident size of the process that calls exec into the new
program's ``ru_maxrss``.  A command started straight from the benchmark,
which holds numpy and the corpus, would therefore report at least the
benchmark's own size.  This process stays small.  It reads one JSON request
per line on stdin, ``{"argv", "cwd", "stdout", "stderr", "timeout"}``, runs
the command to completion, and answers with one JSON line
``{"wall_s", "code", "maxrss_kb"}``.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
