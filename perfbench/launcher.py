"""Start benchmark children on request and report how each one ran.

A child's ``ru_maxrss`` on Linux starts from the RSS of the process that
forked it, so children are forked from this small process rather than from
the harness, whose RSS grows with the outputs it holds.

Protocol: one JSON request per line on stdin,
``{"args", "env", "cwd", "stdout", "stderr", "timeout"}``, where an
argument ``"{start}"`` is replaced by the spawn time (``time.monotonic_ns()``);
one JSON reply per line on stdout, ``{"wall_s", "cpu_s", "rss_mb", "code"}``.
A child still running after ``timeout`` seconds is killed.  The launcher
exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.monotonic_ns()
        args = [str(start) if a == "{start}" else a for a in request["args"]]
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=request["env"],
                                cwd=request["cwd"])
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": (end - start) * 1e-9, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
