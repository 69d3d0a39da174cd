"""Small process that starts the benchmark's child processes and measures them.

A child created by fork, vfork or posix_spawn keeps its creator's RSS
high-water mark across exec, so children started from the benchmark
process (which holds every generated input and expected answer) would all
report its peak RSS.  This launcher is started before any input exists and
stays small; it runs one child per request and reports that child's own
wall time, CPU time and peak RSS from ``os.wait4``.

Protocol: one JSON request per stdin line, ``{"argv", "out", "err",
"timeout"}``; one JSON reply per stdout line, ``{"code", "wall_s",
"cpu_s", "rss_kib"}``.  The launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    timer = threading.Timer(request["timeout"], proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
