"""Run one command and record its wall-clock time, CPU time and peak memory.

    python3 measure.py RESULT_JSON TIMEOUT_S CMD [ARG...]

The command inherits stdin, stdout and stderr. Its wall-clock seconds
(from spawn to exit, without this interpreter's start-up), its CPU
seconds (user + system, from `wait4`) and its peak resident set size
(`ru_maxrss`, in KiB) go to RESULT_JSON.
A command still running after TIMEOUT_S seconds is killed. Exits 0 only
when the command did.
"""

import json
import os
import signal
import sys
import time


def main():
    result_path, timeout_s, cmd = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    code = os.waitstatus_to_exitcode(status)
    with open(result_path, "w") as f:
        cpu_s = usage.ru_utime + usage.ru_stime
        json.dump({"wall_s": wall_s, "cpu_s": cpu_s, "max_rss_kb": usage.ru_maxrss, "code": code}, f)
    sys.exit(0 if code == 0 else 1)


if __name__ == "__main__":
    main()
