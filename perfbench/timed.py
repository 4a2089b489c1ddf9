"""Run one command and write its wall time and rusage to a JSON file.

    python3 -I -S perfbench/timed.py RESULT.json [--cpu N] -- COMMAND...

The benchmark starts every child through this small process. A child's
`ru_maxrss` also counts the peak RSS of the address space it replaced at
exec, which for a vfork child is its parent's; started straight from the
benchmark, which holds whole carriers in memory, every command would
report the benchmark's peak instead of its own.

RESULT.json is written twice: with the child's pid and start time right
after the spawn, and with the outcome once the child has ended. SIGINT
and SIGTERM are passed on to the child. With `--cpu N` the child runs on
that CPU only.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _write(path, record):
    with open(path + ".tmp", "w") as out:
        json.dump(record, out)
    os.replace(path + ".tmp", path)


def main():
    args = sys.argv[1:]
    result_path = args.pop(0)
    if args[0] == "--cpu":
        os.sched_setaffinity(0, {int(args[1])})
        args = args[2:]
    command = args[1:]  # after "--"
    child = None

    def forward(signum, _frame):
        if child is not None:
            child.send_signal(signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    start = time.perf_counter()
    child = subprocess.Popen(command)
    _write(result_path, {"pid": child.pid, "start": start})
    _, status, ru = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    _write(result_path, {"pid": child.pid, "start": start, "wall_s": wall,
                         "code": child.returncode, "maxrss_kib": ru.ru_maxrss,
                         "cpu_s": ru.ru_utime + ru.ru_stime})


if __name__ == "__main__":
    main()
