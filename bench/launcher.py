"""Helper process that starts the benchmark's commands, one at a time.

Usage: python bench/launcher.py   (started by bench/run.py, which talks to it)

Each line on stdin is a JSON request ``{"argv": [...], "stdout": PATH,
"timeout": SECONDS}``. The command runs with its stdout in PATH and its
stderr in PATH + ".err", and is killed if it is still running after
``timeout`` seconds. The answer is one JSON line on stdout:
``{"code", "wall_s", "cpu_s", "max_rss_kb"}``, where wall time runs from
spawn to exit and CPU time and peak RSS come from that command's own
``wait4`` rusage. The helper exits at the end of stdin.

Commands start here rather than in the benchmark process because on Linux a
child's ``ru_maxrss`` is at least the resident size of the process it was
spawned from, and the benchmark grows as it parses outputs to check them.
This process imports almost nothing and stays smaller than any command.
"""

import json
import os
import select
import signal
import sys
import time


def spawn(argv: list, stdout: str, timeout: float) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stdout + ".err", flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited = select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        result = spawn(request["argv"], request["stdout"], request["timeout"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
