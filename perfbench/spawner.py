"""Runs the benchmark's children one at a time, timed against the host's speed.

    python3 perfbench/spawner.py     # driven by run.Spawner over stdin/stdout

Each request on stdin is one JSON line, ``[stdout file, stderr file, *argv]``.
The spawner starts the child, stops it (SIGSTOP) after every ``PERIOD_S``
seconds of running to take a calibration point while it is stopped, resumes
it (SIGCONT), and takes a last point when it exits.  Each running stretch is
scaled by the mean of the two points around it (see ``calibrate.py``); the
child's CPU time, read once at its end, by the CPU factors averaged over its
stretches.  The answer is one JSON line: exit code, running wall and CPU
time raw and scaled, the child's own peak RSS (from its ``wait4`` rusage)
and the calibration points.

It is a process of its own because Linux starts an exec'ed child's
``ru_maxrss`` at the resident high-water mark of the process that spawned
it: this one stays smaller than any CLI child, the benchmark process does
not.
"""

import json
import os
import select
import signal
import sys
import time

import calibrate

# Running time between two calibration points of one child.  The host's
# speed changes within seconds, so a point only before and after a 20 s
# child misjudges it.
PERIOD_S = 1.0


def run_child(argv, out, err, cal):
    fds = [os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for p in (out, err)]
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_DUP2, fds[0], 1), (os.POSIX_SPAWN_DUP2, fds[1], 2)]
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        for fd in fds:
            os.close(fd)
    first = len(cal.points) - 1
    raw = scaled = cpu_weight = 0.0
    pidfd = os.pidfd_open(pid)
    try:
        while True:
            t0 = time.perf_counter()
            if not select.select([pidfd], [], [], PERIOD_S)[0]:
                os.kill(pid, signal.SIGSTOP)
            _, status, ru = os.wait4(pid, os.WUNTRACED)
            stretch = time.perf_counter() - t0
            k_wall, k_cpu = cal.checkpoint()
            raw += stretch
            scaled += stretch * k_wall
            cpu_weight += stretch * k_cpu
            if not os.WIFSTOPPED(status):
                break
            os.kill(pid, signal.SIGCONT)
    finally:
        os.close(pidfd)
    cpu = ru.ru_utime + ru.ru_stime
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "raw_wall_s": raw,
        "wall_s": scaled,
        "raw_cpu_s": cpu,
        "cpu_s": cpu * cpu_weight / raw,
        "peak_rss_mb": ru.ru_maxrss / 1024,
        "calibration_s": cal.points[first:],
    }


def main():
    cal = calibrate.Calibration()
    cal.checkpoint()
    for line in sys.stdin:
        out, err, *argv = json.loads(line)
        print(json.dumps(run_child(argv, out, err, cal)), flush=True)


if __name__ == "__main__":
    main()
