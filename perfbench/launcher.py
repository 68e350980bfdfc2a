"""Spawns Python processes and reports each one's exit, latency and max-RSS.

It runs as a small process of its own because on Linux a child's max-RSS
starts at its parent's high-water mark: spawned from the benchmark process,
which builds references and traces in-process, every CLI child would report
at least the benchmark's own peak.  One JSON request per stdin line,
{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}, where
argv follows the interpreter (`-m paracount.cli ...` for a CLI run,
`perfbench/hostref.py` for the host reference); one
JSON reply per stdout line, {"code": exit code or null after a timeout,
"latency_s": spawn to exit, "rss_mb": max-RSS in MiB}.
"""
import json
import os
import signal
import sys
import time

running = None  # pid of the CLI process being waited for


def expire(signum, frame):
    if running is not None:
        try:
            os.kill(running, signal.SIGKILL)
        except ProcessLookupError:  # it exited just before the timer fired
            pass


def main() -> None:
    global running
    signal.signal(signal.SIGALRM, expire)
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], create, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], create, 0o644),
        ]
        argv = [sys.executable, *request["argv"]]
        start = time.perf_counter()
        running = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        _, status, usage = os.wait4(running, 0)
        latency = time.perf_counter() - start
        running = None
        signal.setitimer(signal.ITIMER_REAL, 0)
        code = os.waitstatus_to_exitcode(status)
        if code == -signal.SIGKILL and latency >= request["timeout"]:
            code = None
        reply = {"code": code, "latency_s": latency, "rss_mb": usage.ru_maxrss / 1024}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
