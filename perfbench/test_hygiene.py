#!/usr/bin/env python3
"""Process-hygiene test of the benchmark (README.md, "Tests").

    python3 test_hygiene.py BENCH_EXE CLI_EXE

1. SIGINT during a serving run: the benchmark exits 130 without a
   result, every daemon it spawned is gone and its run directory is
   removed.
2. SIGKILL during a serving run leaves daemons, sockets and journals
   behind; the next run must still succeed, and must kill the orphans
   and remove the stale directory.
"""

import glob
import os
import signal
import subprocess
import sys
import time

BENCH, CLI = (os.path.abspath(p) for p in sys.argv[1:3])
WORK = os.path.abspath("hygiene-run")


def start(workload, seconds):
    return subprocess.Popen(
        [BENCH, "--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", "0",
         "--cli", CLI, "--work-dir", WORK],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)


def wait_for_daemons(count, timeout=120):
    deadline = time.time() + timeout
    while time.time() < deadline:
        socks = glob.glob(os.path.join(WORK, "*", "*.sock"))
        pids = [int(l) for f in glob.glob(os.path.join(WORK, "*", "pids")) for l in open(f) if l.strip()]
        if len(socks) >= count and len(pids) >= count:
            return pids
        time.sleep(0.05)
    sys.exit("daemons did not come up")


def gone(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().split(")")[-1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def check(cond, what):
    if not cond:
        sys.exit("FAIL: " + what)
    print("ok:", what)


def main():
    subprocess.run(["rm", "-rf", WORK])

    p = start("routed-hot", 60)
    pids = wait_for_daemons(3)
    p.send_signal(signal.SIGINT)
    out, _ = p.communicate(timeout=60)
    check(p.returncode == 130, "SIGINT exits 130")
    check(out.strip() == "", "no result printed after SIGINT")
    check(all(gone(pid) for pid in pids), "every daemon reaped after SIGINT")
    check(not os.path.exists(WORK) or os.listdir(WORK) == [], "run directory removed after SIGINT")

    p = start("routed-hot", 60)
    orphans = wait_for_daemons(3)
    p.kill()
    p.wait()
    stale = glob.glob(os.path.join(WORK, "*"))
    check(len(stale) == 1 and glob.glob(os.path.join(stale[0], "*.sock")), "SIGKILL leaves sockets behind")

    p = start("routed-hot", 1)
    out, _ = p.communicate(timeout=170)
    check(p.returncode == 0 and out.strip().splitlines()[-1].startswith('{"correct":true'),
          "the next run succeeds")
    deadline = time.time() + 10
    while time.time() < deadline and not all(gone(pid) for pid in orphans):
        time.sleep(0.05)
    check(all(gone(pid) for pid in orphans), "the next run kills the orphaned daemons")
    check(not os.path.exists(WORK) or os.listdir(WORK) == [], "the stale run directory is removed")


if __name__ == "__main__":
    main()
