#!/usr/bin/env python3
"""Build and run the repository benchmark (documented in README.md).

    python3 perfbench/run.py --workload routed-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds the benchmark executable and
the shangfortes CLI it drives with dune, then replaces itself with the
benchmark, so signals reach it directly.  Exits non-zero without a
result when the build fails, e.g. outside a full checkout.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
CLI = "_build/default/bin/shangfortes.exe"


def git_rev():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """md5 over the sources the benchmark measures, for checkouts without git."""
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".c", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def main():
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    # The shared dune cache lives outside the checkout; build without it.
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe", "./bin/shangfortes.exe"],
        stdout=sys.stderr,
        stdin=subprocess.DEVNULL,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        timeout=850,
    )
    if build.returncode != 0 or not os.path.exists(BENCH) or not os.path.exists(CLI):
        sys.exit("perfbench: build failed")
    args = sys.argv[1:] + [
        "--cli", CLI,
        "--golden", "perfbench/golden",
        "--work-dir", ".perfbench-run",
        "--git-rev", git_rev(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    os.execv(BENCH, [BENCH] + args)


if __name__ == "__main__":
    main()
