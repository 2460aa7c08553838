#!/usr/bin/env python3
"""Builds the slin benchmark from source (once per checkout) and runs it.

Usage, from the root of a checkout:

    python3 slinbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build lives in .bench_build/slinbench; build output goes to stderr so
the benchmark's last stdout line stays its JSON result. The traced run
writes its spans to .bench_build/spans/<workload>.spans.tsv.
"""

import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "slinbench")
BINARY = os.path.join(BUILD, "slinbench")


def fail(message):
    sys.stderr.write("slinbench: %s\n" % message)
    sys.exit(2)


def source_id():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds from."""
    # Only a checkout that is itself a repository asks git (git would
    # otherwise look for one in the directories above the checkout).
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "slinbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".h", ".cpp", ".txt")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return "src:" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "Service.h")):
        fail("the program's sources (src/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "slinbench", "-j", jobs],
            stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except subprocess.CalledProcessError as error:
        fail("build failed: %s" % error)
    spans = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans, exist_ok=True)
    command = [BINARY] + sys.argv[1:] + [
        "--span-dir", spans, "--source", source_id()]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
