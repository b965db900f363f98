#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) in Release mode into
the build directory: $CARGO_TARGET_DIR if set, else .bench_build. Later
calls rebuild only what changed. Build output goes to stderr, so the
last stdout line is the benchmark's JSON result. A traced run writes
its last traced pass as a Chrome trace-event file,
<build dir>/traces/<workload>.json.

--self-test builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig6-detailed", "trace-studies", "fuzz-lockstep")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run(cmd, **kw):
    """Run a child to completion; never leave it behind."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources (src/CMakeLists.txt) to build against")
    out = build_dir()
    # The compiler's temporary files stay inside the build directory.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", out,
                "-DCMAKE_BUILD_TYPE=Release"],
               stdout=sys.stderr, env=env) != 0:
            fail("cmake configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", out, "--target", target, "-j", jobs],
           stdout=sys.stderr, env=env) != 0:
        fail(f"building {target} failed", 1)
    return os.path.join(out, target)


def main():
    # A terminated run still stops and reaps its child (see run()).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        test = build("perfbench_test")
        sys.exit(run([test], cwd=build_dir()))
    if args.workload is None:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if args.seed is not None and args.seed < 0:
        fail("--seed must not be negative")

    binary = build("perfbench")
    out = build_dir()
    cmd = [binary, "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(out, "tmp"),
           "--commit", git_commit()]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    cmd += ["--trace-out",
            os.path.join(out, "traces", f"{args.workload}.json")]
    sys.stdout.flush()
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
