#!/usr/bin/env python3
"""Run one workload of the XomatiQ benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It builds the benchmark and the
xomatiq CLI from source with dune (build directory: $CARGO_TARGET_DIR,
default .bench_build; dune's shared cache off), then runs
perfbench/bench.exe, whose last line of standard output is the JSON
result. Build output goes to standard error. Everything the run writes
stays under the build directory and .perfbench/.
"""

import hashlib
import os
import signal
import subprocess
import sys


def revision():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ["dune-project", "bin", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run(argv, **kwargs):
    """Run argv to its end and return its exit code. A SIGTERM or SIGINT
    to this script goes on to it (bench.exe then stops its servers), and
    the script still waits for it."""
    child = subprocess.Popen(argv, **kwargs)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("bin", "xomatiq_cli.ml"))):
        print("run.py: run from the root of a XomatiQ source tree", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "./perfbench/bench.exe", "./bin/xomatiq_cli.exe"],
        stdout=sys.stderr, env=dict(os.environ, DUNE_CACHE="disabled"))
    if build != 0:
        print("run.py: build failed", file=sys.stderr)
        return build
    out = os.path.join(build_dir, "default")
    tmp = os.path.abspath(os.path.join(".perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return run(
        [os.path.join(out, "perfbench", "bench.exe")] + sys.argv[1:]
        + ["--cli", os.path.join(out, "bin", "xomatiq_cli.exe"),
           "--rev", revision()],
        env=dict(os.environ, TMPDIR=tmp))


if __name__ == "__main__":
    sys.exit(main())
