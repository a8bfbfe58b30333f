"""Build and run the campaign benchmark from the root of a checkout.

    python3 campaignbench/run.py --workload detect|compile-run \
        --seed N --seconds S --trace 0|1

Builds campaignbench/main.exe in release profile (the dev profile compiles
with -opaque, which blocks the cross-module inlining the interpreter's hot
loops rely on), then runs it with the same arguments. Build output goes to
stderr; stdout is the benchmark's own, whose last line is the JSON result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write(
                "campaignbench: run from the root of a PathExpander checkout "
                "(no %s here)\n" % needed)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--cache", "disabled", "./campaignbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("campaignbench: build failed\n")
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "campaignbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
