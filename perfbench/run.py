#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness is a Cargo package of its own (perfbench/harness) that builds
against the repository's crates by path. It is built into
$CARGO_TARGET_DIR, or .bench_build at the repository root when that is
unset. Build output goes to stderr; the harness's stdout passes through
unchanged, and its last line is the JSON result. The exit status is the
harness's, or nonzero without a result when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "harness", "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    code = subprocess.run([exe] + sys.argv[1:], cwd=root).returncode
    # A harness killed by a signal reports a negative code; keep it nonzero.
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
