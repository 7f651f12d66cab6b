#!/usr/bin/env python3
"""Build and run the raidtp host-performance benchmark.

    python3 perfbench/run.py --workload oltp-raw --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn

Run it from the root of the repository. It builds `perfbench` (a Cargo
package of its own, compiled against the repository's crates) in release
mode, then runs it for one workload. The last line of the output is the
result as one JSON object: `correct`, `attempted`, `failed` and `metrics`.
`--trace 1` prints the per-layer metrics instead of the end-to-end ones.

The build honours CARGO_TARGET_DIR. Without the repository's crates next to
this directory the build fails and the script exits with a non-zero code.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oltp-raw", "oltp-cached", "burst-write", "fleet-mixed"]
# Files whose content identifies the measured source when there is no git
# commit to name.
SOURCE_PATHS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", "out"}


def build():
    """Build the benchmark; return the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            exe = msg["executable"]
    if exe is None:
        sys.exit("perfbench: cargo reported no perfbench executable")
    return exe


def output_of(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_id():
    """The git commit, or a digest of the source files outside git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = output_of(["git", "rev-parse", "HEAD"])
        if commit:
            return commit
    h = hashlib.sha256()
    for top in SOURCE_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    facts = ["--rustc", output_of(["rustc", "--version"]) or "unknown",
             "--commit", source_id()]
    code = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [exe, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + facts
        sys.stdout.flush()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, timeout=60 + 3 * args.seconds)
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: {w} did not finish in time")
        code = code or proc.returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
