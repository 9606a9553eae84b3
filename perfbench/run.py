#!/usr/bin/env python3
"""Builds pi3d and the benchmark binary from source, then runs one workload.

    python3 perfbench/run.py --workload <coopt-sweep|policy-sim|serve-mix> \
        --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); sockets, logs and traces go to `.bench_run`.
The last line of stdout is the run's result object.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = pathlib.Path(__file__).resolve().parent


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for manifest, package in ((ROOT / "Cargo.toml", "pi3d-cli"),
                              (BENCH / "Cargo.toml", "pi3d-perfbench")):
        if not manifest.is_file():
            sys.exit(f"run.py: {manifest} missing; run from the root of a pi3d checkout")
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(manifest), "-p", package],
            env=env, stdout=sys.stderr, check=True)


def revision():
    """The git commit when there is one, and a hash of the sources always."""
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for tree in (ROOT / "crates", BENCH / "src"):
        sources += sorted(p for p in tree.rglob("*") if p.suffix in (".rs", ".toml"))
    for path in sources:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or "none"
    return f"git:{commit} src:{digest.hexdigest()[:16]}"


def workload(argv):
    return argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else None


def main():
    target_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(target_dir)
    except subprocess.CalledProcessError as e:
        sys.exit(f"run.py: build failed ({e})")
    release = target_dir / "release"
    # The run directory stays relative to the checkout root (the working
    # directory of the benchmark and of the daemons it spawns): unix socket
    # paths are limited to about 100 bytes, however deep the checkout is.
    cmd = [str(release / "perfbench"), *sys.argv[1:],
           "--pi3d", str(release / "pi3d"),
           "--run-dir", ".bench_run",
           "--revision", revision()]
    if workload(sys.argv[1:]) == "serve-mix":
        # One request is in flight at a time, so the client and the daemon
        # take turns. On one core they hand requests and responses to each
        # other without waking an idle vCPU, which a busy host can take
        # milliseconds to run again.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
