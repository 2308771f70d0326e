#!/usr/bin/env python3
"""Build the ASCP benchmark and run one workload, or all three.

    python3 perfbench/run.py --workload fault_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. The benchmark package (perfbench/Cargo.toml)
is built in release mode into $CARGO_TARGET_DIR (default perfbench/target),
then its binary runs the workload. For one workload, the binary's output
passes through unchanged: the last line of standard output is the JSON
result. With --workload all, each workload runs in its own process and a
table of the end-to-end metrics is printed, and the exit code is 0 only
when every workload completed and passed its acceptance checks.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fault_sweep", "montecarlo", "characterize"]


def build():
    """Builds the benchmark; returns the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--message-format=json-render-diagnostics",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py: benchmark build failed ({proc.returncode})")
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            return msg["executable"]
    sys.exit("run.py: the build produced no executable")


def tool_version(cmd):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True).stdout.strip()
        return out or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def manifest_env():
    """Toolchain and revision for the run manifest."""
    env = dict(os.environ)
    env["PERFBENCH_RUSTC"] = tool_version(["rustc", "--version"])
    in_git = os.path.isdir(os.path.join(HERE, "..", ".git"))
    env["PERFBENCH_GIT_REV"] = (
        tool_version(["git", "-C", HERE, "rev-parse", "HEAD"]) if in_git else "unknown")
    return env


def option(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def without(args, *flags):
    """`args` with each of `flags` and its value removed."""
    out, it = [], iter(args)
    for a in it:
        if a in flags:
            next(it, None)
        else:
            out.append(a)
    return out


def run_all(exe, args, env):
    """Runs every workload's timed run in its own process; prints a table."""
    rest = without(args, "--workload", "--trace")
    rows = []
    for w in WORKLOADS:
        proc = subprocess.run([exe, "--workload", w, "--trace", "0"] + rest,
                              stdout=subprocess.PIPE, text=True, env=env)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        ok = proc.returncode == 0 and lines
        rows.append((w, json.loads(lines[-1]) if ok else None))
    print()
    print(f"{'workload':<14}{'setup_s':>16}{'wall_s':>12}{'peak_rss_mb':>14}{'fail_frac':>16}")
    for w, r in rows:
        if r is None:
            print(f"{w:<14}{'error':>16}")
            continue
        m = r["metrics"]
        print(f"{w:<14}{m['setup_s']['value']:>14.6f} s{m['wall_s']['value']:>10.3f} s"
              f"{m['peak_rss_mb']['value']:>10.1f} MiB"
              f"{r['failed'] / r['attempted']:>10.3f} ratio")
    return 0 if all(r is not None and r["correct"] for _, r in rows) else 1


def main():
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(HERE, "out")]
    exe = build()
    env = manifest_env()
    if option(args, "--workload", None) == "all":
        sys.exit(run_all(exe, args, env))
    sys.exit(subprocess.run([exe] + args, env=env).returncode)


if __name__ == "__main__":
    main()
