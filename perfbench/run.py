#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

Builds perfbench/bench.exe from the checkout with dune, runs it, checks
that its result names exactly the metrics BENCHMARK.json declares, and
prints that result as the last line of standard output.

    python3 perfbench/run.py --workload served-isopt --seed 42 --seconds 45 --trace 0

Counters, spans and temporary files go to .perfbench/ in the checkout.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def stop_group(pgid):
    """Kill whatever is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(cmd, env, timeout, stdout):
    """Run cmd in its own process group, which is emptied afterwards."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        die("%s timed out after %d s" % (cmd[0], timeout))
    stop_group(proc.pid)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no program sources here to build (dune-project, lib/)")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        die("neither dune nor opam is on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(dune + ["build", "--root", ".", "./perfbench/bench.exe"],
                  env, 840, sys.stderr)
    if code != 0:
        die("build failed")

    tmp = os.path.join(ROOT, OUT, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env["TMPDIR"] = tmp
    try:
        code, out = run([EXE, "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)],
                        env, 170, subprocess.PIPE)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.decode().splitlines()
    if code != 0 or not lines:
        die("bench.exe exited with code %d" % code)
    result = json.loads(lines[-1])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        die("metrics %s do not match BENCHMARK.json %s" % (got, want))
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
