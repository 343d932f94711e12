#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository.  It builds
perfbench/main.exe with dune (release profile, build output under
_build/), then runs it with the same arguments.  The program prints
what it measures and ends its standard output with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Untraced runs get the OCaml runtime's default settings.  Traced runs
(--trace 1) start the runtime's event ring: it is sized with
OCAMLRUNPARAM=e=18 so that a call's GC events fit between two reads,
and placed in perfbench/out/; the runtime removes it on exit.

Exit status: 0 when a result was printed, 1 when the build or the
program failed, 2 on bad arguments or when the current directory is
not a checkout of the repository.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["check-ra", "chaos-partition", "load-ra-1k", "synth-cegis"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = os.path.join("perfbench", "out")


def dune_command():
    """The dune executable, or dune through opam when it is not on PATH."""
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 1

    build = dune + ["build", "--root", ".", "--profile", "release",
                    "-j", "2", "./perfbench/main.exe"]
    try:
        # build output goes to stderr: stdout ends with the result line
        built = subprocess.run(build, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0 or not os.path.isfile(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    for var in ("OCAMLRUNPARAM", "OCAML_RUNTIME_EVENTS_START",
                "OCAML_RUNTIME_EVENTS_PRESERVE"):
        env.pop(var, None)
    if args.trace == "1":
        env["OCAMLRUNPARAM"] = "e=18"
        env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(OUT_DIR)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        ran = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return 0 if ran.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
