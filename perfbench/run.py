#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as JSON.

Run from the root of a source tree:

    python3 perfbench/run.py --workload bcast-large --seed 1 --seconds 25 --trace 0

The workloads live in perfbench/main.ml.  This wrapper builds that
program with dune, records the environment (nproc, OCaml version,
OCAMLRUNPARAM, git revision), runs the program once, checks that it
printed exactly the metrics BENCHMARK.json names for the mode (the
end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1), and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full result set, environment included, is also written to
.perfbench/result-<workload>-seed<seed>-trace<t>.json.  Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["bcast-large", "elect-maint", "chaos-soak", "trace-query"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = ".perfbench"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def command_output(argv):
    try:
        return subprocess.run(
            argv, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "ocaml_version": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocaml", "-vnum"]),
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM"),
        "git_rev": command_output(["git", "rev-parse", "HEAD"])
        if os.path.isdir(".git")
        else None,
    }


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a futurenet source tree")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./" + EXE[len("_build/default/"):]],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}

    build()
    env = environment()
    print(json.dumps({"env": env}), flush=True)

    os.makedirs(OUT, exist_ok=True)
    run_env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    argv = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT,
    ]
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=run_env,
            timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        fail("run failed: %s" % e)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("run exited with code %d" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("unparsable result line: %r" % lines[-1])

    metrics = raw["metrics"]
    if set(metrics) != names:
        fail(
            "metrics differ from BENCHMARK.json: missing %s, unexpected %s"
            % (sorted(names - set(metrics)), sorted(set(metrics) - names))
        )
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    details = dict(raw, env=env, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace)
    path = os.path.join(
        OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(path, "w") as f:
        json.dump(details, f, indent=1)
    print(json.dumps({k: raw[k] for k in ("counts", "failures")}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
