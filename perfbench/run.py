#!/usr/bin/env python3
"""Build and run the PSA-flow benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

    python3 perfbench/run.py --check-repeat [--seed N] [--seconds S]

Run from the root of a checkout of the repository.  Builds the benchmark
executable with dune (first run only takes long), runs it and passes its
output through; the last line of stdout is the result JSON.  Exits
non-zero, without a result, when the checkout or the build is missing.

--check-repeat runs the traced pass of cold_designs twice with one seed
and fails unless the deterministic per-layer counters repeat exactly.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "psabench.exe")
TIMEOUT_S = 170

# Per-layer metrics of cold_designs that count work rather than time it.
EXACT = ["interp.runs_per_req", "interp.mcycles_per_req", "dse.simulate_calls_per_req",
         "dse.candidates_per_req", "surrogate.predictions_per_req", "surrogate.fallbacks_per_req",
         "core.tasks_per_req", "codegen.designs_per_req"]


def run(args, env, capture=False):
    proc = subprocess.Popen([EXE] + args, env=env, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: timed out after %d s\n" % TIMEOUT_S)
        return 1, None
    return proc.returncode, out


def check_repeat(argv, env):
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "1"
    seconds = argv[argv.index("--seconds") + 1] if "--seconds" in argv else "20"
    runs = []
    for _ in range(2):
        rc, out = run(["--workload", "cold_designs", "--seed", seed, "--seconds", seconds, "--trace", "1"],
                      env, capture=True)
        result = json.loads(out.decode().strip().splitlines()[-1]) if rc == 0 and out else None
        if result is None or not result["correct"]:
            sys.stderr.write("perfbench: traced run failed\n")
            return 1
        runs.append(result["metrics"])
    names = EXACT + sorted(n for n in runs[0] if n.startswith("memo.") and n.endswith((".hits", ".misses")))
    diffs = [n for n in names if runs[0][n]["value"] != runs[1][n]["value"]]
    for n in names:
        print("%-34s %s %s" % (n, runs[0][n]["value"], runs[1][n]["value"]))
    if diffs:
        print("counters differ between two runs with seed %s: %s" % (seed, ", ".join(diffs)))
        return 1
    print("all %d counters repeat exactly" % len(names))
    return 0


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root (dune-project and lib/ not found)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/psabench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    if "--check-repeat" in sys.argv:
        return check_repeat(sys.argv, env)
    return run(sys.argv[1:], env)[0]


if __name__ == "__main__":
    sys.exit(main())
