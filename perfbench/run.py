#!/usr/bin/env python3
"""End-to-end benchmark of csrlcheck.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the csrlcheck library from
src/ plus the benchmark binary) into .bench_build/perfbench; later calls only
re-check that build.  Build output goes to standard error, so the last line of
standard output is the binary's JSON result.  The library's CSRL_* environment
switches are cleared for the measured process, so a stray CSRL_TRACE or
CSRL_THREADS in the caller's environment cannot change what is measured.

--self-test checks the benchmark itself (see README.md): every workload
answers correctly, a wrong reference drives ok_ratio below 1, traced runs at
1 and 2 threads exit 0 with every per-layer metric, the declared
deterministic counts repeat exactly, and no request class breaks the cost
guard.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "csrl_perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/CMakeLists.txt next to perfbench/; "
            "run from a full checkout")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "csrl_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            log("perfbench: build step timed out: " + " ".join(step))
            return False
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CSRL_")}


def run_binary(args, capture=False):
    """Run the benchmark binary with `args`; returns (exit code, stdout or None)."""
    try:
        done = subprocess.run([BINARY] + args, env=clean_env(), cwd=ROOT,
                              stdout=subprocess.PIPE if capture else None,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark binary timed out: " + " ".join(args))
        return 1, None
    return done.returncode, done.stdout


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

WORKLOADS = ["p3_engines", "fig1_surface", "service_waves"]


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def result_of(args):
    code, out = run_binary(args, capture=True)
    if code != 0 or not out:
        raise AssertionError(f"benchmark binary exited {code}: {' '.join(args)}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), lines


def expect(condition, message):
    if not condition:
        raise AssertionError(message)
    log("  ok   " + message)


def self_test():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    declared = load_json(os.path.join(HERE, "deterministic_counts.json"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in declared["counts"]:
        expect(name in per_layer, f"declared count {name} is a per_layer metric")

    for workload in WORKLOADS:
        log(f"[{workload}]")
        base = ["--workload", workload, "--seed", "7", "--seconds", "1"]

        result, lines = result_of(base + ["--trace", "0"])
        metrics = result["metrics"]
        expect(set(metrics) == set(end_to_end),
               f"{workload}: untraced run reports every end_to_end metric")
        expect(all(metrics[k]["unit"] == u for k, u in end_to_end.items()),
               f"{workload}: end_to_end units match BENCHMARK.json")
        expect(result["correct"] and metrics["ok_ratio"]["value"] == 1.0,
               f"{workload}: ok_ratio is 1 on the unchanged library")
        ratio = [float(line.split("=")[1]) for line in lines
                 if line.startswith("cost-guard max_class_ratio=")]
        expect(ratio and ratio[0] <= 10.0,
               f"{workload}: no request class costs more than 10x the median "
               f"(max {ratio[0] if ratio else 'missing'})")

        result, _ = result_of(base + ["--trace", "0", "--inject-wrong-reference"])
        expect(not result["correct"] and result["metrics"]["ok_ratio"]["value"] < 1.0,
               f"{workload}: a wrong reference drives ok_ratio below 1")

        for threads in ("1", "2"):
            runs = []
            for _ in range(2):
                result, _ = result_of(base + ["--trace", "1", "--threads", threads])
                metrics = result["metrics"]
                expect(set(metrics) == set(per_layer) and result["correct"],
                       f"{workload}: traced run at {threads} thread(s) exits 0 "
                       f"with every per_layer metric")
                runs.append({k: metrics[k]["value"] for k in declared["counts"]})
            expect(runs[0] == runs[1],
                   f"{workload}: declared counts repeat exactly across two "
                   f"traced runs at {threads} thread(s)")
    log("self-test passed")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        if not build():
            return 1
        try:
            return self_test()
        except (AssertionError, OSError, ValueError, KeyError) as error:
            log(f"self-test FAILED: {error}")
            return 1
    if not build():
        return 1
    code, _ = run_binary(argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
