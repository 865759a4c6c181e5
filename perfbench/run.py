#!/usr/bin/env python3
"""End-to-end benchmark of the sssw simulator (see perfbench/README.md).

One run of one workload, result as the last line of standard output:

    python3 perfbench/run.py --workload converge --seed 1 --seconds 30 --trace 0

Steadiness mode: every workload repeated over consecutive seeds, with the
median, quartiles and spread of each end-to-end metric:

    python3 perfbench/run.py --steadiness 10 [--sets 2] [--workloads a,b]

The script builds the benchmark (an optimised CMake build of perfbench/ and
the simulator sources in src/) into .bench_build/perfbench, runs the clock
self-test, then runs the sssw_e2e binary.  It only reads and writes inside
the checkout it is run from.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["converge", "steady_sharded", "lookup_crash"]
BASE_SEED = 20120521  # the repository's bench::kBaseSeed
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, cwd=ROOT)
    return BUILD


def provenance_sha():
    """The git commit when run in a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def clock_test(bindir):
    done = subprocess.run([os.path.join(bindir, "clock_test")], capture_output=True,
                          text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError("clock self-test failed:\n" + done.stdout + done.stderr)


def run_one(bindir, workload, seed, seconds, trace, sha):
    """Runs one workload; returns (stdout text, parsed result or None, exit code)."""
    cmd = [os.path.join(bindir, "sssw_e2e"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--git-sha", sha]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, "%s-%d.jsonl" % (workload, seed))]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return done.stdout, result, done.returncode


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(bindir, args, sha):
    """Repeats every workload over seeds and prints each metric's spread."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    bounds = {}
    if os.path.isfile(spec_path):
        with open(spec_path) as handle:
            bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seeds = [args.seed + i for i in range(args.steadiness)]
    record = {}
    ok = True
    for workload in workloads:
        sets = []
        for set_index in range(args.sets):
            runs = []
            for seed in seeds:
                out, result, code = run_one(bindir, workload, seed, args.seconds, 0, sha)
                if result is None or not result["correct"]:
                    log(out)
                    log("%s seed %d: run failed (exit %d)" % (workload, seed, code))
                    ok = False
                    continue
                digest = [l for l in out.splitlines() if l.startswith("  first instance")]
                runs.append({"seed": seed, "result": result, "digest": digest})
                log("%s set %d seed %d: %s" % (workload, set_index + 1, seed, " ".join(
                    "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))
            sets.append(runs)
        record[workload] = sets

        print("== %s: %d seeds x %d set(s), --seconds %s" %
              (workload, len(seeds), args.sets, args.seconds))
        print("%-20s %-6s %14s %14s %14s %8s %8s %s" %
              ("metric", "set", "q1", "median", "q3", "spread", "bound", "flag"))
        medians = {}
        for set_index, runs in enumerate(sets):
            if not runs:
                continue
            for name in runs[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                bound = bounds.get(name)
                flags = []
                if spread > 0.1:
                    flags.append("SPREAD>0.1")
                if bound is not None and name != "setup_s" and spread > bound / 3:
                    flags.append("SPREAD>BOUND/3")
                print("%-20s %-6d %14.6g %14.6g %14.6g %8.4f %8s %s" %
                      (name, set_index + 1, q1, q2, q3, spread,
                       "-" if bound is None else bound, " ".join(flags)))
                medians.setdefault(name, []).append(q2)
        if len(sets) > 1 and all(sets):
            for name, values in medians.items():
                drift = (values[1] - values[0]) / values[0] if values[0] else 0.0
                print("%-20s A/A median drift %+.4f" % (name, drift))
            same = all(a["digest"] == b["digest"] and a["result"]["attempted"] ==
                       b["result"]["attempted"] and a["result"]["failed"] ==
                       b["result"]["failed"] and all(
                           a["result"]["metrics"][k]["value"] ==
                           b["result"]["metrics"][k]["value"]
                           for k in a["result"]["metrics"] if k.startswith("lookup_"))
                       for a, b in zip(sets[0], sets[1]))
            print("exact counts identical across sets: %s" % ("yes" if same else "NO"))
            ok = ok and same
        sys.stdout.flush()
    out_path = os.path.join(ROOT, ".bench_build", "steadiness.json")
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=1)
    log("raw results: %s" % out_path)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="repeat each workload over N consecutive seeds")
    parser.add_argument("--sets", type=int, default=1,
                        help="steadiness: run the seeds this many times (2 = A/A)")
    parser.add_argument("--workloads", default="",
                        help="steadiness: comma-separated subset of workloads")
    args = parser.parse_args()
    if not args.steadiness and not args.workload:
        parser.error("--workload or --steadiness is required")

    try:
        bindir = build()
        clock_test(bindir)
        sha = provenance_sha()
        if args.steadiness:
            return steadiness(bindir, args, sha)
        out, result, code = run_one(bindir, args.workload, args.seed, args.seconds,
                                    args.trace, sha)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as error:
        log("perfbench: %s" % error)
        return 1
    if result is None:
        log(out)
        log("perfbench: sssw_e2e exited with %d and no result" % code)
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
