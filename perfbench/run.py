#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload webquery --seed 1 --seconds 10 --trace 0

The first run in a checkout builds the program and the harness with sbt,
from source, into `.bench_build/`. Later runs reuse that build until a
source file changes. The run itself is one JVM (`perfbench.Main`), which
generates the workload's input from the seed, measures, checks the outputs
and writes its result; this script prints that result as one JSON line.
With `--trace 1` the JVM also writes every span to `.bench_build/trace/`.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BUILD = ".bench_build"
LAUNCH = os.path.join(BUILD, "target", "bench-launch.txt")
STAMP = os.path.join(BUILD, "source-stamp")
# Inputs of the build: the program's sources and build, and the harness.
SOURCES = ["build.sbt", "project", "src/main", "jobs", "perfbench"]
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840
# Driver heap, fixed in size. The serial collector sizes the heap from the
# allocation pattern alone, not from pause-time goals, so the peak RSS of
# one input repeats from run to run (within 2 %, against 25 % with G1).
JVM_HEAP = ["-Xms3g", "-Xmx3g", "-XX:+UseSerialGC"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    for top in SOURCES:
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("target", ".bsp"))
            for f in sorted(files):
                if f.endswith((".scala", ".sbt", ".properties", ".py", ".java")):
                    p = os.path.join(root, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def build(stamp):
    tmp = os.path.abspath(os.path.join(BUILD, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", ""), f"-Djava.io.tmpdir={tmp}",
                                "-XX:-UsePerfData", "-Dsbt.server.autostart=false",
                                "-Dsbt.supershell=false"])
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "benchExport"]
    try:
        r = subprocess.run(cmd, cwd="perfbench", env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(LAUNCH):
        fail("build failed")
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def expected_metrics(trace):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for need in ("BENCHMARK.json", "build.sbt", "src/main/scala"):
        if not os.path.exists(need):
            fail(f"run from the root of a checkout: {need} is missing")
    expected = expected_metrics(a.trace)

    start = time.monotonic()
    stamp = source_stamp()
    old = open(STAMP).read() if os.path.exists(STAMP) else None
    if old != stamp or not os.path.exists(LAUNCH):
        build(stamp)
    with open(LAUNCH) as fh:
        classpath, *jvm_opts = fh.read().split("\n")
    jvm_opts = [o for o in jvm_opts if o]

    tmp = os.path.abspath(os.path.join(BUILD, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    tag = f"{a.workload}-{a.seed}-{os.getpid()}"
    result = os.path.join(BUILD, "results", tag + ".json")
    trace = os.path.join(BUILD, "trace", tag + ".jsonl")
    cmd = (["java"] + JVM_HEAP + [f"-Djava.io.tmpdir={tmp}", "-XX:-UsePerfData",
            "-Dlog4j.configurationFile=perfbench/log4j2.properties"] + jvm_opts +
           ["-cp", classpath, "perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--result", result, "--trace-file", trace])
    limit = max(30, RUN_LIMIT_S - (time.monotonic() - start)) if old == stamp else RUN_LIMIT_S
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=limit)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {limit:.0f} s")
    if r.returncode != 0 or not os.path.exists(result):
        fail(f"run failed with exit code {r.returncode}")
    with open(result) as fh:
        out = json.load(fh)
    os.remove(result)

    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if out["correct"] and got != expected:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(expected.items())}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
