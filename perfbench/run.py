#!/usr/bin/env python3
"""Repo benchmark runner.

Run from the repo root:

    python3 perfbench/run.py --workload dysim-amazon --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --selftest

Compiles the repo's main sources together with the benchmark (its own sbt
project in perfbench/) once per source state, then launches plain JVMs on
the prebuilt classpath, so sbt start-up and compilation stay out of every
measurement. An untraced run takes two: one builds the instances on Spark,
the other times the selection on them. Build outputs, Spark scratch space,
the instances and trace files go under .bench_build/ in the repo root. The last line of standard output is the
result JSON; it is printed only after its metric names and units have been
checked against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

START = time.monotonic()
ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_build")
HEAP = "2g"
# The selection JVM compiles with C2 only and in the foreground, so the
# machine code a run measures does not depend on when background compiler
# threads got to it (without this, the same selection on the same inputs
# took up to 40% longer in one JVM than in another on an otherwise idle
# 4-vCPU host), and it collects garbage on its own thread with a fixed heap.
SELECT_FLAGS = ["-Xbatch", "-XX:-TieredCompilation", "-XX:+UseSerialGC", "-Xms" + HEAP]
# Spark needs these on JDK 17 (spark-submit adds them itself).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]
SBT_OFFLINE = ("-Dsbt.override.build.repos=true -Dsbt.repository.config=%s/.sbt/repositories "
               "-Dsbt.offline=true -Xmx2g" % os.path.expanduser("~"))


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src")]
    files = [os.path.join(ROOT, "src", "test", "scala", "repro", "TestInstances.scala"),
             os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, limit, **kw):
    """Runs cmd to completion or kills it at `limit` seconds from start-up."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=max(1.0, limit - (time.monotonic() - START)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out" % cmd[0])
    return proc.returncode, out


def build():
    """Returns the classpath, compiling only when a source changed."""
    digest = source_hash()
    stamp = os.path.join(WORK, "classpath.json")
    if os.path.exists(stamp):
        with open(stamp) as fh:
            cached = json.load(fh)
        if cached.get("sources") == digest:
            return cached["classpath"], digest
    if shutil.which("sbt") is None:
        fail("sbt not found")
    env = dict(os.environ, COURSIER_MODE="offline")
    env.setdefault("SBT_OPTS", SBT_OFFLINE)
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        840, cwd=BENCH, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out[-4000:])
        fail("build failed")
    os.makedirs(WORK, exist_ok=True)
    with open(stamp, "w") as fh:
        json.dump({"sources": digest, "classpath": lines[-1]}, fh)
    return lines[-1], digest


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def java_cmd(classpath, args, flags=()):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return ([java, "-Xmx" + HEAP, "-Djava.io.tmpdir=" + tmp, "-Dperfbench.work=" + WORK] + list(flags) +
            ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in OPENS] +
            ["-cp", classpath, "perfbench.Main"] + args)


def check_result(res, expected):
    """Problems with the parsed result line, as a list of strings."""
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys differ from correct/attempted/failed/metrics"]
    problems = []
    if not isinstance(res["correct"], bool):
        problems.append("correct is not a boolean")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1 and isinstance(res["failed"], int)):
        problems.append("attempted/failed are not counts")
    got = res["metrics"]
    if set(got) != set(expected):
        problems.append("metric names differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    for name, m in got.items():
        if name in expected and m.get("unit") != expected[name]:
            problems.append("unit of %s is %s, declared %s" % (name, m.get("unit"), expected[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append("value of %s is not a finite number" % name)
    return problems


def selftest():
    classpath, _ = build()
    code, out = run_bounded(java_cmd(classpath, ["--selftest"]), 170, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    code2, listed = run_bounded(java_cmd(classpath, ["--list-metrics"]), 170, stdout=subprocess.PIPE, text=True)
    e2e, layer, _ = declared()
    emitted = {"end_to_end": {}, "per_layer": {}}
    for l in listed.split("\n"):
        if l.strip():
            kind, name, unit = l.split()
            emitted[kind][name] = unit
    names_ok = emitted["end_to_end"] == e2e and emitted["per_layer"] == layer
    print("metric names and units %s BENCHMARK.json" % ("match" if names_ok else "DIFFER from"))
    if code != 0 or code2 != 0 or not names_ok:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("run from the repo root: src/main/scala/repro is missing", 2)
    if a.selftest:
        return selftest()
    e2e, layer, workloads = declared()
    if a.workload not in workloads:
        fail("unknown workload %r; declared: %s" % (a.workload, ", ".join(workloads)), 2)
    classpath, digest = build()
    sha = "src-" + digest[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    # the first run in a checkout also compiles; every other run ends within 180 s
    limit = 880 if time.monotonic() - START > 60 else 175
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--sha", sha]
    if a.trace:
        trace_out = os.path.join(WORK, "traces", "%s-seed%d.json" % (a.workload, a.seed))
        out, res = run_java(classpath, common + ["--trace", "1", "--trace-out", trace_out], limit)
    else:
        # two processes: Spark builds the instances, then a JVM that never
        # ran Spark times the selection on them
        instances = os.path.join(WORK, "instances", "%s-seed%d-%d.bin" % (a.workload, a.seed, os.getpid()))
        os.makedirs(os.path.dirname(instances), exist_ok=True)
        try:
            out1, res1 = run_java(classpath, common + ["--phase", "setup", "--instances", instances], limit)
            out2, res2 = run_java(classpath, common + ["--phase", "select", "--instances", instances], limit, SELECT_FLAGS)
        finally:
            if os.path.exists(instances):
                os.remove(instances)
        out = out1 + out2
        res = {"correct": res1["correct"] and res2["correct"], "attempted": res1["attempted"] + res2["attempted"],
               "failed": res1["failed"] + res2["failed"], "metrics": dict(res1["metrics"], **res2["metrics"])}
    problems = check_result(res, layer if a.trace else e2e)
    if problems:
        sys.stderr.write("\n".join(out)[-4000:])
        fail("; ".join(problems))
    sys.stdout.write("\n".join(out + [json.dumps(res)]) + "\n")


def run_java(classpath, args, limit, flags=()):
    """Runs perfbench.Main; returns its output lines before the result and the parsed result."""
    code, out = run_bounded(java_cmd(classpath, args, flags), limit, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail("benchmark exited with code %d" % code)
    try:
        res = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out[-4000:])
        fail("last line is not JSON")
    return lines[:-1], res


if __name__ == "__main__":
    main()
