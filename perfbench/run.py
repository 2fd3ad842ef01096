#!/usr/bin/env python3
"""Run one workload of the analyst-session benchmark.

    python3 perfbench/run.py --workload charts --seed 1 --seconds 8 --trace 0

Run it from the repository root. On first use it builds the program and the
benchmark from source with sbt (perfbench/build.sbt depends on the root
build), then runs perfbench.Main in a JVM of its own: with --trace 1 the JVM
carries the benchmark's tracing agent. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Workloads, metrics and their rationale are in perfbench/README.md.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
STAMP = os.path.join(TARGET, "bench-build.json")
HEAP = "3g"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840

# Module opens Spark 4 needs on Java 17, as in the root build.sbt.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sources_digest():
    """Digest of every input of the build, so an edited tree is rebuilt."""
    h = hashlib.sha256()
    roots = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
             "perfbench/project", "perfbench/src"]
    for r in roots:
        path = os.path.join(ROOT, r)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile with sbt unless the stamp matches the sources; return (classpath, agent jar)."""
    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the program's sources (build.sbt, src/) are not beside perfbench/; run from the repository root")
    digest = sources_digest()
    if os.path.isfile(STAMP):
        with open(STAMP) as fh:
            stamp = json.load(fh)
        if stamp.get("digest") == digest:
            return stamp["classpath"], stamp["agent"]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.offline=true", "compile", "package", "export Runtime/fullClasspath"]
    print("perfbench: building with sbt", file=sys.stderr)
    try:
        out = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S, text=True)
    except FileNotFoundError:
        fail("sbt is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:])
        fail("build failed")
    lines = [l for l in out.stdout.splitlines() if ".jar" in l and os.pathsep in l and not l.startswith("[")]
    jars = glob.glob(os.path.join(TARGET, "scala-*", "perfbench_*.jar"))
    if not lines or len(jars) != 1:
        sys.stderr.write(out.stdout[-4000:])
        fail("build did not report a classpath and one benchmark jar")
    with open(STAMP, "w") as fh:
        json.dump({"digest": digest, "classpath": lines[-1].strip(), "agent": jars[0]}, fh)
    return lines[-1].strip(), jars[0]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    classpath, agent = build()
    work = os.path.join(TARGET, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    # The parallel collector: G1's concurrent threads compete with Spark's
    # nproc task threads, and its runs take twice as many passes to settle.
    cmd = ["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseParallelGC", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + work, "-Dspark.local.dir=" + work,
           "-Dfile.encoding=UTF-8",
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-Djdk.reflect.useDirectMethodHandle=false"]
    cmd += ["--add-opens=%s=ALL-UNNAMED" % p for p in OPENS]
    if a.trace:
        cmd.append("-javaagent:" + agent)
    cmd += ["-cp", classpath, "perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace), "--git-sha", git_sha()]
    env = dict(os.environ, SPARK_LOCAL_IP="127.0.0.1", SPARK_LOCAL_HOSTNAME="localhost",
               SPARK_LOCAL_DIRS=work)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stdout.write(out if proc.returncode == 0 else "")
        sys.stderr.write(out[-4000:] if proc.returncode != 0 else "")
        fail("benchmark exited with %d and no result" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
