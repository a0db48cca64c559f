#!/usr/bin/env python3
"""Repository benchmark: flow extraction, flow solving and pattern search.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run compiles the program's sources
(src/main/scala) together with the benchmark's own (perfbench/src) with sbt,
offline, into .bench_build/; later runs reuse that build while no source
changed. The JVM then runs one workload and prints a human-readable table
followed, as the last line of standard output, by the result as one JSON
object. The full result (config, every metric with its sample count,
failures and, with --trace 1, the spans) is written to
.bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")

# Module opens that spark-submit passes to the JVM; Spark fails without them
# on JDK 17.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]
HEAP = "2g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
FIRST_RUN_TIMEOUT_S = 890


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_files():
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, fs in os.walk(r):
            files += [os.path.join(d, f) for f in fs if f.endswith((".scala", ".java", ".properties"))]
    return sorted(files)


def fingerprint(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


CHILDREN = []


def spawn(cmd, **kw):
    """Start `cmd` in its own process group, killed if this script is terminated."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    CHILDREN.append(proc)
    return proc


def on_signal(signum, _frame):
    for proc in CHILDREN:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.exit(128 + signum)


def run_to_end(cmd, timeout, **kw):
    """Run `cmd` in its own process group; on timeout kill the group and wait."""
    proc = spawn(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def spark_jars():
    """Spark's jar directory: $SPARK_HOME/jars, else the one the root build.sbt names."""
    if os.environ.get("SPARK_HOME"):
        return os.path.join(os.environ["SPARK_HOME"], "jars")
    with open(os.path.join(ROOT, "build.sbt")) as fh:
        m = re.search(r'sparkJars\s*=\s*file\("([^"]+)"\)', fh.read())
    if not m:
        sys.exit("perfbench: set SPARK_HOME to the Spark distribution")
    return m.group(1)


def build():
    """Compile with sbt unless the build matches the sources; returns (classpath, hash, built)."""
    files = source_files()
    digest = fingerprint(files)
    cp_file = os.path.join(BUILD, "sbt-target", "classpath.txt")
    stamp = os.path.join(BUILD, "build.stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp) and open(stamp).read() == digest:
        return open(cp_file).read().strip(), digest, False
    log(f"building (source hash {digest})")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["PERFBENCH_SPARK_JARS"] = spark_jars()
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true -Xmx2g").strip()
    t0 = time.time()
    code = run_to_end(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(cp_file):
        sys.exit(f"perfbench: build failed (exit {code})")
    with open(stamp, "w") as fh:
        fh.write(digest)
    log(f"built in {time.time() - t0:.1f} s")
    return open(cp_file).read().strip(), digest, True


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def java_cmd(cp, digest, main, args):
    java_home = os.environ.get("JAVA_HOME")
    java = os.path.join(java_home, "bin", "java") if java_home else "java"
    tmp = os.path.join(BUILD, "tmp")
    local = os.path.join(BUILD, "spark-local")
    for d in (tmp, local, os.path.join(BUILD, "results")):
        os.makedirs(d, exist_ok=True)
    return ([java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-Xss4m"]
            + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
            + [f"-Djava.io.tmpdir={tmp}", f"-Dperfbench.localDir={local}",
               f"-Dperfbench.commit={commit()}", f"-Dperfbench.sourceHash={digest}",
               "-Dspark.driver.host=127.0.0.1", "-cp", cp, main] + args)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not os.path.isdir(PROGRAM_SOURCES):
        sys.exit(f"perfbench: no program sources at {os.path.relpath(PROGRAM_SOURCES)}; run from a full checkout")

    start = time.time()
    os.chdir(ROOT)
    cp, digest, built = build()
    deadline = start + (FIRST_RUN_TIMEOUT_S if built else RUN_TIMEOUT_S)

    if a.selftest:
        code = run_to_end(java_cmd(cp, digest, "repro.perfbench.SelfTest", [os.path.join(ROOT, "BENCHMARK.json")]),
                          max(1, deadline + 600 - time.time()), stdin=subprocess.DEVNULL)
        sys.exit(code)

    out = os.path.join(BUILD, "results", f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    cmd = java_cmd(cp, digest, "repro.perfbench.Main",
                   ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                    "--trace", str(a.trace), "--out", out])
    proc = spawn(cmd, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(max(1.0, deadline - time.time()), kill)
    watchdog.start()
    last = None
    try:
        # Echo the JVM's output, holding back the last line until it is known
        # to be the result.
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        code = proc.wait()
    finally:
        watchdog.cancel()
    if timed_out.is_set():
        sys.exit("perfbench: run timed out")
    if code != 0:
        if last is not None:
            print(last, file=sys.stderr)
        sys.exit(f"perfbench: benchmark exited with {code}")
    try:
        result = json.loads(last or "")
    except json.JSONDecodeError:
        sys.exit("perfbench: no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
