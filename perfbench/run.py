#!/usr/bin/env python3
"""Runs one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run compiles the library sources
(src/main/scala) together with the harness (perfbench/src) with sbt into
.bench_build/; later runs reuse that build while the sources are unchanged.
The workload runs in one JVM with a pinned heap and Spark local[N<=4]. The
last line of standard output is the JSON result; the exit code is non-zero
when the build, a correctness check or an operation failed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HEAP = "3g"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170

# Module opens Spark needs on JDK 17 (the same list as the root build.sbt).
JDK_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    ]
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp(root):
    """Hash of every file the build reads, so edits trigger a rebuild."""
    h = hashlib.sha256()
    for top in ("src/main/scala", "perfbench/src", "perfbench/build.sbt",
                "perfbench/project/build.properties"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def spark_home():
    """The Spark distribution whose jars the build compiles against."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    submit = shutil.which("spark-submit")
    if not submit:
        fail("no Spark distribution: set SPARK_HOME", 3)
    return os.path.dirname(os.path.dirname(os.path.realpath(submit)))


def build(root, out):
    """Compiles with sbt and returns the runtime classpath."""
    stamp = source_stamp(root)
    cp_file = os.path.join(out, "classpath.txt")
    stamp_file = os.path.join(out, "stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true -Xmx2g")
    env["PERFBENCH_BUILD"] = out
    env["SPARK_HOME"] = spark_home()
    try:
        res = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
             "export Runtime/fullClasspath"],
            cwd=os.path.join(root, "perfbench"), env=env, stdout=subprocess.PIPE,
            stderr=sys.stderr, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines or "classes" not in lines[-1]:
        sys.stderr.write(res.stdout)
        fail("build failed", 3)
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "main", "scala", "repro")):
        fail("run from the repository root: src/main/scala/repro is missing")
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        fail("BENCHMARK.json is missing")
    out = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    cp = build(root, out)

    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", *JDK_OPENS,
            "-Dspark.driver.host=127.0.0.1",
            f"-Djava.io.tmpdir={os.path.join(out, 'tmp')}",
            f"-Dlog4j2.configurationFile={os.path.join(root, 'perfbench', 'log4j2.properties')}",
            "-cp", cp, "perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out", out])
    try:
        res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(res.stdout)
        fail(f"run failed with exit code {res.returncode}", 3)
    got = set(json.loads(lines[-1])["metrics"])
    want = expected_metrics(root, a.trace == 1)
    if got != want:
        sys.stderr.write(res.stdout)
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"extra {sorted(got - want)}", 3)
    sys.stdout.write(res.stdout)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
