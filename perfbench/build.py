#!/usr/bin/env python3
"""Build file of the benchmark: compiles the repository's Scala sources and
the benchmark's own sources with the Scala compiler shipped in Spark's jars.

    python3 perfbench/build.py            # from the root of a checkout

Classes go to `.bench_build/classes/{main,bench}`. Each stage is skipped when
a stamp file shows its sources (and the sources it compiles against) are
unchanged. Spark is found through SPARK_HOME, or through `spark-submit` on
PATH. Exits non-zero, with the reason on stderr, when a source tree or Spark
is missing or compilation fails.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build", "classes")
# (stage, source roots, stages it compiles against)
STAGES = [
    ("main", ["src/main/scala"], []),
    ("bench", ["perfbench/src"], ["main"]),
]


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not glob.glob(os.path.join(jars, "spark-sql_*.jar")):
        sys.exit("build: Spark not found (set SPARK_HOME or put spark-submit on PATH)")
    return jars


def sources(roots):
    files = []
    for r in roots:
        d = os.path.join(ROOT, r)
        if not os.path.isdir(d):
            sys.exit(f"build: source directory {r} is missing")
        files += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    if not files:
        sys.exit(f"build: no Scala sources under {roots}")
    return sorted(files)


def digest(files, deps):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    for d in deps:
        with open(os.path.join(OUT, d + ".stamp")) as fh:
            h.update(fh.read().encode())
    return h.hexdigest()


def classpath(jars):
    """Runtime classpath: compiled stages, then Spark's jars."""
    return os.pathsep.join([os.path.join(OUT, s) for s, _, _ in STAGES]
                           + [os.path.join(jars, "*")])


def build():
    jars = spark_jars()
    for stage, roots, deps in STAGES:
        files = sources(roots)
        stamp_file = os.path.join(OUT, stage + ".stamp")
        stamp = digest(files, deps)
        if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
            continue
        dest = os.path.join(OUT, stage)
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        cp = os.pathsep.join([os.path.join(OUT, d) for d in deps]
                             + [os.path.join(jars, "*")])
        print(f"build: compiling {stage} ({len(files)} files)", file=sys.stderr)
        r = subprocess.run(
            ["java", "-Xss8m", "-Xmx2g", "-cp", os.path.join(jars, "*"),
             "scala.tools.nsc.Main", "-nowarn", "-d", dest, "-classpath", cp]
            + files, cwd=ROOT)
        if r.returncode != 0:
            sys.exit(f"build: scalac failed on {stage}")
        with open(stamp_file, "w") as fh:
            fh.write(stamp)
    return classpath(jars)


if __name__ == "__main__":
    build()
