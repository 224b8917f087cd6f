#!/usr/bin/env python3
"""Runs one benchmark workload; see perfbench/README.md.

    python3 perfbench/run.py --workload agg --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the classes when the sources changed
(perfbench/build.py), then runs the benchmark's two JVMs one after the other:
the Spark part, then the part without Spark (local backends and compiler).
It merges their results into .bench_build/perfbench/<run>.json (and, with
--trace 1, their spans into <run>.spans.json) and prints the result object,
with the metrics BENCHMARK.json declares, as the last line of standard
output.
"""
import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# Fixed JVM settings; the Spark settings are fixed in SparkPart.scala. Both
# are recorded in the results file.
DRIVER_HEAP = "2g"
# Both JVMs together; leaves the run within 180 s once the classes are built.
JVM_BUDGET_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    cp = build.build()
    work = os.path.join(os.getcwd(), ".bench_build")
    tmp = os.path.join(work, "tmp")
    out = os.path.join(work, "perfbench")
    os.makedirs(tmp, exist_ok=True)
    here = os.path.dirname(os.path.abspath(__file__))
    run_id = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    deadline = time.time() + JVM_BUDGET_S

    def jvm(part):
        cmd = ["java", f"-Xmx{DRIVER_HEAP}", f"-Djava.io.tmpdir={tmp}",
               "-Dlog4j2.configurationFile=" + os.path.join(here, "log4j2.properties"),
               "-Dperfbench.driverHeap=" + DRIVER_HEAP,
               "--add-opens=java.base/java.lang=ALL-UNNAMED",
               "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
               "--add-opens=java.base/java.nio=ALL-UNNAMED",
               "--add-opens=java.base/java.util=ALL-UNNAMED",
               "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
               "-cp", cp, "perfbench.Main", "--part", part,
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--work", work, "--spawn-ns", str(time.time_ns())]
        try:
            r = subprocess.run(cmd, timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            sys.exit(f"run: the {part} JVM did not finish within the run's {JVM_BUDGET_S} s")
        if r.returncode != 0:
            sys.exit(f"run: the {part} JVM failed (exit code {r.returncode})")
        path = os.path.join(out, f"{run_id}.{part}.json")
        with open(path) as fh:
            res = json.load(fh)
        os.remove(path)
        return res

    parts = {p: jvm(p) for p in ("spark", "core")}
    os.remove(os.path.join(out, f"{run_id}.ref.bin"))

    def merged(key):
        return {k: v for p in parts.values() for k, v in p[key].items()}

    attempted = sum(p["attempted"] for p in parts.values())
    failed = sum(p["failed"] for p in parts.values())
    # the result line carries the metrics BENCHMARK.json declares; the
    # others stay in the printed lines and the results file
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if a.trace else "end_to_end"]
    measured = merged("per_layer" if a.trace else "end_to_end")
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        sys.exit(f"run: declared metrics not measured: {missing}")
    metrics = {m["name"]: measured[m["name"]] for m in declared}
    results = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "attempted": attempted, "failed": failed,
        "failed_frac": failed / max(1, attempted),
        "failures": [f for p in parts.values() for f in p["failures"]],
        "end_to_end": merged("end_to_end"), "per_layer": merged("per_layer"),
        "per_program": merged("per_program"), "parts": parts,
    }
    with open(os.path.join(out, f"{run_id}.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    if a.trace:
        spans = []
        for p in parts:
            path = os.path.join(out, f"{run_id}.{p}.spans.json")
            with open(path) as fh:
                ss = json.load(fh)["spans"]
            os.remove(path)
            base = max((s["id"] for s in spans), default=-1) + 1
            for s in ss:
                s["id"] += base
                if s["parent"] >= 0:
                    s["parent"] += base
            spans += ss
        with open(os.path.join(out, f"{run_id}.spans.json"), "w") as fh:
            json.dump({"trace_id": run_id, "spans": spans}, fh)
    print(f"  failed_frac {results['failed_frac']:.6f}; results in {out}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
