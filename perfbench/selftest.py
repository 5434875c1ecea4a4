#!/usr/bin/env python3
"""The benchmark's own test, at smoke size (about a minute):

    python3 perfbench/selftest.py

For every workload it
  * runs the traced pass twice with one seed, the second time under
    FAURE_* variables that would change the engine's configuration if
    the benchmark inherited it, and requires every count-type per-layer
    metric to repeat exactly;
  * requires every per-layer and end-to-end metric of BENCHMARK.json,
    and the workload's own named metrics, to be printed with their unit;
  * requires each gated time to be its wall time scaled by the host
    probe's slowdown (request times on scenarios, which fans out over
    threads, unscaled);
  * requires failed_ratio to be 0 and every answer check to pass.
Exits 1 on the first run that breaks one of these.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAMED = {
    "table4": ["table4.total_s"],
    "whatif": ["whatif.policy_epoch_p50_ms", "whatif.link_epoch_p50_ms",
               "whatif.epoch_tail_ms"],
    "scenarios": ["scenarios.prepare_s", "scenarios.per_s"],
    "verify": ["verify.subsume_p50_ms", "verify.update_p50_ms",
               "verify.state_p50_ms", "verify.verdict_tail_ms"],
}
COMMON = ["setup_s", "peak_rss_mb", "failed_ratio", "wall.setup_s",
          "wall.op_p50_ms", "wall.answers_per_s", "host.probe_ms",
          "host.slowdown"]

# What the benchmark must not inherit: thread count, plan mode, cache
# size, incrementality, supervision and resource limits.
HOSTILE = {
    "FAURE_THREADS": "3",
    "FAURE_PLAN": "off",
    "FAURE_SOLVER_CACHE": "0",
    "FAURE_INCREMENTAL": "0",
    "FAURE_RETRIES": "3",
    "FAURE_CHAOS_SEED": "7",
    "FAURE_MAX_TUPLES": "1",
    "FAURE_DEADLINE": "0.001",
}

LINE = re.compile(r"^metric\s+(\S+)\s+(\S+)\s+(\S+)")


def invoke(binary, workload, trace, env=None):
    argv = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    full_env = dict(os.environ)
    for key in list(full_env):
        if key.startswith("FAURE_"):
            del full_env[key]
    full_env.update(env or {})
    p = subprocess.run(argv, capture_output=True, text=True, env=full_env,
                       cwd=run.ROOT, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError("%s trace=%d exited %d:\n%s%s" % (
            workload, trace, p.returncode, p.stdout[-2000:], p.stderr[-2000:]))
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError("%s trace=%d: answer checks failed: %s" % (
            workload, trace, lines[-1]))
    return result, printed


def check_units(where, metrics, spec):
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            raise AssertionError("%s: %s not printed" % (where, m["name"]))
        if got["unit"] != m["unit"]:
            raise AssertionError("%s: %s has unit %s, not %s" % (
                where, m["name"], got["unit"], m["unit"]))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build_dir = os.path.join(
        run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "faurebench")
    if not run.build(build_dir):
        return 2
    binary = os.path.join(build_dir, "faurebench")
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    for w in bench["workloads"]:
        name = w["name"]
        first, _ = invoke(binary, name, 1)
        second, _ = invoke(binary, name, 1, HOSTILE)
        check_units(name + " trace=1", first["metrics"], bench["per_layer"])
        for c in counts:
            a = first["metrics"][c]["value"]
            b = second["metrics"][c]["value"]
            if a != b:
                raise AssertionError("%s: count %s is %s, then %s" % (
                    name, c, a, b))
        result, printed = invoke(binary, name, 0)
        check_units(name + " trace=0", result["metrics"], bench["end_to_end"])
        for metric in COMMON + NAMED[name]:
            if metric not in printed or not printed[metric][1]:
                raise AssertionError("%s: named metric %s not printed with "
                                     "a unit" % (name, metric))
        slow = 1.0 if name == "scenarios" else printed["host.slowdown"][0]
        gated = result["metrics"]
        for metric, scaled in (
                ("op_p50_ms", gated["op_p50_ms"]["value"] * slow),
                ("answers_per_s", gated["answers_per_s"]["value"] / slow)):
            wall = printed["wall." + metric][0]
            if abs(scaled - wall) > 0.01 * wall:
                raise AssertionError("%s: %s is not wall.%s %s scaled by "
                                     "host.slowdown %s" % (
                                         name, metric, metric, wall, slow))
        if printed["failed_ratio"][0] != 0.0:
            raise AssertionError("%s: failed_ratio %s" % (
                name, printed["failed_ratio"][0]))
        print("ok %s: %d counts repeat, %d named metrics" % (
            name, len(counts), len(COMMON) + len(NAMED[name])))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("FAIL " + str(e))
        sys.exit(1)
