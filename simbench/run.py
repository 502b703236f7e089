#!/usr/bin/env python3
"""Layered simulator benchmark: build, run one workload, validate the result.

Run from the root of the repository:

  python3 simbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds simbench/simbench.exe with dune, runs workload W and prints a
      provenance line and then the result line:
      {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
      --trace 0 reports the end-to-end metrics of BENCHMARK.json,
      --trace 1 the per-layer ones.
  python3 simbench/run.py --smoke
      A tiny run of every workload in both modes; checks that every metric
      BENCHMARK.json names is emitted with its unit and that every
      operation matched its recorded expectation.
  python3 simbench/run.py --selftest
      --smoke, then two traced tiny runs of every workload with one seed,
      which must agree on every exact counter.
  python3 simbench/run.py --record
      Re-records simbench/expected.tsv, the simulated statistics every
      operation must reproduce, from the current simulator.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "simbench", "simbench.exe")
EXPECTED = os.path.join("simbench", "expected.tsv")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(2)


def env():
    e = dict(os.environ)
    # Keep dune's shared cache out of the picture: all writes stay in _build.
    e["DUNE_CACHE"] = "disabled"
    return e


def build():
    for f in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, f)):
            fail("no simulator sources at %s (missing %s)" % (ROOT, f))
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./simbench/simbench.exe"],
        cwd=ROOT, env=env(), stdout=sys.stderr, stderr=sys.stderr,
        timeout=880)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_exe(args):
    """Run the benchmark executable; return (provenance, result) dicts."""
    r = subprocess.run([EXE] + args, cwd=ROOT, env=env(), capture_output=True,
                       text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or len(lines) < 2:
        fail("benchmark exited with code %d" % r.returncode)
    return json.loads(lines[-2]), json.loads(lines[-1])


def validate(result, trace, bench):
    """Problems with [result] against the contract; empty when it holds."""
    errs = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errs.append("result keys %s" % sorted(result))
        return errs
    if not isinstance(result["correct"], bool):
        errs.append("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int):
            errs.append("%s is not a whole number" % k)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errs.append("nothing attempted")
    want = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in want}
    got = result["metrics"]
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            errs.append("metric %s missing" % name)
        elif sorted(m) != ["unit", "value"] or m["unit"] != unit:
            errs.append("metric %s: %s, want unit %s" % (name, m, unit))
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errs.append("metric %s: value %r" % (name, m["value"]))
        elif not trace and m["value"] <= 0:
            errs.append("end-to-end metric %s is %r" % (name, m["value"]))
    for name in got:
        if name not in want:
            errs.append("metric %s not in BENCHMARK.json" % name)
    return errs


def tiny(workload, seed, trace):
    return run_exe(["--workload", workload, "--seed", str(seed), "--seconds",
                    "1", "--trace", str(trace), "--tiny", "--expected",
                    EXPECTED, "--commit", commit()])


def smoke(bench):
    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            _, result = tiny(w["name"], 1, trace)
            errs = validate(result, trace, bench)
            if not result.get("correct") or result.get("failed"):
                errs.append("%s of %s operations failed" %
                            (result.get("failed"), result.get("attempted")))
            print("smoke %-16s trace=%d %s" %
                  (w["name"], trace, "ok" if not errs else "; ".join(errs)))
            ok = ok and not errs
    return ok


def selftest(bench):
    ok = smoke(bench)
    for w in bench["workloads"]:
        prov_a, a = tiny(w["name"], 7, 1)
        _, b = tiny(w["name"], 7, 1)
        diff = [n for n in prov_a["deterministic"]
                if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        print("counts %-16s %d exact counters %s" %
              (w["name"], len(prov_a["deterministic"]),
               "repeat" if not diff else "differ: " + ", ".join(diff)))
        ok = ok and not diff
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    build()
    bench = spec()
    if a.smoke or a.selftest:
        ok = selftest(bench) if a.selftest else smoke(bench)
        sys.exit(0 if ok else 1)
    if a.record:
        r = subprocess.run([EXE, "--record", EXPECTED], cwd=ROOT, env=env())
        sys.exit(r.returncode)
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        fail("--workload must be one of %s" % ", ".join(names))
    prov, result = run_exe(
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
         str(a.seconds), "--trace", str(a.trace), "--expected", EXPECTED,
         "--commit", commit()])
    errs = validate(result, a.trace == 1, bench)
    if errs:
        fail("invalid result: " + "; ".join(errs))
    print(json.dumps(prov))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
