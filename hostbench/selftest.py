#!/usr/bin/env python3
"""Self-tests of the host benchmark.

    python3 hostbench/selftest.py

Run it from the repository root.  It builds the binary as run.py does, runs
the binary's own unit checks (failure accounting through the call wrapper,
span self time), then a tiny-size smoke run of every workload with tracing
off and on, and checks that:
  * each smoke run finishes within SMOKE_LIMIT_S seconds;
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct, and nothing failed;
  * every metric BENCHMARK.json names prints by name with its unit, both on
    its human-readable line and in the result, and no other metric does;
  * failed_share and model_digest print, and the digest is the same with
    tracing off and on;
  * in the written trace, every span's self time lies within its duration,
    and every child span lies inside its parent.
Exits 0 when every check passes.
"""
import json
import os
import re
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMOKE_LIMIT_S = 30.0
EPS_US = 1e-3  # trace times are written with 3 decimals


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    binary = run.build()
    unit = subprocess.run([binary, "--selftest"], capture_output=True,
                          text=True)
    sys.stdout.write(unit.stdout)
    expect(unit.returncode == 0, "hostbench --selftest")

    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        name = w["name"]
        digests = {}
        for trace in (0, 1):
            tag = f"{name} trace={trace}"
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", name, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True)
            wall = time.time() - t0
            expect(proc.returncode == 0, f"{tag}: exits 0")
            expect(wall < SMOKE_LIMIT_S, f"{tag}: smoke run took {wall:.1f}s")
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{tag}: result keys")
            expect(result["correct"] is True and result["failed"] == 0 and
                   result["attempted"] >= 1, f"{tag}: correct, none failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == expected[trace],
                   f"{tag}: result holds exactly the listed metrics+units")
            printed = {}
            for line in lines[:-1]:
                m = re.match(r"metric (\S+) +(\S+) (\S+)$", line)
                if m:
                    printed[m.group(1)] = m.group(3)
            want = dict(expected[trace], failed_share="ratio")
            expect(printed == want, f"{tag}: every metric prints with unit")
            digest = [ln.split()[-1] for ln in lines
                      if " model_digest " in ln]
            expect(len(digest) == 1, f"{tag}: model_digest printed")
            digests[trace] = digest[0] if digest else None
            if trace:
                check_trace(name, expect)
        expect(digests.get(0) is not None and digests.get(0) == digests.get(1),
               f"{name}: model digest identical with tracing off and on")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


def check_trace(name, expect):
    path = os.path.join(run.BUILD, "traces", f"{name}-seed7.json")
    try:
        with open(path) as f:
            spans = json.load(f)["spans"]
    except (OSError, ValueError) as e:
        expect(False, f"{name}: trace readable ({e})")
        return
    expect(len(spans) > 0, f"{name}: trace has spans")
    self_ok = all(-EPS_US <= s["self_us"] <= s["end_us"] - s["start_us"] +
                  EPS_US for s in spans)
    expect(self_ok, f"{name}: span self time never exceeds its duration")
    nested = all(s["parent"] < 0 or (
        spans[s["parent"]]["start_us"] - EPS_US <= s["start_us"] and
        s["end_us"] <= spans[s["parent"]]["end_us"] + EPS_US) for s in spans)
    expect(nested, f"{name}: child spans lie inside their parents")


if __name__ == "__main__":
    sys.exit(main())
