#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the library sources it compiles from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload and prints every metric by name and unit, then the full record
(host descriptor, workload table, per-mode details) as one JSON line, then
the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the result holds the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Exits non-zero without a result when
the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then builds incrementally; returns the binary."""
    log_path = os.path.join(bdir, "build.log")
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(nproc())])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def caches():
    """Total bytes per cache level, as lscpu reports them."""
    try:
        text = subprocess.run(["lscpu", "-B"], capture_output=True, text=True,
                              check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"lscpu failed: {e}")
    out = {}
    for m in re.finditer(r"^(L\d)\w* cache:\s+(\d+)", text, re.M):
        out[m.group(1)] = max(out.get(m.group(1), 0), int(m.group(2)))
    if "L2" not in out:
        fail("lscpu reports no L2 cache size")
    return out


def source_id():
    """The commit when this is a git checkout. An exported tree has no
    commit, so it is identified by a digest of src/ instead."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return {"commit": rev.stdout.strip()}
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            p = os.path.join(d, name)
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return {"source_sha256": h.hexdigest()}


def cpu_times():
    """The aggregate CPU line of /proc/stat: jiffies per state."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(start, end):
    """Share of all CPU time the hypervisor gave to other guests between
    two cpu_times() readings (field 8 is steal)."""
    delta = [b - a for a, b in zip(start, end)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="check that planted mismatches count as failures")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found next to perfbench/")

    binary = build(build_dir())
    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"], cwd=build_dir()).returncode)

    cache = caches()
    llc = cache.get("L3") or cache["L2"]
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, OPAL_NUM_THREADS=str(nproc()))
    load_start = os.getloadavg()
    cpu_start = cpu_times()
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--llc-bytes", str(llc), "--out-dir", out_dir],
        stdout=subprocess.PIPE, env=env, text=True)
    load_end = os.getloadavg()
    cpu_end = cpu_times()
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("perfbench printed no report")

    ws = report["info"].get("working_set_bytes", 0)
    host = {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "l2_bytes": cache.get("L2", 0),
        "llc_bytes": llc,
        "working_set_bytes": ws,
        "working_set_over_llc": ws / llc if llc else None,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "steal_share": steal_share(cpu_start, cpu_end),
        **source_id(),
    }

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, not_applicable = {}, []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            # A layer this workload does not run did no work.
            not_applicable.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    record = {"host": host, "report": report, "not_applicable": not_applicable,
              "result": result}
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(out_dir, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"),
              "w") as f:
        json.dump(record, f, indent=1)

    for name, m in sorted(report["metrics"].items()):
        extra = "".join(f"  {k}={v:.6g}" for k, v in sorted(m.items())
                        if k not in ("value", "unit") and v is not None)
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{extra}")
    for f in report["failures"]:
        print(f"FAILED {f}")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
