#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver from source and runs one
workload of BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); each run gets a private, empty TMPDIR under
.bench_tmp, which must be empty again when the driver exits, and traced
runs write their Chrome trace to .bench_out/trace-<workload>.json and
validate it with the repository's trace_check tool.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), whatever the workload. A failed build
prints no result and exits non-zero.

--self-check verifies BENCHMARK.json's names and runs the kernels
workload with one output element corrupted, which must be reported as
exactly one failed operation.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DRIVER_TIMEOUT_S = 170

# Span-name prefixes every traced run of a workload must contain.
LAYERS = ["rewrite.", "analysis.", "codegen.", "ocl.", "native.", "stencil."]
TRACE_PREFIXES = {
    "sweep_model": ["tuner."] + LAYERS,
    "kernels": LAYERS,
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the driver and trace_check; returns the build directory."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_driver", "perfbench_trace_check"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd))
    return out


def run_driver(build_dir, args, extra):
    """Runs the driver in its own process group with a private TMPDIR.
    Returns (parsed result, text lines before it) or (None, lines)."""
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = os.path.join(tmp_root, "run-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += extra
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        print("perfbench: driver timed out", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: driver exited with %s" % proc.returncode,
              file=sys.stderr)
        return None, lines
    try:
        return json.loads(lines[-1]), lines[:-1]
    except ValueError:
        return None, lines


def check_names(spec, res, trace):
    """The printed metrics must be exactly those BENCHMARK.json declares
    for the mode, with their units, and every name must use only the
    allowed characters."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    errors = []
    workload = res["workload"]
    if not NAME_RE.match(workload) or workload not in [
            w["name"] for w in spec["workloads"]]:
        errors.append("workload %r is not declared" % workload)
    for name, m in res["metrics"].items():
        if not NAME_RE.match(name):
            errors.append("bad metric name %r" % name)
        elif name not in declared:
            errors.append("metric %r is not declared" % name)
        elif m["unit"] != declared[name]:
            errors.append("metric %r has unit %r, declared %r"
                          % (name, m["unit"], declared[name]))
    for name in declared:
        if name not in res["metrics"]:
            errors.append("metric %r is missing" % name)
    return errors


def trace_check(build_dir, path, workload):
    cmd = [os.path.join(build_dir, "perfbench_trace_check"), "--trace", path]
    for prefix in TRACE_PREFIXES[workload]:
        cmd += ["--expect-span-prefix", prefix]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(res.stdout)
    sys.stderr.write(res.stderr)
    return res.returncode == 0


def run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    build_dir = build()
    extra = []
    trace_path = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, "trace-%s.json" % args.workload)
        extra = ["--trace-file", trace_path]
    if args.corrupt:
        extra.append("--corrupt")
    res, lines = run_driver(build_dir, args, extra)
    for line in lines:
        print(line)
    if res is None:
        # A crash is a failed operation; there are no metrics to report.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(1)
    print("provenance: " + json.dumps(res["provenance"], sort_keys=True))
    errors = check_names(spec, res, args.trace)
    if errors:
        fail("; ".join(errors))
    attempted, failed = int(res["attempted"]), int(res["failed"])
    if trace_path is not None:
        attempted += 1
        if not trace_check(build_dir, trace_path, args.workload):
            failed += 1
    print(json.dumps({"correct": res["correct"] and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": res["metrics"]}))
    return res, failed


def self_check():
    spec = load_spec()
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for n in names:
        if not NAME_RE.match(n):
            errors.append("bad name %r" % n)
    if len(set(names)) != len(names):
        errors.append("duplicate names")
    if errors:
        fail("; ".join(errors))
    args = argparse.Namespace(workload="kernels", seed=1, seconds=1,
                              trace=0, corrupt=True)
    _, failed = run(args)
    if failed != 1:
        fail("corrupting one output element gave %d failed operations, "
             "want exactly 1" % failed)
    print("self-check: names ok; one corrupted element -> 1 failed op")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if args.self_check:
        self_check()
        return
    if not args.workload:
        p.error("--workload is required")
    args.corrupt = False
    run(args)


if __name__ == "__main__":
    main()
