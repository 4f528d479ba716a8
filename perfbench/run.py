"""Benchmark of minsurf4: four workloads, timed in reference-seconds.

    python3 perfbench/run.py --workload falsify --seed 1 --seconds 28 --trace 0

Run from the repository root. `--workload all` runs every workload, each in
its own fresh process, and prints one line per workload. See README.md for
the workloads, the metrics and the reference clock.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (`items_per_ref_s`, `setup_s`,
`peak_rss_mb`); with `--trace 1` they are the per-layer ones from a traced
run, and the trace is written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 170
# The traced run covers this share of the item list, once untraced and once
# traced, item by item, so drift cancels out of the overhead.
TRACE_SHARE = 0.25


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


def measure_setup(workload):
    """Median seconds from spawning a fresh interpreter to the first item
    being ready (`import minsurf4` plus argument and input parsing); one
    spawn before the timed ones writes the bytecode caches."""
    code = workload.setup_code() + "print('ready', flush=True)\n"
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {err.strip()}")
        if i:
            times.append(t1 - t0)
    return statistics.median(times)


def _run_item(workload, item, problems):
    """One timed call; returns (seconds, output or None when it raised)."""
    t0 = time.perf_counter()
    try:
        result = workload.run(item)
    except Exception as e:  # an item that raises is a failed operation
        dt = time.perf_counter() - t0
        problems.append(f"{type(e).__name__}: {e}")
        return dt, None
    dt = time.perf_counter() - t0
    return dt, workload.capture(item, result)


def measure(workload, seconds):
    """Whole passes over the item list, as many as fit in `seconds` (at
    least one), each item timed against the reference kernel."""
    from refclock import RefClock

    clock = RefClock()
    errors, wrong = [], []
    attempted = failed = units = 0
    workload.run(workload.items[0])  # warm-up, untimed
    begin = time.perf_counter()
    while True:
        pass_begin = time.perf_counter()
        for item in workload.items:
            attempted += 1
            try:
                result = clock.call(workload.run, item)
            except Exception as e:  # an item that raises is a failed operation
                errors.append(f"{type(e).__name__}: {e}")
                failed += 1
                continue
            units += workload.units(item)
            wrong.extend(workload.check(item, workload.capture(item, result)))
        now = time.perf_counter()
        if now - begin + (now - pass_begin) > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return clock, attempted, failed, units, errors, wrong, rss_mb


def trace(workload, path):
    """Per-layer metrics from a traced pass over the first share of the
    list; each item runs untraced and then traced, for the overhead."""
    from tracer import Tracer

    items = workload.items[: max(1, round(len(workload.items) * TRACE_SHARE))]
    tracer = Tracer()
    errors, wrong = [], []
    failed = units = complete = 0
    plain_s = traced_s = 0.0
    workload.run(items[0])  # warm-up, untimed
    for idx, item in enumerate(items):
        plain, _ = _run_item(workload, item, [])
        tracer.install()
        try:
            t0 = time.perf_counter()
            dt, output = _run_item(workload, item, errors)
            tracer.item_span(f"{workload.name}[{idx}]", t0, t0 + dt)
        finally:
            tracer.uninstall()
        plain_s += plain
        traced_s += dt
        if output is None:
            failed += 1
            continue
        units += workload.units(item)
        if hasattr(workload, "complete_rows"):
            complete += workload.complete_rows(output)
        wrong.extend(workload.check(item, output))
    metrics = tracer.layer_metrics(complete)
    record = {
        "workload": workload.name,
        "items": len(items),
        "units": units,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "overhead": traced_s / plain_s - 1.0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **tracer.dump(),
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record, len(items), failed, errors, wrong


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(name, seed, seconds, traced):
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        workload = WORKLOADS[name](seed, seconds, ROOT, workdir)
        if traced:
            path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
            record, attempted, failed, errors, wrong = trace(workload, path)
            print(
                f"# {name}: traced {record['items']} items, overhead {record['overhead']:.3f}"
                f" ({record['traced_s']:.3f} s traced vs {record['untraced_s']:.3f} s), trace {path}"
            )
            metrics = record["metrics"]
        else:
            setup_s = measure_setup(workload)
            clock, attempted, failed, units, errors, wrong, rss_mb = measure(workload, seconds)
            if hasattr(workload, "negative_control"):
                wrong.extend(workload.negative_control())
            rates = clock.summary(units)
            print(
                f"# {name}: {attempted} items attempted, {failed} failed, {units} units;"
                f" {rates['items_per_wall_s']:.6g} units per wall-second;"
                f" {rates['work_s']:.3f} s of work, {rates['kernel_samples']} kernel samples"
                f" taking {rates['kernel_s']:.3f} s, {rates['kernel_calls_per_s']:.6g} calls/s"
            )
            metrics = {
                "items_per_ref_s": _metric(rates["items_per_ref_s"], "1/ref-s"),
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mb": _metric(rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in (errors + wrong)[:20]:
        print(f"# problem: {line}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Every workload in its own fresh process; one summary line each."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        for key, m in result["metrics"].items():
            print(f"{name:18s} {key:36s} {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{key}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "minsurf4")):
        raise SystemExit(f"no minsurf4 package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
