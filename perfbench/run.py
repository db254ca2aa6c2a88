"""kinkband benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each unit of work is one ``kinkband`` CLI invocation in its own
worker process (``worker.py``), repeated while another fits in ``--seconds``
(at least one).  Every unit's outputs are checked.

--trace 0 prints the end-to-end metrics: medians over units, measured with
tracing off, times corrected for machine speed (``speed.py``) into
probe-normalised reference seconds.  --trace 1 runs pairs of an untraced and
a traced unit and prints the per-layer metrics of the traced one, with the
tracing overhead.  A unit that crashes or fails its check ends the run and
its figures are not reported.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Each run also leaves a record with the machine and provenance in
``perfbench/results/<workload>/seed<N>/``, and a traced run its spans.csv
and steps.jsonl there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RESULTS = os.path.join(HERE, "results")
TIME_LIMIT_S = 170.0        # a run ends within 180 s
SETUP_PROBES = 9            # extra set-ups per untraced unit, for setup_s
# glibc's malloc moves its mmap and trim thresholds with the allocation
# history, so whether the program's large temporaries are unmapped and
# faulted in again on every assembly depends on the heap layout, which
# shifts with the lengths of the paths a worker is given.  On
# gradcheck_34x61 that made 6.3 million page faults and a 35% longer run at
# some path lengths, 7 thousand at others.  Fixed thresholds make every
# worker allocate alike.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}


def declared_metrics():
    """Metric names and units from BENCHMARK.json, the single list of them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _git_commit():
    """HEAD of the checkout's .git, if there is one; git itself is not run."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over src/**/*.py, names and contents, in sorted order."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload, seed, seconds, trace):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):   # older numpy
        blas = "unknown"
    threads = {v: os.environ.get(v, "unset") for v in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": threads, "worker_malloc": MALLOC_ENV,
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_worker(workload, seed, config, work, index, deadline, traced, probes):
    """Run one unit in a worker process; returns its result dict or None."""
    out = os.path.join(work, f"out{index}")
    result_path = os.path.join(work, f"unit{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--config", config,
           "--out", out, "--result", result_path,
           "--setup-probes", str(probes)]
    if traced:
        cmd += ["--trace-dir", os.path.dirname(work)]
    with open(os.path.join(work, f"unit{index}.log"), "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **MALLOC_ENV},
                                stdout=log, stderr=log)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"unit {index}: killed at the time limit", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            shutil.rmtree(out, ignore_errors=True)
    if rc != 0 or not os.path.exists(result_path):
        print(f"unit {index}: worker exited {rc}; see "
              f"{os.path.relpath(log.name, ROOT)}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    t_start = time.monotonic()
    deadline = t_start + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "kinkband", "__init__.py")):
        print(f"no kinkband sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    end_to_end, per_layer = declared_metrics()
    workload = WORKLOADS[args.workload]
    record_dir = os.path.join(RESULTS, args.workload, f"seed{args.seed}")
    work = os.path.join(record_dir, f"work-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "config.txt")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(args.seed))

    units, attempted, failed = [], 0, 0
    while True:
        t_unit = time.monotonic()
        pair = []
        for traced in ((False, True) if args.trace else (False,)):
            attempted += 1
            res = run_worker(args.workload, args.seed, config, work, attempted,
                             deadline, traced=traced,
                             probes=0 if args.trace else SETUP_PROBES)
            if res is None or not res["ok"]:
                failed += 1
                if res is not None:
                    print(f"unit {attempted}: check failed: {res['detail']}",
                          file=sys.stderr)
            pair.append(res)
        ok = all(r is not None and r["ok"] for r in pair)
        if ok:                      # a failed unit's figures are not reported
            units.append(pair)
        now = time.monotonic()
        if (not ok or now + (now - t_unit) > t_start + args.seconds
                or now + 2 * (now - t_unit) > deadline):
            break

    if not units:
        print("no unit passed its check", file=sys.stderr)
        return 1
    if args.trace:
        layers = [traced["layers"] for _, traced in units]
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in per_layer if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = statistics.median(
            traced["wall_s"][0] / plain["wall_s"][0] - 1.0
            for plain, traced in units)
        units_of = per_layer
    else:
        plain = [u[0] for u in units]

        def pooled(key):
            return statistics.median(v for r in plain for v in r[key])

        metrics = {"wall_s": pooled("wall_s"), "setup_s": pooled("setups_s"),
                   "step_s.p50": pooled("steps_s"),
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in plain)}
        raw = {"wall_s": pooled("raw_wall_s"), "setup_s": pooled("raw_setups_s"),
               "step_s.p50": pooled("raw_steps_s")}
        units_of = end_to_end
    if set(metrics) != set(units_of):
        print(f"metrics {sorted(set(metrics) ^ set(units_of))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    record = {"provenance": provenance(args.workload, args.seed, args.seconds,
                                       args.trace),
              "config": workload.config_text(args.seed),
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "metrics": metrics,
              "units": [r for pair in units for r in pair]}
    with open(os.path.join(record_dir, f"trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if failed == 0:                 # keep the unit logs of a failed run
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        line = f"{name:36s} {value:14.6g} {units_of[name]}"
        if not args.trace and name in raw:
            line += (f" (probe-normalised reference seconds; "
                     f"uncorrected {raw[name]:.6g} s)")
        print(line)
    print(f"{'fail_frac':36s} {failed / attempted:14.6g} fraction "
          f"({failed} of {attempted} runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units_of[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
