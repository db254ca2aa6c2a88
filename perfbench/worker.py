"""Run one workload once, in this process, and write what it measured.

    python3 perfbench/worker.py --workload NAME --seed N --config FILE \
        --out DIR --result FILE [--trace-dir DIR] [--setup-probes N]

The program is driven through its own CLI entry point, ``cli_main``.  A few
light hooks time the set-up and each load step; with ``--trace-dir`` every
layer boundary in ``tracing.PATCHES`` is also recorded.  After the run the
outputs are checked, and the set-up is repeated ``--setup-probes`` times,
each stopped where the first load step (or the first finite-difference
evaluation) would begin.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import checks  # noqa: E402
import tracing  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SetupDone(Exception):
    """Raised by a hook to stop a set-up probe where solving would begin."""


class Milestones:
    """Hooks on the names whose calls mark set-up end and each solve step."""

    def __init__(self, command, stop_after_setup=False):
        self.command = command
        self.stop = stop_after_setup
        self.setup_end = None
        self.steps = []          # (start, end) of each load step or FD sweep
        self.step_kwargs = None  # problem objects the run passed to its steps
        self.run_result = None   # (records, states) returned by run_simulation

    def _mark_setup_end(self):
        if self.setup_end is None:
            self.setup_end = time.perf_counter()
            if self.stop:
                raise SetupDone

    def install(self):
        import kinkband.evolution as evolution

        return tracing.patched([
            (evolution, "run_simulation", self._run_simulation),
            (evolution, "incremental_step", self._incremental_step),
            (evolution, "gradient_check", self._gradient_check)])

    def _run_simulation(self, fn):
        def hooked(*args, **kwargs):
            self.run_result = fn(*args, **kwargs)
            return self.run_result
        return hooked

    def _incremental_step(self, fn):
        def hooked(*args, **kwargs):
            self._mark_setup_end()
            self.step_kwargs = kwargs
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.steps.append((t0, time.perf_counter()))
            return result
        return hooked

    def _gradient_check(self, fn):
        def hooked(objective, gradient, x, h):
            if self.command != "check-gradient":      # the run's start-up check
                return fn(objective, gradient, x, h)
            start = []

            def first_fd_marked(xv):
                if not start:
                    self._mark_setup_end()
                    start.append(time.perf_counter())
                return objective(xv)

            result = fn(first_fd_marked, gradient, x, h)
            self.steps.append((start[0], time.perf_counter()))
            return result
        return hooked


def _argv(workload, config, out):
    if workload.command == "run":
        return ["run", "--config", config, "--out", out]
    return ["check-gradient", "--config", config]


def _call_cli(argv):
    from kinkband.cli import cli_main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli_main(argv)
    return rc, stdout.getvalue()


def _read_history(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in (
        "reaction_force_N", "max_abs_gamma", "total_energy_Nmm",
        "dissipation_increment_Nmm", "cumulative_dissipation_Nmm")}


def _lifted_energies(records, states, kw):
    from kinkband.energy import total_energy
    from kinkband.evolution import lift_state

    mesh, program = kw["mesh"], kw["program"]
    return [total_energy(lift_state(states[k], mesh, program, states[k].time,
                                    rec.time), mesh, kw["params"], kw["slip"]).total
            for k, rec in enumerate(records)]


def check_run(workload, rc, out_dir, hooks):
    """Check a run's history.csv (and snapshot count) against the thresholds."""
    if rc != 0 or hooks.run_result is None:
        return False, f"exit code {rc}"
    records, states = hooks.run_result
    hist = _read_history(os.path.join(out_dir, "history.csv"))
    if len(hist["reaction_force_N"]) != len(records):
        return False, "history.csv row count differs from the steps run"
    kw = hooks.step_kwargs
    floor = kw["params"].sigma * kw["params"].delta * kw["mesh"].total_area
    energy_ok, energy_detail = checks.energy_estimate(
        hist["total_energy_Nmm"], hist["dissipation_increment_Nmm"],
        hist["cumulative_dissipation_Nmm"],
        _lifted_energies(records, states, kw), floor)
    F, G = hist["reaction_force_N"], hist["max_abs_gamma"]
    if workload.check == "kink":
        snapshots = [f for f in os.listdir(out_dir) if f.endswith(".vtk")]
        if len(snapshots) != len(states):
            return False, f"{len(snapshots)} snapshots for {len(states)} states"
        ok, detail = checks.kink(F, G, lambda i: states[i + 1].b, energy_ok)
    else:
        ok, detail = checks.stiff(F, G, energy_ok)
    return ok, f"{detail}; {energy_detail}"


def check_gradient_output(rc, stdout):
    found = re.search(r"max relative gradient error:\s*(\S+)", stdout)
    return checks.gradcheck(rc, float(found.group(1)) if found else None)


def run_once(workload, config, out_dir, speed, trace_dir, run_id):
    """One timed CLI run; returns its raw intervals and the check verdict."""
    hooks = Milestones(workload.command)
    tracer = tracing.Tracer(run_id) if trace_dir else None
    argv = _argv(workload, config, out_dir)
    with speed.running(), hooks.install(), \
            (tracer.install() if tracer else contextlib.nullcontext()):
        call = tracer.wrap(tracing.ROOT, _call_cli) if tracer else _call_cli
        t0 = time.perf_counter()
        rc, stdout = call(argv)
        t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.command == "run":
        ok, detail = check_run(workload, rc, out_dir, hooks)
    else:
        ok, detail = check_gradient_output(rc, stdout)
    result = {"exit_code": rc, "ok": bool(ok), "detail": detail,
              "peak_rss_mb": peak_rss_mb, "wall": [(t0, t1)],
              "setups": [(t0, hooks.setup_end)] if hooks.setup_end else [],
              "steps": hooks.steps}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)[1]
        tracer.write(trace_dir)
    return result


def setup_probe(workload, config, out_dir, speed):
    """Time config reading to the start of solving, then stop."""
    hooks = Milestones(workload.command, stop_after_setup=True)
    speed.probe()
    with hooks.install():
        t0 = time.perf_counter()
        try:
            _call_cli(_argv(workload, config, out_dir))
        except SetupDone:
            return t0, hooks.setup_end
    raise RuntimeError("the set-up probe ran to the end without reaching a solve")


def timings(result, speed):
    """Replace raw intervals by speed-corrected durations; keep raw ones."""
    for key in ("wall", "setups", "steps"):
        intervals = result.pop(key)
        result[f"{key}_s"] = [speed.scaled(a, b) for a, b in intervals]
        result[f"raw_{key}_s"] = [b - a for a, b in intervals]
    result["speed"] = speed.summary()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-probes", type=int, default=0)
    args = parser.parse_args(argv)

    import kinkband

    if not os.path.abspath(kinkband.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"kinkband imported from {kinkband.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    speed = Speedometer()
    result = run_once(workload, args.config, args.out, speed, args.trace_dir,
                      run_id)
    for _ in range(args.setup_probes):
        result["setups"].append(setup_probe(workload, args.config, args.out,
                                            speed))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(timings(result, speed), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
