"""Spans recorded around the calls one kinkband layer makes into another.

The program is not edited: ``Tracer.install`` replaces each module-level
name in ``PATCHES`` where its caller looks it up, and puts the original
back on exit.  A span is ``(id, name, start, end, parent, info)``; spans
are kept in memory and written out when the traced run ends.
"""

from __future__ import annotations

import csv
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from functools import partial

# (module, attribute, span name).  _assemble is patched in evolution (the
# objective, the post-step assembly) and in energy (the reaction force).
PATCHES = (
    ("kinkband.cli", "_load_config", "config.load"),
    ("kinkband.cli", "_write_outputs", "output.write_outputs"),
    ("kinkband.evolution", "run_simulation", "evolution.run_simulation"),
    ("kinkband.evolution", "_startup_gradient_check", "evolution.startup_check"),
    ("kinkband.evolution", "incremental_step", "evolution.incremental_step"),
    ("kinkband.evolution", "reaction_force", "evolution.reaction_force"),
    ("kinkband.evolution", "_min_det", "evolution.min_det"),
    ("kinkband.evolution", "dissipation_increment", "evolution.dissipation_increment"),
    ("kinkband.evolution", "minimize", "optimizer.minimize"),
    ("kinkband.evolution", "gradient_check", "optimizer.gradient_check"),
    ("kinkband.evolution", "_assemble", "energy.assemble"),
    ("kinkband.energy", "_assemble", "energy.assemble"),
    ("kinkband.evolution", "build_structured_mesh", "mesh.build"),
    ("kinkband.evolution", "build_dofmap", "mesh.dofmap"),
    ("kinkband.mesh", "build_structured_mesh", "mesh.build"),
    ("kinkband.mesh", "build_dofmap", "mesh.dofmap"),
    ("kinkband.mesh.DofMap", "unpack", "mesh.unpack"),
    ("kinkband.optimizer", "_line_search", "optimizer.line_search"),
    ("kinkband.optimizer", "_lbfgs_direction", "optimizer.lbfgs"),
    ("kinkband.output", "write_history_csv", "output.csv"),
    ("kinkband.output", "write_snapshot_vtk", "output.vtk"),
)

ROOT = "cli.main"


def _assemble_info(args, kwargs, result):
    return {"need_grad": bool(kwargs.get("need_grad", False)),
            "elements": args[0].n_triangles}


def _minimize_info(args, kwargs, result):
    return {"iterations": result.iterations, "converged_by": result.converged_by,
            "gradient_norm": result.gradient_norm, "f_min": result.f_min}


def _step_info(args, kwargs, result):
    return {"k": kwargs.get("k"), "reaction_force": result[1].reaction_force}


def _written(position):
    """Info of a writer whose output path is argument ``position``."""
    def info(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return info


INFO = {"energy.assemble": _assemble_info, "optimizer.minimize": _minimize_info,
        "evolution.incremental_step": _step_info,
        "output.csv": _written(1),     # write_history_csv(records, path, ...)
        "output.vtk": _written(2)}     # write_snapshot_vtk(state, mesh, path, ...)


def resolve(target):
    """Import ``a.b.C`` as module a.b, attribute C."""
    try:
        return importlib.import_module(target)
    except ImportError:
        module, _, attr = target.rpartition(".")
        return getattr(importlib.import_module(module), attr)


@contextmanager
def patched(replacements):
    """Set each ``(owner, attribute, make)`` to ``make(original)`` for the block."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder for one run of the program."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (sid, name, t0, clock(), parent, None)
                raise
            finally:
                stack.pop()
            t1 = clock()
            spans[sid] = (sid, name, t0, t1, parent,
                          info(args, kwargs, result) if info else None)
            return result

        return traced

    def install(self):
        """Patch every name in PATCHES for the duration of a with block."""
        return patched([(resolve(target), attr, partial(self.wrap, name))
                        for target, attr, name in PATCHES])

    def write(self, directory):
        """Write spans.csv and steps.jsonl into directory."""
        os.makedirs(directory, exist_ok=True)
        t_origin = min((s[2] for s in self.spans), default=0.0)
        with open(os.path.join(directory, "spans.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "span_id", "parent_id", "name",
                          "start_s", "end_s"])
            for sid, name, t0, t1, parent, info in self.spans:
                if name == "energy.assemble" and info:
                    name = "energy.fg" if info["need_grad"] else "energy.f"
                out.writerow([self.run_id, sid, parent, name,
                              f"{t0 - t_origin:.9f}", f"{t1 - t_origin:.9f}"])
        with open(os.path.join(directory, "steps.jsonl"), "w",
                  encoding="utf-8") as fh:
            for row in step_table(self.spans):
                fh.write(json.dumps({"run_id": self.run_id, **row}) + "\n")


def _children(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s[4], []).append(s)
    return kids


def step_table(spans):
    """Per incremental_step call: iterations, stop reason, lifted restart."""
    kids = _children(spans)
    rows = []
    for s in spans:
        if s[1] != "evolution.incremental_step" or s[5] is None:
            continue
        runs = [c[5] for c in kids.get(s[0], ()) if c[1] == "optimizer.minimize"]
        lift_won = len(runs) > 1 and runs[1]["f_min"] < runs[0]["f_min"]
        accepted = runs[1] if lift_won else runs[0]
        rows.append({"k": s[5]["k"], "wall_s": s[3] - s[2],
                     "iterations": sum(r["iterations"] for r in runs),
                     "minimize_calls": len(runs),
                     "lift_ran": len(runs) > 1, "lift_won": lift_won,
                     "converged_by": accepted["converged_by"],
                     "gradient_norm": accepted["gradient_norm"],
                     "reaction_force": s[5]["reaction_force"]})
    return rows


def layer_metrics(spans):
    """Per-layer metrics of one traced run (the root span is ROOT)."""
    by_id = {s[0]: s for s in spans}
    kids = _children(spans)
    root = next(s for s in spans if s[1] == ROOT)
    wall = root[3] - root[2]

    def dur(s):
        return s[3] - s[2]

    def under(s, name):
        p = s[4]
        while p != -1:
            if by_id[p][1] == name:
                return True
            p = by_id[p][4]
        return False

    def total(name):
        return sum(dur(s) for s in spans if s[1] == name)

    def count(name):
        return sum(1 for s in spans if s[1] == name)

    m = {}
    for key, need_grad in (("f", False), ("fg", True)):
        calls = [s for s in spans if s[1] == "energy.assemble"
                 and s[5] and s[5]["need_grad"] is need_grad]
        sec = sum(dur(s) for s in calls)
        elems = sum(s[5]["elements"] for s in calls)
        m[f"energy.{key}.calls"] = len(calls)
        m[f"energy.{key}.s"] = sec
        m[f"energy.{key}.us_per_call"] = 1e6 * sec / len(calls) if calls else 0.0
        m[f"energy.{key}.ns_per_elem"] = 1e9 * sec / elems if elems else 0.0
    m["energy.share"] = (m["energy.f.s"] + m["energy.fg.s"]) / wall

    leaf = ("energy.assemble", "mesh.unpack")
    runs = [s[5] for s in spans if s[1] == "optimizer.minimize" and s[5]]
    iterations = sum(r["iterations"] for r in runs)
    steps = step_table(spans)
    per_step = [r["iterations"] for r in steps]
    evals = sum(1 for s in spans if s[1] == "energy.assemble"
                and under(s, "optimizer.minimize"))
    m["optimizer.minimize.calls"] = len(runs)
    m["optimizer.iterations"] = iterations
    m["optimizer.iters_per_step.p50"] = statistics.median(per_step) if per_step else 0
    m["optimizer.iters_per_step.max"] = max(per_step, default=0)
    m["optimizer.evals_per_iter"] = evals / iterations if iterations else 0.0
    for reason in ("step", "function", "gradient", "max_iters"):
        m[f"optimizer.converged_by.{reason}"] = sum(
            1 for r in runs if r["converged_by"] == reason)
    lbfgs = count("optimizer.lbfgs")
    m["optimizer.lbfgs.s"] = total("optimizer.lbfgs")
    m["optimizer.lbfgs.us_per_call"] = 1e6 * m["optimizer.lbfgs.s"] / lbfgs if lbfgs else 0.0
    for name, key in (("optimizer.minimize", "optimizer.self_s"),
                      ("optimizer.gradient_check", "optimizer.gradient_check.self_s")):
        inner = sum(dur(s) for s in spans if s[1] in leaf and under(s, name))
        m[key] = total(name) - inner

    calls = count("evolution.incremental_step")
    m["evolution.steps"] = len({r["k"] for r in steps})
    m["evolution.lift_restarts"] = sum(r["minimize_calls"] - 1 for r in steps)
    m["evolution.lift_wins"] = sum(1 for r in steps if r["lift_won"])
    m["evolution.retries"] = calls - m["evolution.steps"]
    post = 0.0
    for s in spans:
        if s[1] != "evolution.incremental_step":
            continue
        children = kids.get(s[0], ())
        post += sum(dur(c) for c in children if c[1] in (
            "evolution.reaction_force", "evolution.min_det",
            "evolution.dissipation_increment"))
        assembles = [c for c in children if c[1] == "energy.assemble"]
        if assembles:                       # the post-step assembly is the last
            post += dur(assembles[-1])
    m["evolution.post_s"] = post
    m["evolution.startup_check_s"] = total("evolution.startup_check")

    m["mesh.build.calls"] = count("mesh.build")
    m["mesh.build_s"] = total("mesh.build") + total("mesh.dofmap")
    m["mesh.unpack.calls"] = count("mesh.unpack")
    m["mesh.unpack.s"] = total("mesh.unpack")
    m["config.parse_s"] = total("config.load")
    for kind in ("csv", "vtk"):
        m[f"output.{kind}.s"] = total(f"output.{kind}")
        m[f"output.{kind}.bytes"] = sum(s[5]["bytes"] for s in spans
                                        if s[1] == f"output.{kind}" and s[5])
    m["output.vtk.files"] = count("output.vtk")
    m["unattributed_s"] = wall - sum(dur(s) for s in kids.get(root[0], ()))
    return wall, m
