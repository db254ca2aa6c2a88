"""Result serialization: per-step history CSV and VTK legacy snapshots.

Floats are written with 17 significant digits so a parsed file reproduces
the in-memory values exactly.  Column names carry explicit unit suffixes.
"""

from __future__ import annotations

import csv

from .energy import EnergyBreakdown, element_grad_y
from .evolution import StepRecord

CSV_HEADER = ("k,time_s,top_displacement_mm,engineering_strain,"
              "reaction_force_N,nominal_stress_MPa,total_energy_Nmm,"
              "elastic_Nmm,hardening_Nmm,slip_gradient_Nmm,penalty_Nmm,"
              "dissipation_increment_Nmm,cumulative_dissipation_Nmm,"
              "max_abs_gamma,min_det_Fe,optimizer_iterations")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_history_csv(records, path, Lx: float, Ly: float, speed: float) -> None:
    """One row per step; nominal stress = force / Lx, strain = speed*t / Ly."""
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            row = [
                str(r.k),
                _fmt(r.time),
                _fmt(r.top_displacement),
                _fmt(speed * r.time / Ly),
                _fmt(r.reaction_force),
                _fmt(r.reaction_force / Lx),
                _fmt(r.energy.total),
                _fmt(r.energy.elastic),
                _fmt(r.energy.hardening),
                _fmt(r.energy.slip_gradient),
                _fmt(r.energy.penalty),
                _fmt(r.dissipation_increment),
                _fmt(r.cumulative_dissipation),
                _fmt(r.max_abs_gamma),
                _fmt(r.min_det_Fe),
                str(r.optimizer_iterations),
            ]
            fh.write(",".join(row) + "\n")


def read_history_csv(path):
    """Parse a history CSV back into StepRecord objects (round-trip exact)."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ValueError(f"unexpected header in {path}")
        for row in reader:
            energy = EnergyBreakdown(
                elastic=float(row["elastic_Nmm"]),
                hardening=float(row["hardening_Nmm"]),
                slip_gradient=float(row["slip_gradient_Nmm"]),
                penalty=float(row["penalty_Nmm"]),
                total=float(row["total_energy_Nmm"]),
            )
            records.append(StepRecord(
                k=int(row["k"]),
                time=float(row["time_s"]),
                energy=energy,
                dissipation_increment=float(row["dissipation_increment_Nmm"]),
                cumulative_dissipation=float(row["cumulative_dissipation_Nmm"]),
                reaction_force=float(row["reaction_force_N"]),
                top_displacement=float(row["top_displacement_mm"]),
                max_abs_gamma=float(row["max_abs_gamma"]),
                min_det_Fe=float(row["min_det_Fe"]),
                optimizer_iterations=int(row["optimizer_iterations"]),
            ))
    return records


def _cell_fields(state, mesh):
    """Element-constant det Fe, Green-Lagrange strain E = (grad_y^T grad_y - I)/2
    and displacement gradient grad_y - I, each component an (nt,) array."""
    y00, y01, y10, y11, det = element_grad_y(mesh, state.a1, state.a2)
    E = {"11": 0.5 * ((y00 * y00 + y10 * y10) - 1.0),
         "22": 0.5 * ((y01 * y01 + y11 * y11) - 1.0),
         "12": 0.5 * (y00 * y01 + y10 * y11)}
    gu = {"11": y00 - 1.0, "12": y01, "21": y10, "22": y11 - 1.0}
    return det, E, gu


def write_snapshot_vtk(state, mesh, path, title: str = "kinkband snapshot") -> None:
    """VTK legacy ASCII unstructured grid of the deformed configuration.

    Point data: displacement vector and slip gamma.  Cell data: det Fe,
    Green-Lagrange strain components and displacement-gradient components.
    """
    det, E, gu = _cell_fields(state, mesh)
    u1 = state.a1 - mesh.nodes[:, 0]
    u2 = state.a2 - mesh.nodes[:, 1]
    n = mesh.n_nodes
    nt = mesh.n_triangles
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n} double\n")
        _write_vectors(fh, state.a1, state.a2)
        fh.write(f"CELLS {nt} {4 * nt}\n")
        fh.write("".join(f"3 {i} {j} {k}\n"
                         for i, j, k in mesh.triangles.tolist()))
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        fh.write(f"POINT_DATA {n}\n")
        fh.write("VECTORS displacement double\n")
        _write_vectors(fh, u1, u2)
        _write_scalars(fh, "gamma", state.b)
        fh.write(f"CELL_DATA {nt}\n")
        _write_scalars(fh, "det_Fe", det)
        for name, values in E.items():
            _write_scalars(fh, f"E_{name}", values)
        for name, values in gu.items():
            _write_scalars(fh, f"grad_u_{name}", values)


def _write_vectors(fh, v1, v2):
    fh.write("".join(f"{x:.17g} {y:.17g} 0\n"
                     for x, y in zip(v1.tolist(), v2.tolist())))


def _write_scalars(fh, name, values):
    fh.write(f"SCALARS {name} double 1\n")
    fh.write("LOOKUP_TABLE default\n")
    fh.write("".join(f"{v:.17g}\n" for v in values.tolist()))
